"""Pin BLAS to one thread per call before any test imports numpy.

``cli.main`` pins the same variables for every command, but the in-process
tests import numpy directly, and BLAS reads the variables only once, as
numpy loads.  With them pinned here, every in-process run makes the same
one-thread BLAS calls as the ``milrank`` command, and the worker threads
that split the layer-1 GEMMs are the only parallelism.
"""

import os
import sys

import pytest

from milrank.cli import THREAD_ENV_VARS

if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before tests/conftest.py could pin BLAS to one thread "
                       f"through {', '.join(THREAD_ENV_VARS)}; set them in the environment instead")
os.environ.update(dict.fromkeys(THREAD_ENV_VARS, "1"))


@pytest.fixture
def pool_submits(monkeypatch):
    """The functions submitted to every ``network.Workspace`` thread pool, in order."""
    from concurrent.futures import ThreadPoolExecutor

    from milrank import network

    submits = []

    class RecordingPool(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            submits.append(fn)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(network, "ThreadPoolExecutor", RecordingPool)
    return submits
