"""Command-line entry point.

This module stays free of numpy imports: BLAS has to be pinned to one
thread per call through the environment variables below before numpy
first loads, so the actual command implementations are imported inside
``main``.  It relies on the package ``__init__`` importing nothing, since
importing ``milrank.cli`` runs that file first.  Every command pins them,
overriding values already set: ``train`` gets its parallelism from
``--threads`` worker threads that split the layer-1 GEMMs instead (see
``network.Workspace``), which leaves the output bytes unchanged, while a
multi-threaded BLAS would change them.
"""

from __future__ import annotations

import os
import sys

THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def main(argv: list[str] | None = None) -> int:
    os.environ.update(dict.fromkeys(THREAD_ENV_VARS, "1"))
    from ._commands import run
    return run(sys.argv[1:] if argv is None else list(argv))


if __name__ == "__main__":
    sys.exit(main())
