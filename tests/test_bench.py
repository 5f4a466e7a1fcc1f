"""The benchmark still runs against the package: its self-test passes.

``bench/`` calls the public ``milrank`` API by name (``load_bags``,
``train_on_bags``, ``TrainConfig`` fields, ``evaluate_manifest`` ...), so an
API change that breaks it shows here rather than only when it is next run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_self_test_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "self-test"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
