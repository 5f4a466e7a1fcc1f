"""Command-line entry point.

This module stays free of numpy imports: the ``--threads`` cap has to be
exported to the BLAS environment variables before numpy first loads, so
the actual command implementations are imported inside ``main``.  It
relies on the package ``__init__`` importing nothing, since importing
``milrank.cli`` runs that file first.  An explicit ``--threads``
overwrites those variables; without it, values already set in the
environment are kept and unset ones default to 1.
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


def _threads_flag(argv: list[str]) -> str | None:
    """The raw ``--threads`` value, or None when the flag is absent."""
    for i, token in enumerate(argv):
        if token == "--threads" and i + 1 < len(argv):
            return argv[i + 1]
        if token.startswith("--threads="):
            return token.split("=", 1)[1]
    return None


def _peek_threads(argv: list[str]) -> int:
    value = _threads_flag(argv)
    try:
        return max(1, int(value)) if value is not None else 1
    except ValueError:
        return 1


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if _threads_flag(args) is None:
        for var in THREAD_ENV_VARS:
            os.environ.setdefault(var, "1")
    else:
        threads = str(_peek_threads(args))
        for var in THREAD_ENV_VARS:
            os.environ[var] = threads
    from ._commands import run
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
