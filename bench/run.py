"""milrank benchmark: one command for every workload, metric and check.

Run one workload (from the root of a checkout):

    python3 bench/run.py --workload train-small --seed 1 --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric of BENCHMARK.json, ``--trace 1``
every per-layer metric from a separate traced run.  Before the last line it
prints one human-readable line per metric and a JSON record (workload, seed,
metrics with units, error_rate, failed checks, sample counts and the
environment); the last line is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.

Other modes:

    python3 bench/run.py compare BASE.log NEW.log   # verdict per workload and metric
    python3 bench/run.py self-test                  # all workloads at tiny size

Inputs are generated from the seed under ``.bench_work/`` and deleted when
the run ends; traced runs keep their spans under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("train-small", "train-paper", "eval-paper")


def child_timeout(seconds: float) -> float:
    """Time the measured process gets: its warm-up and checks, plus twice the run."""
    return 60.0 + 2.0 * seconds


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def load_spec() -> dict:
    spec_path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(spec_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        raise BenchError(f"cannot read {spec_path.name}: {e}") from None


def import_milrank() -> None:
    """Put the checkout's own ``src`` first on the path; fail if it is missing."""
    if not (SRC / "milrank" / "__init__.py").is_file():
        raise BenchError("milrank sources not found under src/ in this checkout")
    sys.path.insert(0, str(SRC))
    import milrank
    if Path(milrank.__file__).resolve().parent != SRC / "milrank":
        raise BenchError(f"imported milrank from {milrank.__file__}, not from this checkout")


def flush_to_disk(directory: Path) -> None:
    """fsync every generated file, so that writeback does not run during the measured run."""
    for path in directory.rglob("*"):
        if path.is_file():
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
                 damage=None) -> dict:
    """Generate inputs, run the measured process and return the full record.

    ``damage(work_dir)``, if given, alters the generated inputs before the
    measured process starts; the self-test uses it to check failure reporting.
    """
    spec = load_spec()
    import_milrank()
    import inputs

    work = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    spans_path = None
    if trace:
        (ROOT / ".bench_out").mkdir(exist_ok=True)
        spans_path = ROOT / ".bench_out" / f"spans-{workload}-{seed}.json"
        spans_path.unlink(missing_ok=True)
    try:
        plan_path = inputs.prepare(workload, seed, seconds, size, work)
        if damage:
            damage(work)
        flush_to_disk(work)
        result_path = work / "result.json"
        cmd = [sys.executable, str(BENCH_DIR / "workload.py"), str(plan_path),
               "1" if trace else "0", str(result_path)]
        if spans_path:
            cmd.append(str(spans_path))
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                                  timeout=child_timeout(seconds))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload}: measured process exceeded the time limit") from None
        if proc.returncode != 0:
            raise BenchError(f"{workload}: measured process failed (exit {proc.returncode}):\n"
                             f"{proc.stderr[-4000:]}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = result["metrics"]
    if got is None:  # a program call raised and the run stopped: nothing was measured
        got = dict.fromkeys(units, 0.0)
    if set(got) != set(units):
        raise BenchError(f"{workload}: metric names differ from BENCHMARK.json: "
                         f"missing {sorted(set(units) - set(got))}, extra {sorted(set(got) - set(units))}")
    attempted, failed = result["attempted"], result["failed"]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "size": size,
        "metrics": {name: {"value": got[name], "unit": units[name]} for name in units},
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "failed_checks": result["failed_checks"],
        "samples": result["samples"],
        "env": result["env"],
        "spans": str(spans_path.relative_to(ROOT)) if spans_path and spans_path.exists() else None,
    }


def print_record(record: dict) -> None:
    for name, m in record["metrics"].items():
        print(f"{record['workload']:<12} {name:<48} {m['value']:>14.6g} {m['unit']}")
    print(f"{record['workload']:<12} {'error_rate':<48} {record['error_rate']:>14.6g} ratio "
          f"({record['failed']} of {record['attempted']} operations failed"
          + (f": {', '.join(record['failed_checks'])})" if record["failed_checks"] else ")"))
    print(json.dumps(record))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        import compare
        return compare.main(argv[1:])
    if argv[:1] == ["self-test"]:
        import selftest
        return selftest.main()
    parser = argparse.ArgumentParser(description="Run one milrank benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    try:
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1
    print_record(record)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
