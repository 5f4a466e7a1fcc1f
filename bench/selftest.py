"""Self-test of the benchmark: every workload, untraced and traced, at tiny size.

Run with ``python3 bench/run.py self-test``; it takes seconds.  It checks
that BENCHMARK.json is well formed, that every named metric is present with
its unit and a finite value, that every output check passed, and that no
span's self time is negative or exceeds its parent's duration.  It also
truncates a generated feature file and checks that the failing program
call is reported as failed operations rather than ending the run.
"""

from __future__ import annotations

import json
import math
import re

import run
from spans import self_time_violations

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec(spec: dict) -> list[str]:
    problems = []
    names = [w["name"] for w in spec["workloads"]] + [m["name"] for m in spec["end_to_end"]] \
        + [m["name"] for m in spec["per_layer"]]
    problems += [f"bad or repeated name {n!r}" for n in names if not NAME.match(n) or names.count(n) > 1]
    problems += [f"{w['name']}: why longer than 200 characters"
                 for w in spec["workloads"] if len(w["why"]) > 200 or "\n" in w["why"]]
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(m["unit"]) or m["better"] not in ("higher", "lower"):
            problems.append(f"{m['name']}: bad unit or direction")
    problems += [f"{m['name']}: bound above 0.25" for m in spec["end_to_end"] if not 0 < m["bound"] <= 0.25]
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        problems.append("workload names differ from run.WORKLOADS")
    return problems


def truncate_a_feature_file(work) -> None:
    path = sorted(work.rglob("*.feat"))[0]
    path.write_bytes(path.read_bytes()[:-4])


def check_failure_reporting() -> list[str]:
    """A truncated feature file fails a set-up (training) or a pass (eval)."""
    problems = []
    for workload, expected in (("train-small", "workload"), ("eval-paper", "eval.pass")):
        record = run.run_workload(workload, seed=3, seconds=1.0, trace=False, size="tiny",
                                  damage=truncate_a_feature_file)
        if record["failed"] == 0 or not any(c.startswith(expected) for c in record["failed_checks"]):
            problems.append(f"{workload}: truncated input not reported as failed {expected!r}: "
                            f"{record['failed_checks']}")
        print(f"self-test {workload} damaged input: {record['failed']} of {record['attempted']} "
              f"operations failed: {record['failed_checks']}")
    return problems


def main() -> int:
    spec = run.load_spec()
    problems = check_spec(spec)
    for workload in run.WORKLOADS:
        for trace in (False, True):
            label = f"{workload} trace={int(trace)}"
            record = run.run_workload(workload, seed=3, seconds=1.0, trace=trace, size="tiny")
            wanted = spec["per_layer" if trace else "end_to_end"]
            for m in wanted:
                got = record["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"] or not math.isfinite(got["value"]):
                    problems.append(f"{label}: metric {m['name']} missing, without unit or not finite")
            if record["failed"]:
                problems.append(f"{label}: failed checks {record['failed_checks']}")
            if trace:
                doc = json.loads((run.ROOT / record["spans"]).read_text(encoding="utf-8"))
                if not doc["spans"]:
                    problems.append(f"{label}: no spans recorded")
                bad = self_time_violations(doc["spans"])
                if bad:
                    problems.append(f"{label}: self time outside [0, parent duration] for {bad[:5]}")
                if doc["absent"]:
                    print(f"self-test {label}: wrapped names absent: {doc['absent']}")
            print(f"self-test {label}: {record['attempted']} operations, {record['failed']} failed")
    problems += check_failure_reporting()
    for p in problems:
        print(f"self-test FAIL: {p}")
    print("self-test", "FAILED" if problems else "passed")
    return 1 if problems else 0
