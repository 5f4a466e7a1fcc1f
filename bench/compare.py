"""Compare two result sets of the benchmark.

    python3 bench/run.py compare BASE.log NEW.log

Each file holds the stdout of any number of benchmark runs; the JSON record
lines (the ones with a ``"workload"`` key) are read and the rest ignored.
For every workload, trace setting and metric it prints both sides' median
and quartiles and a verdict:

* unresolved: either side's quartile spread (Q3 - Q1 over the median) is
  wider than the metric's bound, unless every run of NEW reads better than
  every run of BASE, which counts as better;
* worse: NEW's median is worse than BASE's by more than the bound;
* better: NEW wins at least nine tenths of the runs paired by seed (ties
  count for neither) and the medians differ by more than BASE's own
  quartile distance;
* unchanged: otherwise.

Per-layer metrics have no bound, so they are never unresolved or worse by
bound; they are better or worse only by the paired-wins rule.  error_rate
is compared on the pooled failed / attempted counts: any increase is worse,
and then no metric of that workload is reported as better.  The exit code
is 1 when any verdict is worse.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

import run


def read_records(path) -> list[dict]:
    records = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(doc, dict) and "workload" in doc and "metrics" in doc:
            records.append(doc)
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: dict[int, float], new: dict[int, float], better: str, bound: float | None) -> str:
    """Verdict for one metric; ``base`` and ``new`` map seed to value."""
    sign = 1.0 if better == "higher" else -1.0
    b_vals, n_vals = list(base.values()), list(new.values())
    b1, bm, b3 = quartiles(b_vals)
    n1, nm, n3 = quartiles(n_vals)
    every_better = all(sign * (n - b) > 0 for n in n_vals for b in b_vals)
    if bound is not None:
        spreads = [(q3 - q1) / abs(m) if m else 0.0 for q1, m, q3 in ((b1, bm, b3), (n1, nm, n3))]
        if max(spreads) > bound:
            return "better" if every_better else "unresolved"
        if bm and sign * (nm - bm) / abs(bm) < -bound:
            return "worse"
    seeds = sorted(set(base) & set(new))
    pairs = [(base[s], new[s]) for s in seeds] or list(zip(b_vals, n_vals))
    wins = sum(sign * (n - b) > 0 for b, n in pairs)
    losses = sum(sign * (n - b) < 0 for b, n in pairs)
    if abs(nm - bm) > (b3 - b1):
        if sign * (nm - bm) > 0 and wins >= 0.9 * len(pairs):
            return "better"
        if bound is None and sign * (nm - bm) < 0 and losses >= 0.9 * len(pairs):
            return "worse"
    return "unchanged"


def compare(base_records: list[dict], new_records: list[dict], spec: dict) -> list[dict]:
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    rows = []
    keys = sorted({(r["workload"], r["trace"]) for r in base_records}
                  & {(r["workload"], r["trace"]) for r in new_records})
    for workload, trace in keys:
        base = [r for r in base_records if (r["workload"], r["trace"]) == (workload, trace)]
        new = [r for r in new_records if (r["workload"], r["trace"]) == (workload, trace)]
        b_err = sum(r["failed"] for r in base) / sum(r["attempted"] for r in base)
        n_err = sum(r["failed"] for r in new) / sum(r["attempted"] for r in new)
        err_verdict = "worse" if n_err > b_err else ("better" if n_err < b_err else "unchanged")
        workload_rows = [dict(workload=workload, trace=trace, metric="error_rate", unit="ratio",
                              base=(b_err, b_err, b_err), new=(n_err, n_err, n_err),
                              runs=(len(base), len(new)), verdict=err_verdict)]
        for name, m in metrics.items():
            b = {r["seed"]: r["metrics"][name]["value"] for r in base if name in r["metrics"]}
            n = {r["seed"]: r["metrics"][name]["value"] for r in new if name in r["metrics"]}
            if not b or not n:
                continue
            v = verdict(b, n, m["better"], m.get("bound"))
            if v == "better" and err_verdict == "worse":
                v = "unresolved"
            workload_rows.append(dict(workload=workload, trace=trace, metric=name, unit=m["unit"],
                                      base=quartiles(list(b.values())), new=quartiles(list(n.values())),
                                      runs=(len(b), len(n)), verdict=v))
        rows.extend(workload_rows)
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 bench/run.py compare BASE.log NEW.log")
        return 2
    base, new = read_records(argv[0]), read_records(argv[1])
    rows = compare(base, new, run.load_spec())
    if not rows:
        print("no workload appears in both result sets")
        return 2
    print(f"{'workload':<12} {'t':<1} {'metric':<46} {'base median [Q1, Q3]':<34} "
          f"{'new median [Q1, Q3]':<34} {'runs':<7} verdict")
    for r in rows:
        b1, bm, b3 = r["base"]
        n1, nm, n3 = r["new"]
        print(f"{r['workload']:<12} {r['trace']:<1} {r['metric']:<46} "
              f"{f'{bm:.5g} [{b1:.5g}, {b3:.5g}]':<34} {f'{nm:.5g} [{n1:.5g}, {n3:.5g}]':<34} "
              f"{'%d/%d' % r['runs']:<7} {r['verdict']}")
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0
