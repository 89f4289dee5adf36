#!/usr/bin/env python3
"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py --base a1.json a2.json ... --new b1.json b2.json ...

Each file is one ``run.py --out`` result (a list of workload results). For
every workload and end-to-end metric it prints each side's median and
quartiles, the change of the medians, the metric's bound from
``BENCHMARK.json``, and a verdict:

* ``worse``      -- the new median is worse than the base median by more than the bound;
* ``unresolved`` -- the base runs spread wider than the bound, and not every
  new run reads better than every base run;
* ``ok``         -- neither.

It refuses (exit 2) to compare results whose environment stamps differ in
anything but the commit and the source digest. Exit code 1 means some
metric is worse beyond its bound or some run was not correct.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CODE_FIELDS = ("commit", "src_sha256")


def load(paths: list[str]) -> dict[str, list[dict]]:
    by_workload: dict[str, list[dict]] = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            for result in json.load(fh):
                by_workload.setdefault(result["workload"], []).append(result)
    return by_workload


def environment(result: dict) -> dict:
    return {k: v for k, v in result["stamp"].items() if k not in CODE_FIELDS}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    base, new = load(args.base), load(args.new)

    workloads = sorted(set(base) & set(new))
    if not workloads:
        print("nothing to compare: no workload appears on both sides", file=sys.stderr)
        return 2
    for workload in workloads:
        stamps = {json.dumps(environment(r), sort_keys=True) for r in base[workload] + new[workload]}
        if len(stamps) > 1:
            print(f"refusing to compare {workload}: environment stamps differ:\n  "
                  + "\n  ".join(sorted(stamps)), file=sys.stderr)
            return 2

    status = 0
    for workload in workloads:
        b_runs, n_runs = base[workload], new[workload]
        if not all(r["correct"] for r in b_runs + n_runs):
            print(f"{workload}: some runs were not correct")
            status = 1
        print(f"== {workload} ({len(b_runs)} base runs, {len(n_runs)} new runs)")
        for name, m in spec.items():
            b = [r["metrics"][name]["value"] for r in b_runs if name in r["metrics"]]
            n = [r["metrics"][name]["value"] for r in n_runs if name in r["metrics"]]
            if not b or not n:
                continue
            bq1, bmed, bq3 = quartiles(b)
            nq1, nmed, nq3 = quartiles(n)
            sign = 1 if m["better"] == "lower" else -1
            change = (nmed - bmed) / bmed
            spread = (bq3 - bq1) / bmed
            all_better = all(sign * (x - y) < 0 for x in n for y in b)
            if sign * change > m["bound"]:
                verdict, status = "worse", 1
            elif spread > m["bound"] and not all_better:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"  {name:<14} base {bmed:12.4f} [{bq1:.4f}, {bq3:.4f}]  "
                  f"new {nmed:12.4f} [{nq1:.4f}, {nq3:.4f}]  {m['unit']:<5} "
                  f"change {change:+7.2%}  bound {m['bound']:.0%}  {verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main())
