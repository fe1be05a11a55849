#!/usr/bin/env python3
"""Summarise one set of benchmark runs, or compare two.

    python3 perfbench/compare.py RUNS_A [RUNS_B]

A set is a directory of saved run outputs (the stdout of perfbench/run.py,
one file per run; sweep.py writes them). Runs are grouped by the workload
and trace level named in their provenance line. For every metric of every
workload the report gives the median, the quartiles as
statistics.quantiles(n=4) computes them, and the spread: the distance
between the quartiles as a share of the median.

With one set, each end-to-end metric's spread is set against its bound in
BENCHMARK.json ("steady" below a third of the bound).

With two sets (A the base, B the change), it also reports B's median
against A's, whether B is within the bound (not worse than A by more than
the bound), and the pairwise win fraction: runs are paired in file-name
order and B wins a pair when it is better by the metric's direction; ties
count for neither. A gain may be claimed only when B wins at least nine
tenths of the pairs and the medians differ by more than A's own spread.
The exit code is 1 when some end-to-end metric is worse than its bound.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    for m in spec["per_layer"]:
        metrics.setdefault(m["name"], m)
    return metrics


def load_set(path):
    """{(workload, trace): {metric: [values in file-name order]}}"""
    runs = {}
    for f in sorted(Path(path).iterdir()):
        if not f.is_file():
            continue
        prov = result = None
        for line in f.read_text().splitlines():
            if line.startswith('{"provenance"'):
                prov = json.loads(line)["provenance"]
            elif line.startswith('{"correct"'):
                result = json.loads(line)
        if prov is None or result is None:
            print(f"compare: skipping {f} (no provenance or result)",
                  file=sys.stderr)
            continue
        group = runs.setdefault((prov["workload"], prov["trace"]), {})
        for name, m in result["metrics"].items():
            group.setdefault(name, []).append(m["value"])
    return runs


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else 0.0
    return med, q1, q3, spread


def win_fraction(a, b, better):
    pairs = list(zip(a, b))
    if better == "higher":
        wins = sum(1 for x, y in pairs if y > x)
    else:
        wins = sum(1 for x, y in pairs if y < x)
    return wins / len(pairs) if pairs else 0.0


def main():
    if len(sys.argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    spec = load_spec()
    base = load_set(sys.argv[1])
    change = load_set(sys.argv[2]) if len(sys.argv) == 3 else None
    worse = 0
    for key in sorted(base):
        workload, trace = key
        print(f"\n== {workload} ({'per-layer' if trace else 'end-to-end'}) ==")
        if change is None:
            print(f"{'metric':28} {'n':>3} {'median':>12} {'q1':>12} "
                  f"{'q3':>12} {'spread':>7} {'bound':>6}")
        else:
            print(f"{'metric':28} {'A median':>12} {'B median':>12} "
                  f"{'shift':>7} {'A sprd':>7} {'B sprd':>7} {'bound':>6} "
                  f"{'B wins':>6}  verdict")
        for name, a in base[key].items():
            m = spec.get(name, {})
            bound = m.get("bound")
            better = m.get("better", "lower")
            med, q1, q3, spread = summary(a)
            bound_s = f"{bound:6.2f}" if bound is not None else "     -"
            if change is None:
                verdict = ""
                if bound is not None:
                    verdict = ("steady" if spread < bound / 3 else
                               "within bound" if spread <= bound else
                               "TOO WIDE")
                print(f"{name:28} {len(a):3d} {med:12.6g} {q1:12.6g} "
                      f"{q3:12.6g} {spread:7.3f} {bound_s}  {verdict}")
                continue
            b = change.get(key, {}).get(name)
            if not b:
                print(f"{name:28} missing from B")
                continue
            bmed, _, _, bspread = summary(b)
            shift = (bmed - med) / abs(med) if med else 0.0
            worse_by = shift if better == "lower" else -shift
            if bound is None:
                verdict = ""
            elif worse_by > bound:
                verdict = "WORSE than bound"
                worse += 1
            else:
                verdict = "within bound"
            print(f"{name:28} {med:12.6g} {bmed:12.6g} {shift:+7.3f} "
                  f"{spread:7.3f} {bspread:7.3f} {bound_s} "
                  f"{win_fraction(a, b, better):6.2f}  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
