#!/usr/bin/env python3
"""Fast self-test of the benchmark: every workload at 2^12 vertices.

    python3 perfbench/selftest.py

For each workload it makes one untraced and one traced run through run.py
and checks that:
  - the run exits 0 and its last line is a result object with exactly the
    keys correct/attempted/failed/metrics, every answer correct;
  - the metrics are exactly BENCHMARK.json's end_to_end (untraced) or
    per_layer (traced) names, with their units, as finite numbers;
  - the provenance line carries every field the README lists;
  - the spans nest: each child lies inside its parent and shares its query
    id, and siblings do not overlap;
  - in every traced engine query, the self times of the engine span and its
    ldd/contract children add up to the span's wall time, and the median
    engine self time is the reported engine.residual_s;
  - line-highdiam contracts without duplicates (contract.dup_frac == 0).
Exits non-zero on the first failed check.
"""

import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench" / "selftest"
PROVENANCE_KEYS = {
    "workload", "seed", "trace", "git_sha", "source_sha", "compiler",
    "cxx_flags", "build_type", "optimized", "nproc", "threads", "backend",
    "n", "m", "components", "auto_pick", "auto_reorder", "tail_percentile",
    "working_set_bytes", "llc_bytes", "working_set_over_llc",
}
EPS = 1e-6  # span times are written with 9 decimals


def check(cond, what):
    if not cond:
        print(f"selftest: FAIL: {what}", file=sys.stderr)
        sys.exit(1)


def run(workload, trace, spans):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "2", "--trace", str(trace), "--tiny",
           "--spans", str(spans)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    check(proc.returncode == 0,
          f"{workload} trace {trace} exited {proc.returncode}: "
          f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().split("\n")
    prov = [json.loads(l)["provenance"] for l in lines
            if l.startswith('{"provenance"')]
    check(len(prov) == 1, f"{workload}: one provenance line")
    missing = PROVENANCE_KEYS - set(prov[0])
    check(not missing, f"{workload}: provenance lacks {sorted(missing)}")
    return json.loads(lines[-1])


def check_schema(workload, trace, result, spec):
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{workload}: result keys {sorted(result)}")
    check(result["correct"] is True and result["failed"] == 0,
          f"{workload}: wrong answers")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          f"{workload}: attempted")
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    check(set(got) == set(want),
          f"{workload} trace {trace}: metrics differ: "
          f"{sorted(set(got) ^ set(want))}")
    for name, m in got.items():
        check(set(m) == {"value", "unit"}, f"{name}: keys {sorted(m)}")
        check(m["unit"] == want[name], f"{name}: unit {m['unit']}")
        check(isinstance(m["value"], (int, float)) and math.isfinite(m["value"]),
              f"{name}: value {m['value']}")


def check_spans(workload, spans_path, metrics):
    spans = json.loads(Path(spans_path).read_text())
    check(spans, f"{workload}: no spans written")
    children = {}
    for s in spans:
        check(s["end"] >= s["start"], f"span {s['id']} ends before it starts")
        p = s["parent"]
        if p < 0:
            continue
        check(p < s["id"], f"span {s['id']} opened before its parent")
        parent = spans[p]
        check(parent["start"] - EPS <= s["start"] and
              s["end"] <= parent["end"] + EPS,
              f"span {s['id']} ({s['name']}) outside parent {p}")
        check(parent["query"] == s["query"], f"span {s['id']} query id")
        children.setdefault(p, []).append(s)
    for kids in children.values():
        for a, b in zip(kids, kids[1:]):
            check(a["end"] <= b["start"] + EPS,
                  f"spans {a['id']}, {b['id']} overlap")

    def self_time(s):
        return (s["end"] - s["start"]) - sum(
            c["end"] - c["start"] for c in children.get(s["id"], []))

    residuals = []
    for s in spans:
        if s["name"] != "engine":
            continue
        kids = children.get(s["id"], [])
        check(kids and {k["name"] for k in kids} <= {"ldd", "contract"},
              f"engine span {s['id']} children")
        wall = s["end"] - s["start"]
        total = self_time(s) + sum(self_time(k) for k in kids)
        check(abs(total - wall) <= EPS * (len(kids) + 1),
              f"engine span {s['id']}: self times {total} != wall {wall}")
        residuals.append(self_time(s))
    check(residuals, f"{workload}: no engine spans")
    reported = metrics["engine.residual_s"]["value"]
    check(abs(statistics.median(residuals) - reported) <= 4 * EPS,
          f"{workload}: engine.residual_s {reported} is not the median "
          f"engine self time {statistics.median(residuals)}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(parents=True, exist_ok=True)
    # Every workload run.py knows, including ones BENCHMARK.json does not
    # gate.
    for w in ("random-lowdiam", "line-highdiam", "rmat-skewed"):
        for trace in (0, 1):
            spans = OUT / f"{w}-t{trace}.spans.json"
            result = run(w, trace, spans)
            check_schema(w, trace, result, spec)
            if trace:
                check_spans(w, spans, result["metrics"])
                if w == "line-highdiam":
                    check(result["metrics"]["contract.dup_frac"]["value"] == 0,
                          "line-highdiam: contract.dup_frac is not 0")
            print(f"selftest: {w} trace {trace}: ok "
                  f"({result['attempted']} answers checked)")
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
