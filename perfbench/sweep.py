#!/usr/bin/env python3
"""Run the benchmark over several seeds and save each run's output.

    python3 perfbench/sweep.py OUT_DIR --workload rmat-skewed --seeds 1-10
        [--seconds 20] [--trace 0]

Each run's stdout goes to OUT_DIR/<workload>-t<trace>-s<seed>.out, the
layout compare.py reads. --seconds defaults to BENCHMARK.json's
run_seconds; --workload may be given more than once (default: all).
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out_dir")
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    failures = 0
    for seed in args.seeds:
        for w in workloads:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            path = out / f"{w}-t{args.trace}-s{seed}.out"
            with open(path, "w") as f:
                code = subprocess.run(cmd, stdout=f).returncode
            print(f"{path}: exit {code}", file=sys.stderr)
            failures += code != 0
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
