#!/usr/bin/env python3
"""Build and run the connectivity benchmark on one workload.

    python3 perfbench/run.py --workload rmat-skewed --seed 7 --seconds 20 --trace 0

Run from the repository root. The script builds perfbench/ (and the library
under src/) into .bench_build/perfbench, generates the workload graph from
the seed into a .badj file, runs the measurement on it, and deletes the
file. It forwards the measurement's output and checks the last line, the
result object, against BENCHMARK.json: every metric the trace level asks
for, by name and unit. It exits non-zero on a build failure, a wrong
answer or a missing metric. README.md in this directory describes the
metrics and workloads.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
EXE = BUILD / "pcc_perfbench"
WORKLOADS = ("random-lowdiam", "line-highdiam", "rmat-skewed")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    jobs = str(os.cpu_count() or 1)
    steps = [["cmake", "--build", str(BUILD), "-j", jobs]]
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result object.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_sha():
    """Hash of the library and benchmark sources, for checkouts without git."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for d in (ROOT / "src", HERE):
        files += [p for p in d.rglob("*")
                  if p.suffix in (".cpp", ".hpp", ".txt")]
    for p in sorted(files):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:12]


def expected_metrics(trace):
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found")
    spec = json.loads(spec_path.read_text())
    section = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail(f"last output line is not a result object: {line!r}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys are {sorted(result)}")
    want = expected_metrics(trace)
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    missing = sorted(set(want) - set(got))
    extra = sorted(set(got) - set(want))
    wrong_unit = sorted(k for k in want if k in got and got[k] != want[k])
    if missing or extra or wrong_unit:
        fail(f"metric mismatch: missing {missing}, unexpected {extra}, "
             f"wrong unit {wrong_unit}")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="2^12-vertex graphs (the self-test)")
    ap.add_argument("--spans", help="where a --trace 1 run writes its spans")
    args = ap.parse_args()

    build()
    data = BUILD / "data"
    data.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-{args.seed}{'-tiny' if args.tiny else ''}"
    graph = data / f"{tag}.badj"
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    tiny = ["--tiny"] if args.tiny else []
    try:
        gen = subprocess.run([str(EXE), "generate", *common, "--out",
                              str(graph), *tiny], stdout=sys.stderr)
        if gen.returncode:
            fail("graph generation failed")
        cmd = [str(EXE), "measure", *common, "--graph", str(graph),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--git-sha", git_sha(), "--source-sha", source_sha(), *tiny]
        if args.trace:
            spans = args.spans or str(data / f"{tag}.spans.json")
            cmd += ["--spans", spans]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    finally:
        graph.unlink(missing_ok=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    result = check_result(lines[-1], args.trace)
    print(lines[-1], flush=True)
    if proc.returncode or not result["correct"] or result["failed"]:
        fail(f"measurement failed (exit {proc.returncode}, "
             f"{result['failed']} wrong answers)")


if __name__ == "__main__":
    main()
