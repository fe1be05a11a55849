#!/usr/bin/env python3
"""pcc_analyze: AST-based concurrency & memory-discipline analyzer.

Structural checks over every parallel region (`parallel_for`, `par_do`,
`emit_pack`, `frontier_edge_for`, ... bodies) and over registry `run_*`
implementations:

  shared-write               stores reaching memory visible to other
                             iterations must go through parallel/atomics.hpp,
                             be injectively owner-indexed, or carry a
                             validated `// lint: private-write(<invariant>)`.
                             Local pointer aliases of captured spans are
                             tracked, and helper functions are resolved one
                             call level deep.
  shared-cursor-emission     fetch_add-cursor output loops that bypass
                             parallel/emit.hpp.
  workspace-escape           spans carved from a locally-owned cc::workspace
                             arena stored into objects that outlive it;
                             also workspace mutation inside parallel bodies.
  hygiene                    std::function / allocation / rand-time /
                             hash-iteration-order in hot parallel paths, and
                             static locals in parallel bodies.

Suppressions: `// analyze: suppress(<check>: <reason>)` on the finding's
line or the line above (reason text is mandatory; unused suppressions are
themselves findings). The legacy `// lint: allow(rule: reason)` spelling is
accepted too.

Usage:
    pcc_analyze.py [--compile-commands build/compile_commands.json]
                   [--json REPORT.json] [--checks a,b,...] [paths...]

Exit status: 0 = clean, 1 = findings, 2 = usage error.

The front-end is the self-contained cppast module (stdlib only), designed
around the libclang cursor model so a clang.cindex front-end can replace it
where the bindings exist; nothing here needs an LLVM link step or any
third-party package — `ctest -R analyze` runs wherever the repo builds.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks as C  # noqa: E402
import cppast  # noqa: E402

REPORT_SCHEMA_VERSION = 1


def gather_files(paths: list[str], compile_commands: str | None) -> \
        list[str]:
    exts = (".cpp", ".cc", ".cxx", ".hpp", ".h", ".hh")
    roots = [os.path.abspath(p) for p in paths] or [os.getcwd()]
    files: set[str] = set()
    if compile_commands:
        try:
            with open(compile_commands, "r", encoding="utf-8") as f:
                db = json.load(f)
        except (OSError, ValueError) as e:
            print(f"pcc_analyze: cannot read {compile_commands}: {e}",
                  file=sys.stderr)
            sys.exit(2)
        for entry in db:
            src = os.path.abspath(
                os.path.join(entry.get("directory", "."), entry["file"]))
            if any(os.path.commonpath([src, r]) == r for r in roots
                   if os.path.isdir(r)):
                files.add(src)
    for r in roots:
        if os.path.isfile(r):
            files.add(r)
            continue
        for dirpath, _, names in os.walk(r):
            for name in names:
                if name.endswith(exts):
                    files.add(os.path.join(dirpath, name))
    return sorted(files)


def analyze_files(files: list[str]) -> tuple[C.Analyzer, list[C.Finding]]:
    contexts: dict[str, C.FileContext] = {}
    for path in files:
        try:
            with open(path, "r", encoding="utf-8", errors="replace") as f:
                text = f.read()
        except OSError as e:
            print(f"pcc_analyze: cannot read {path}: {e}", file=sys.stderr)
            continue
        lf = cppast.lex(text, path)
        contexts[path] = C.build_file_context(lf)
    analyzer = C.Analyzer(contexts)
    findings = analyzer.run()
    return analyzer, findings


def write_report(path: str, files: list[str], findings: list[C.Finding],
                 analyzer: C.Analyzer, checks_run: list[str]) -> None:
    active = [f for f in findings if not f.suppressed]
    suppressed = [f for f in findings if f.suppressed]

    def row(f: C.Finding) -> dict:
        d = {
            "file": _rel(f.path),
            "line": f.line,
            "col": f.col,
            "check": f.check,
            "message": f.message,
        }
        if f.function:
            d["function"] = f.function
        if f.region_line:
            d["region_line"] = f.region_line
        if f.suppressed:
            d["suppress_reason"] = f.suppress_reason
        return d

    pw_total = pw_anchored = 0
    for ctx in analyzer.contexts.values():
        for a in ctx.private_write.values():
            pw_total += 1
            if a.anchored:
                pw_anchored += 1
    report = {
        "tool": "pcc_analyze",
        "schema_version": REPORT_SCHEMA_VERSION,
        "checks": checks_run,
        "files_scanned": len(files),
        "findings": [row(f) for f in active],
        "suppressed": [row(f) for f in suppressed],
        "annotations": {
            "private_write_total": pw_total,
            "private_write_anchored": pw_anchored,
        },
        "summary": {
            "findings": len(active),
            "suppressed": len(suppressed),
        },
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")


def _rel(path: str) -> str:
    cwd = os.getcwd()
    try:
        r = os.path.relpath(path, cwd)
    except ValueError:
        return path
    return path if r.startswith("..") else r


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        prog="pcc_analyze")
    ap.add_argument("paths", nargs="*",
                    help="files or directories to analyze (default: cwd)")
    ap.add_argument("--compile-commands", metavar="PATH",
                    help="compile_commands.json to take the TU list from "
                         "(headers under the given paths are added)")
    ap.add_argument("--json", metavar="PATH",
                    help="write a machine-readable report here")
    ap.add_argument("--checks", metavar="NAMES",
                    help="comma-separated subset of checks to report "
                         f"(catalog: {', '.join(C.CHECK_NAMES)})")
    ap.add_argument("--list-checks", action="store_true",
                    help="print the check catalog and exit")
    ap.add_argument("-q", "--quiet", action="store_true",
                    help="suppress the summary line")
    args = ap.parse_args(argv)

    if args.list_checks:
        for name in C.CHECK_NAMES:
            print(name)
        return 0

    selected = None
    if args.checks:
        selected = {c.strip() for c in args.checks.split(",") if c.strip()}
        unknown = selected - set(C.CHECK_NAMES)
        if unknown:
            print(f"pcc_analyze: unknown checks: {', '.join(sorted(unknown))}",
                  file=sys.stderr)
            return 2

    files = gather_files(args.paths, args.compile_commands)
    if not files:
        print("pcc_analyze: no input files", file=sys.stderr)
        return 2

    analyzer, findings = analyze_files(files)
    if selected is not None:
        findings = [f for f in findings if f.check in selected]
    active = [f for f in findings if not f.suppressed]
    for f in active:
        rel = _rel(f.path)
        print(f"{rel}:{f.line}:{f.col}: warning: [{f.check}] {f.message}")
    if args.json:
        write_report(args.json, files, findings, analyzer,
                     sorted(selected) if selected else list(C.CHECK_NAMES))
    if not args.quiet:
        nsup = sum(1 for f in findings if f.suppressed)
        print(f"pcc_analyze: {len(files)} files, {len(active)} finding(s), "
              f"{nsup} suppressed", file=sys.stderr)
    return 1 if active else 0


if __name__ == "__main__":
    sys.exit(main())
