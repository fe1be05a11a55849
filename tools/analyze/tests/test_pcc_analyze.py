"""Unit tests for pcc_analyze, driven by the fixture corpus.

Every check family has at least one positive fixture (each check fires at
the expected line) and one negative fixture (the analyzer stays silent on
disciplined code). The JSON report schema is pinned by a regression test.

Run directly (python3 -m unittest discover -s tools/analyze/tests) or via
the `analyze_selftest` CTest target.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
ANALYZE_DIR = os.path.dirname(TESTS_DIR)
FIXTURES = os.path.join(TESTS_DIR, "fixtures")

sys.path.insert(0, ANALYZE_DIR)

import checks  # noqa: E402
import pcc_analyze  # noqa: E402


def analyze(*names):
    files = [os.path.join(FIXTURES, n) for n in names]
    _, findings = pcc_analyze.analyze_files(files)
    return findings


def active(findings):
    return [f for f in findings if not f.suppressed]


def by_check(findings):
    return sorted(f.check for f in active(findings))


def line_text(name, line):
    with open(os.path.join(FIXTURES, name)) as f:
        return f.read().splitlines()[line - 1]


class SharedWriteTests(unittest.TestCase):
    def test_positive_fixture(self):
        findings = active(analyze("bad_shared_write.cpp"))
        self.assertEqual([f.check for f in findings], ["shared-write"] * 5)
        # raw scatter, alias scatter, one-deep callee, known writer,
        # compound assign — in file order.
        self.assertIn("D[x[i]] = 1;", line_text("bad_shared_write.cpp",
                                                findings[0].line))
        self.assertIn("d[x[i]] = 1;", line_text("bad_shared_write.cpp",
                                                findings[1].line))
        self.assertIn("bump(D, x[i]);", line_text("bad_shared_write.cpp",
                                                  findings[2].line))
        self.assertIn("memcpy", line_text("bad_shared_write.cpp",
                                          findings[3].line))
        self.assertIn("*total += i;", line_text("bad_shared_write.cpp",
                                                findings[4].line))

    def test_callee_resolution_names_the_helper(self):
        findings = active(analyze("bad_shared_write.cpp"))
        helper = [f for f in findings if "bump" in f.message]
        self.assertEqual(len(helper), 1)
        self.assertIn("parameter `p`", helper[0].message)

    def test_negative_fixture(self):
        findings = analyze("good_shared_write.cpp")
        self.assertEqual(findings, [],
                         msg="\n".join(f.message for f in findings))


class WitnessSpanTests(unittest.TestCase):
    """Witness-span discipline (src/core/decomp_arb_sf.cpp): a forest edge's
    identity depends on WHICH claim wins, so witness stores must be
    owner-indexed, atomic (the two-phase claim's write_min), or carry a
    validated private-write invariant. The fixtures mirror the pipeline's
    real store shapes."""

    def test_positive_fixture(self):
        findings = active(analyze("bad_witness_spans.cpp"))
        self.assertEqual([f.check for f in findings], ["shared-write"] * 4)
        # Raw stamp by target, check-then-write pair, one-deep helper —
        # in file order.
        self.assertIn("wit[x[i]] = static_cast<unsigned>(i);",
                      line_text("bad_witness_spans.cpp", findings[0].line))
        self.assertIn("C[w] = 1;",
                      line_text("bad_witness_spans.cpp", findings[1].line))
        self.assertIn("wit[w] = static_cast<unsigned>(i);",
                      line_text("bad_witness_spans.cpp", findings[2].line))
        self.assertIn("record(wit, x[i], static_cast<unsigned>(i));",
                      line_text("bad_witness_spans.cpp", findings[3].line))

    def test_negative_fixture(self):
        findings = analyze("good_witness_spans.cpp")
        self.assertEqual(findings, [],
                         msg="\n".join(f.message for f in findings))


class WorkerSlotTests(unittest.TestCase):
    """Per-worker-slot stores: a subscript that is exactly worker_id()
    (or a local holding it) pins the cell to one thread — the thread
    pool's parked-worker deque fields and per-worker counters are
    per-owner, not shared."""

    def test_negative_fixture(self):
        findings = analyze("good_worker_slots.cpp")
        self.assertEqual(findings, [],
                         msg="\n".join(f.message for f in findings))

    def test_positive_fixture(self):
        findings = active(analyze("bad_worker_slots.cpp"))
        self.assertEqual([f.check for f in findings], ["shared-write"] * 2)
        # worker_id() + i offset, then the derived (scaled) local —
        # arithmetic around the id is never exempt.
        self.assertIn("counts[pcc::parallel::worker_id() + i] = 1;",
                      line_text("bad_worker_slots.cpp", findings[0].line))
        self.assertIn("counts[base] = 1;",
                      line_text("bad_worker_slots.cpp", findings[1].line))


class SharedCursorTests(unittest.TestCase):
    def test_positive_fixture(self):
        findings = active(analyze("bad_shared_cursor.cpp"))
        self.assertEqual([f.check for f in findings],
                         ["shared-cursor-emission"] * 2)
        self.assertTrue(all("emit_pack" in f.message for f in findings))

    def test_negative_fixture(self):
        findings = analyze("good_emission.cpp")
        self.assertEqual(findings, [],
                         msg="\n".join(f.message for f in findings))


class WorkspaceEscapeTests(unittest.TestCase):
    def test_positive_fixture(self):
        findings = active(analyze("bad_workspace_escape.cpp"))
        got = by_check(findings)
        self.assertEqual(got.count("workspace-escape"), 2)
        self.assertEqual(got.count("workspace-take-in-parallel"), 1)
        returns = [f for f in findings if "returning" in f.message]
        self.assertEqual(len(returns), 1)
        out_params = [f for f in findings if "out-parameter" in f.message]
        self.assertEqual(len(out_params), 1)

    def test_negative_fixture(self):
        findings = analyze("good_workspace_escape.cpp")
        self.assertEqual(findings, [],
                         msg="\n".join(f.message for f in findings))


class HygieneTests(unittest.TestCase):
    def test_positive_fixture(self):
        findings = active(analyze("bad_hygiene.cpp"))
        got = by_check(findings)
        self.assertIn("std-function-in-parallel", got)
        self.assertIn("alloc-in-parallel", got)
        self.assertIn("rand-time-in-parallel", got)
        self.assertIn("hash-iteration-order", got)

    def test_registry_run_impl_is_scanned(self):
        findings = active(analyze("bad_hygiene.cpp"))
        hashes = [f for f in findings if f.check == "hash-iteration-order"]
        self.assertEqual(len(hashes), 1)
        self.assertIn("run_sum_labels", hashes[0].message)

    def test_negative_fixture(self):
        findings = analyze("good_hygiene.cpp")
        self.assertEqual(findings, [],
                         msg="\n".join(f.message for f in findings))


class AnnotationAuditTests(unittest.TestCase):
    def test_positive_fixture(self):
        findings = active(analyze("bad_annotations.cpp"))
        got = by_check(findings)
        self.assertIn("orphaned-annotation", got)
        self.assertIn("empty-annotation", got)
        self.assertIn("unused-suppression", got)
        self.assertEqual(len(got), 3)

    def test_suppressions_apply_and_count_as_used(self):
        findings = analyze("good_annotations.cpp")
        self.assertEqual(active(findings), [],
                         msg="\n".join(f.message for f in findings))
        suppressed = [f for f in findings if f.suppressed]
        # both the analyze: suppress and the legacy lint: allow spelling
        self.assertEqual([f.check for f in suppressed],
                         ["shared-write"] * 2)
        self.assertTrue(all(f.suppress_reason for f in suppressed))


class ReportSchemaTests(unittest.TestCase):
    """Pin the machine-readable report schema: tooling downstream (CI
    gating, trend dashboards) parses these exact keys."""

    TOP_KEYS = {"tool", "schema_version", "checks", "files_scanned",
                "findings", "suppressed", "annotations", "summary"}
    ROW_REQUIRED = {"file", "line", "col", "check", "message"}
    ROW_OPTIONAL = {"function", "region_line", "suppress_reason"}

    def _report(self, *names):
        files = [os.path.join(FIXTURES, n) for n in names]
        analyzer, findings = pcc_analyze.analyze_files(files)
        with tempfile.NamedTemporaryFile("r", suffix=".json",
                                         delete=False) as tmp:
            path = tmp.name
        try:
            pcc_analyze.write_report(path, files, findings, analyzer,
                                     list(checks.CHECK_NAMES))
            with open(path) as f:
                return json.load(f)
        finally:
            os.unlink(path)

    def test_top_level_schema(self):
        rep = self._report("bad_shared_write.cpp", "good_annotations.cpp")
        self.assertEqual(set(rep), self.TOP_KEYS)
        self.assertEqual(rep["tool"], "pcc_analyze")
        self.assertEqual(rep["schema_version"],
                         pcc_analyze.REPORT_SCHEMA_VERSION)
        self.assertEqual(rep["files_scanned"], 2)
        self.assertEqual(rep["checks"], list(checks.CHECK_NAMES))

    def test_finding_rows(self):
        rep = self._report("bad_shared_write.cpp", "good_annotations.cpp")
        self.assertEqual(len(rep["findings"]), rep["summary"]["findings"])
        self.assertEqual(len(rep["suppressed"]),
                         rep["summary"]["suppressed"])
        self.assertGreater(len(rep["findings"]), 0)
        self.assertGreater(len(rep["suppressed"]), 0)
        for row in rep["findings"] + rep["suppressed"]:
            self.assertTrue(self.ROW_REQUIRED <= set(row))
            self.assertTrue(set(row) <=
                            self.ROW_REQUIRED | self.ROW_OPTIONAL)
            self.assertIn(row["check"], checks.CHECK_NAMES)
            self.assertIsInstance(row["line"], int)
            self.assertIsInstance(row["col"], int)
        for row in rep["suppressed"]:
            self.assertIn("suppress_reason", row)

    def test_annotation_counters(self):
        rep = self._report("good_annotations.cpp")
        ann = rep["annotations"]
        self.assertEqual(set(ann),
                         {"private_write_total", "private_write_anchored"})
        self.assertEqual(ann["private_write_total"], 1)
        self.assertEqual(ann["private_write_anchored"], 1)


class CliTests(unittest.TestCase):
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, os.path.join(ANALYZE_DIR, "pcc_analyze.py"),
             *args],
            capture_output=True, text=True)

    def test_exit_zero_on_clean_input(self):
        r = self._run(os.path.join(FIXTURES, "good_shared_write.cpp"))
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertEqual(r.stdout, "")

    def test_exit_one_with_diagnostics_on_findings(self):
        r = self._run(os.path.join(FIXTURES, "bad_shared_write.cpp"))
        self.assertEqual(r.returncode, 1)
        first = r.stdout.splitlines()[0]
        # clang-style file:line:col: warning: [check] message
        self.assertRegex(first,
                         r"bad_shared_write\.cpp:\d+:\d+: warning: "
                         r"\[shared-write\] ")

    def test_exit_two_on_unknown_check(self):
        r = self._run("--checks", "no-such-check",
                      os.path.join(FIXTURES, "good_shared_write.cpp"))
        self.assertEqual(r.returncode, 2)

    def test_check_filter_narrows_output(self):
        r = self._run("--checks", "shared-cursor-emission",
                      os.path.join(FIXTURES, "bad_shared_cursor.cpp"),
                      os.path.join(FIXTURES, "bad_hygiene.cpp"))
        self.assertEqual(r.returncode, 1)
        lines = r.stdout.splitlines()
        self.assertEqual(len(lines), 2)
        self.assertTrue(all("[shared-cursor-emission]" in ln
                            for ln in lines))

    def test_list_checks_matches_catalog(self):
        r = self._run("--list-checks")
        self.assertEqual(r.returncode, 0)
        self.assertEqual(r.stdout.split(), list(checks.CHECK_NAMES))


if __name__ == "__main__":
    unittest.main()
