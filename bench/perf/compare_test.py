#!/usr/bin/env python3
"""Tests of compare.py's verdicts on synthetic records.

  compare_test.py
"""
import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402


def record(seed, scale, failed=0, attempted=100, only=None):
    """One untraced tech_point record: every metric, or only the one named,
    at scale x 100."""
    metrics = {}
    for name, m in compare.load_bench().items():
        k = scale if only in (None, name) else 1.0
        metrics[name] = {"value": 100.0 * k * (1 + 0.001 * seed),
                         "unit": m["unit"]}
    return {"workload": "tech_point", "seed": seed, "trace": 0,
            "attempted": attempted, "failed": failed,
            "result_digest": "00000000", "digest_items": 3, "metrics": metrics}


class CompareTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.dir.cleanup()

    def write(self, name, records):
        path = os.path.join(self.dir.name, name)
        with open(path, "w") as f:
            for r in records:
                f.write(json.dumps(r) + "\n")
        return path

    def run_cmd(self, *argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = compare.main(list(argv))
        return code, out.getvalue()

    def test_agree_accepts_the_same_runs(self):
        a = self.write("a", [record(s, 1.0) for s in range(1, 6)])
        b = self.write("b", [record(s, 1.0) for s in range(1, 6)])
        self.assertEqual(self.run_cmd("agree", a, b)[0], 0)

    def test_agree_fails_on_a_gap_in_either_direction(self):
        a = self.write("a", [record(s, 1.0) for s in range(1, 6)])
        for name in compare.load_bench():
            for scale in (0.5, 1.5):
                b = self.write("b", [record(s, scale, only=name)
                                     for s in range(1, 6)])
                self.assertEqual(self.run_cmd("agree", a, b)[0], 1,
                                 (name, scale))

    def verdicts(self, text):
        rows = [line.split() for line in text.splitlines()[1:]]
        return {row[1]: row[-2] for row in rows}

    def improved_metric(self, verdicts):
        bench = compare.load_bench()
        better = {n: m["better"] for n, m in bench.items()}
        # Every metric scaled down: an improvement only where lower is better.
        return [n for n, v in verdicts.items()
                if n in better and better[n] == "lower" and v == "improved"]

    def test_compare_claims_a_gain_with_ten_pairs(self):
        p = self.write("p", [record(s, 1.0) for s in range(1, 11)])
        c = self.write("c", [record(s, 0.5) for s in range(1, 11)])
        code, text = self.run_cmd("compare", p, c)
        self.assertTrue(self.improved_metric(self.verdicts(text)), text)
        self.assertEqual(self.verdicts(text)["failed_frac"], "unchanged")

    def test_compare_needs_ten_pairs(self):
        p = self.write("p", [record(s, 1.0) for s in range(1, 10)])
        c = self.write("c", [record(s, 0.5) for s in range(1, 10)])
        code, text = self.run_cmd("compare", p, c)
        self.assertEqual(code, 0)
        for name, v in self.verdicts(text).items():
            if name != "failed_frac":
                self.assertEqual(v, "unresolved", text)

    def test_compare_refuses_a_gain_with_more_failures(self):
        p = self.write("p", [record(s, 1.0) for s in range(1, 11)])
        c = self.write("c", [record(s, 0.5, failed=1) for s in range(1, 11)])
        code, text = self.run_cmd("compare", p, c)
        self.assertEqual(code, 1)
        self.assertFalse(self.improved_metric(self.verdicts(text)), text)
        self.assertEqual(self.verdicts(text)["failed_frac"], "regressed")


if __name__ == "__main__":
    unittest.main()
