"""Self-tests of the benchmark.  Run from the checkout root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import re
import tempfile
import unittest
from itertools import islice
from pathlib import Path

import checks
import run
import workloads


def _inputs(name: str, seed: int, count: int = 3) -> list[tuple]:
    return [
        (case.args, case.files)
        for cases in islice(workloads.rounds(workloads.WORKLOADS[name], seed), count)
        for case in cases
    ]


class Inputs(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for name in workloads.WORKLOADS:
            self.assertEqual(_inputs(name, 7), _inputs(name, 7), name)
            self.assertNotEqual(_inputs(name, 7), _inputs(name, 8), name)

    def test_family_rounds_keep_their_mix(self):
        for cases in islice(workloads.rounds(workloads.WORKLOADS["verify-topology"], 3), 5):
            kinds = sorted((c.expect["sparse"], c.expect["collinear"] >= 3) for c in cases)
            self.assertEqual(kinds, [(False, False)] * 5 + [(True, False)] + [(True, True)] * 2)
            self.assertEqual(sorted(c.expect["d"] for c in cases if not c.expect["sparse"]), [8, 9, 10, 11, 12])


def _corrupt_present(out: str) -> str:
    # Drop the first letter of the first non-trivial image.
    return re.sub(r"(delta\^-1\*x\d+\*delta = )x\d+(\^-1)?\*", r"\1", out, count=1)


def _corrupt_clusters(out: str) -> str:
    return re.sub(r"\}, 1\)", "}, 2)", out, count=1)


def _corrupt_orbits(out: str) -> str:
    doc = json.loads(out)
    doc["classes"][0]["degree"] = doc["exponent_mod_center"] + 1
    return json.dumps(doc, indent=2)


def _corrupt_topology(out: str) -> str:
    doc = json.loads(out)
    doc["oracle"]["braid"] = "b1*" + doc["oracle"]["braid"]
    return json.dumps(doc, indent=2)


CORRUPT = {
    "present-deep": (0, _corrupt_present),
    "clusters-flat": (0, _corrupt_clusters),
    "orbits": (4, _corrupt_orbits),
    "verify-topology": (1, _corrupt_topology),
}


class Checkers(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory(dir=run.ROOT)
        cls.inputs = run.Inputs(Path(cls.tmp.name))
        cls.goldens = json.loads(run.GOLDENS.read_text())

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def test_checkers_reject_corrupted_output(self):
        for name, (index, corrupt) in CORRUPT.items():
            case = workloads.WORKLOADS[name].make(index)
            outcome = run.run_command(self.inputs.argv(case), Path(self.tmp.name))
            self.assertEqual(run.judge(case, outcome, self.goldens), run.Verdict(True, False), name)
            bad = corrupt(outcome.stdout.decode())
            self.assertNotEqual(bad, outcome.stdout.decode(), name)
            with self.assertRaises(checks.CheckFailed, msg=name):
                checks.CHECKERS[name](bad, case.expect)

    def test_digest_catches_a_change_the_checker_allows(self):
        case = workloads.WORKLOADS["orbits"].make(4)
        outcome = run.run_command(self.inputs.argv(case), Path(self.tmp.name))
        outcome.stdout = json.dumps(json.loads(outcome.stdout)).encode()
        checks.check_orbits(outcome.stdout.decode(), case.expect)
        verdict = run.judge(case, outcome, self.goldens)
        self.assertFalse(verdict.ok)
        self.assertTrue(verdict.incorrect)

    def test_failing_command_counts_as_failed(self):
        case = workloads.WORKLOADS["present-deep"].make(0)
        argv = [a if not a.endswith(".json") else a + ".missing" for a in self.inputs.argv(case)]
        outcome = run.run_command(argv, Path(self.tmp.name))
        self.assertEqual(outcome.exit, 1)
        verdict = run.judge(case, outcome, self.goldens)
        self.assertFalse(verdict.ok)
        self.assertFalse(verdict.incorrect)


class Metrics(unittest.TestCase):
    def test_failure_lowers_ok_ratio_and_ranks_slowest(self):
        times = [0.05, 0.2, 0.3, 0.45]
        passed = run.summarize(times, [True] * 4)
        failed = run.summarize(times, [False, True, True, True])
        self.assertEqual((passed["cmd_s_p50"], passed["ok_per_s"], passed["ok_ratio"]), (0.25, 4.0, 1.0))
        self.assertEqual((failed["cmd_s_p50"], failed["ok_per_s"], failed["ok_ratio"]), (0.375, 3.0, 0.75))

    def test_median_on_failures_reads_as_total_time(self):
        self.assertEqual(run.summarize([0.5, 1.0, 2.5], [False, False, True])["cmd_s_p50"], 4.0)


if __name__ == "__main__":
    unittest.main()
