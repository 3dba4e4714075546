"""Tests of how the benchmark runs a command in a fork of its own process.

Run from the root of a lobdiff checkout:

    python3 -m pytest bench/test_run.py -q
"""

import os
import shutil
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


class FakeCli:
    """Stands in for ``lobdiff.cli``: `main` does whatever `action` does."""

    def __init__(self, action):
        self.main = action


def _raise(exc):
    def action(argv):
        raise exc

    return action


class RunForked(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.mkdtemp(prefix="bench-fork-")
        self.log = os.path.join(self.dir, "cmd.log")

    def tearDown(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def run_cli(self, action):
        wall, code = run.run_forked(FakeCli(action), ["cmd", "--flag"], self.log)
        self.assertGreater(wall, 0.0)
        with open(self.log, encoding="utf-8") as fh:
            return code, fh.read()

    def test_return_code_and_output(self):
        def action(argv):
            print("ran", " ".join(argv))
            return 1

        code, log = self.run_cli(action)
        self.assertEqual(code, 1)
        self.assertIn("ran cmd --flag", log)

    def test_exception_prints_traceback(self):
        code, log = self.run_cli(_raise(ValueError("boom")))
        self.assertEqual(code, 70)
        self.assertIn("Traceback (most recent call last)", log)
        self.assertIn("boom", log)

    def test_system_exit_keeps_its_code(self):
        code, _ = self.run_cli(_raise(SystemExit(2)))
        self.assertEqual(code, 2)

    def test_non_integer_result_is_a_failure(self):
        code, _ = self.run_cli(lambda argv: None)
        self.assertEqual(code, 70)


if __name__ == "__main__":
    unittest.main()
