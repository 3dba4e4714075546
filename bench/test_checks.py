"""Tests of the benchmark's own checks and tracer.

Run from the root of a lobdiff checkout:

    python3 -m pytest bench/test_checks.py -q      (or python3 bench/test_checks.py)

The fixture runs the six CLI operations once at their small size (about
ten seconds). Each test then feeds one check a perturbed copy of a real
output and requires it to report the fault.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work", "test")
SEED = 7


def rewrite_csv(path, row, col, change):
    """Apply `change` to the float at data row `row`, column `col`."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    fields = lines[row + 1].split(",")
    fields[col] = repr(float(change(float(fields[col]))))
    lines[row + 1] = ",".join(fields)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def edit_json(path, change):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    change(doc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


class PerturbedOutputs(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        shutil.rmtree(WORK, ignore_errors=True)
        os.makedirs(WORK)
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        cls.cfg = {}
        tape = os.path.join(WORK, "simulate-lob")
        for op, _ in workloads.OPS:
            cfg = workloads.config_for(op, "small")
            cfg_path = os.path.join(WORK, f"{op}.json")
            if cfg is not None:
                with open(cfg_path, "w", encoding="utf-8") as fh:
                    json.dump(cfg, fh)
            cls.cfg[op] = cfg
            argv = workloads.argv_for(op, cfg_path, os.path.join(WORK, op), SEED, tape)
            proc = subprocess.run(
                [sys.executable, "-m", "lobdiff.cli"] + argv, env=env, capture_output=True
            )
            if proc.returncode not in (0, 1):
                raise RuntimeError(f"{op} exited {proc.returncode}: {proc.stderr.decode()}")

    def setUp(self):
        self.dirs = []

    def tearDown(self):
        for d in self.dirs:
            shutil.rmtree(d, ignore_errors=True)

    def copy(self, op):
        dst = os.path.join(WORK, f"{op}-{self._testMethodName}")
        shutil.copytree(os.path.join(WORK, op), dst)
        self.dirs.append(dst)
        return dst

    def check(self, op, out_dir):
        tape = os.path.join(WORK, "simulate-lob")
        return checks.check_op(op, out_dir, self.cfg[op], tape, self.cfg["simulate-lob"])[0]

    def assertCaught(self, op, out_dir, words):
        fails = self.check(op, out_dir)
        self.assertTrue(any(words in f for f in fails), f"no failure naming {words!r}: {fails}")

    def test_real_outputs_pass(self):
        for op, _ in workloads.OPS:
            with self.subTest(op=op):
                self.assertEqual(self.check(op, os.path.join(WORK, op)), [])

    # -- simulate-lob ------------------------------------------------------

    def test_queue_row_off_by_one_unit(self):
        d = self.copy("simulate-lob")
        rewrite_csv(os.path.join(d, "queues.csv"), 200, 1, lambda q: q + 1.0)
        self.assertCaught("simulate-lob", d, "moves")

    def test_queue_value_not_positive(self):
        d = self.copy("simulate-lob")
        rewrite_csv(os.path.join(d, "queues.csv"), 0, 2, lambda q: -q)
        self.assertCaught("simulate-lob", d, "<= 0")

    def test_missing_queue_row(self):
        d = self.copy("simulate-lob")
        path = os.path.join(d, "queues.csv")
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines[:-1])
        self.assertCaught("simulate-lob", d, "rows for")

    def test_price_step_missing(self):
        d = self.copy("simulate-lob")
        path = os.path.join(d, "prices.csv")
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines[:2] + lines[3:])
        self.assertCaught("simulate-lob", d, "price steps")

    def test_price_step_direction(self):
        d = self.copy("simulate-lob")
        rewrite_csv(os.path.join(d, "prices.csv"), 1, 1, lambda p: -p)
        self.assertCaught("simulate-lob", d, "directions")

    def test_summary_final_price(self):
        d = self.copy("simulate-lob")
        edit_json(
            os.path.join(d, "summary.json"),
            lambda s: s.update(final_price_ticks=s["final_price_ticks"] + 1),
        )
        self.assertCaught("simulate-lob", d, "final price")

    # -- estimate ----------------------------------------------------------

    def _estimate(self, key, change):
        d = self.copy("estimate")
        edit_json(os.path.join(d, "estimate_report.json"), lambda doc: change(doc["report"][key]))
        return d

    def test_rate_off_truth(self):
        d = self._estimate("lambda_a", lambda e: e.update(value=e["value"] * 1.2))
        self.assertCaught("estimate", d, "lambda_a")

    def test_mean_size_off_truth(self):
        d = self._estimate("vbar_b", lambda e: e.update(value=e["value"] + 0.2))
        self.assertCaught("estimate", d, "vbar_b")

    def test_size_variance_off_truth(self):
        d = self._estimate("v2_a", lambda e: e.update(value=e["value"] * 1.3))
        self.assertCaught("estimate", d, "v2_a")

    def test_rho_off_zero(self):
        d = self._estimate("rho", lambda e: e.update(value=0.3))
        self.assertCaught("estimate", d, "rho")

    def test_n_used_off_by_one(self):
        d = self._estimate("lambda_b", lambda e: e.update(n_used=e["n_used"] - 1))
        self.assertCaught("estimate", d, "n_used")

    # -- pup ---------------------------------------------------------------

    def _pup_cell(self, d, row, shift_se):
        """Move the MC column of `row` by `shift_se` s.e., away from the truth."""
        cfg = self.cfg["pup"]
        path = os.path.join(d, "pup_grid.csv")
        x, y = checks._table(path)[row, :2]
        p = checks.wedge_p_up(x, y, cfg["params"])
        se = math.sqrt(p * (1 - p) / cfg["n_paths"])
        rewrite_csv(path, row, 3, lambda mc: mc + math.copysign(shift_se * se, mc - p))

    def test_pup_cell_moved_six_se(self):
        d = self.copy("pup")
        self._pup_cell(d, 1, 6.0)
        self.assertCaught("pup", d, "s.e. from")

    def test_pup_mirror_pair(self):
        d = self.copy("pup")
        # Cells 1 and 2 are (1, 2) and (2, 1): push both up by 6 s.e.
        cfg = self.cfg["pup"]
        path = os.path.join(d, "pup_grid.csv")
        for row in (1, 2):
            x, y = checks._table(path)[row, :2]
            p = checks.wedge_p_up(x, y, cfg["params"])
            rewrite_csv(path, row, 3, lambda mc, p=p: mc + 6 * math.sqrt(p * (1 - p) / cfg["n_paths"]))
        self.assertCaught("pup", d, "want 1")

    def test_pup_analytic_column(self):
        d = self.copy("pup")
        rewrite_csv(os.path.join(d, "pup_grid.csv"), 0, 2, lambda a: a + 1e-9)
        self.assertCaught("pup", d, "wedge formula")

    # -- duration ----------------------------------------------------------

    def test_survival_value_raised(self):
        for op in ("duration", "duration-drift"):
            with self.subTest(op=op):
                d = self.copy(op)
                rewrite_csv(os.path.join(d, "duration_curve.csv"), 0, 1, lambda s: s + 1e-6)
                self.assertCaught(op, d, "product form")

    def test_survival_rises_with_t(self):
        d = self.copy("duration")
        path = os.path.join(d, "duration_curve.csv")
        first_mc = checks._table(path)[0, 2]
        rewrite_csv(path, 1, 2, lambda s: first_mc + 0.01)
        self.assertCaught("duration", d, "MC survival rises")

    def test_survival_mc_moved_six_se(self):
        d = self.copy("duration-drift")
        cfg = self.cfg["duration-drift"]
        path = os.path.join(d, "duration_curve.csv")
        t = checks._table(path)[0, 0]
        s = checks.product_survival(t, cfg["state"], cfg["params"])
        se = math.sqrt(s * (1 - s) / cfg["n_paths"])
        rewrite_csv(path, 0, 2, lambda mc: mc + math.copysign(6 * se, mc - s))
        self.assertCaught("duration-drift", d, "s.e. from")

    # -- validate-fclt -----------------------------------------------------

    def test_final_rung_ks(self):
        d = self.copy("validate-fclt")
        edit_json(os.path.join(d, "fclt_report.json"), lambda doc: doc["rows"][-1].update(ks_ask=0.5))
        self.assertCaught("validate-fclt", d, "ks_ask")

    def test_terminal_means_disagree(self):
        d = self.copy("validate-fclt")
        edit_json(
            os.path.join(d, "fclt_report.json"),
            lambda doc: doc["queue_check"]["discrete_mean"].__setitem__(0, 5.0),
        )
        self.assertCaught("validate-fclt", d, "terminal bid mean")


class Tracer(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [
            ["cli.pup", 0.0, 10.0, None, {}],
            ["analytics.prob_up_mc", 1.0, 9.0, 0, {}],
            ["diffusion.first_hits", 2.0, 8.0, 1, {"paths": 600}],
        ]
        m = tracing.layer_metrics(spans, 0.5)
        self.assertEqual(m["cli.self_s"], 2.0)
        self.assertEqual(m["analytics.prob_up_mc_self_s"], 2.0)
        self.assertEqual(m["diffusion.first_hits_s"], 6.0)
        self.assertEqual(m["diffusion.paths_per_s"], 100.0)
        self.assertEqual(m["book.replay_calls"], 0)
        self.assertEqual(set(m), set(tracing.METRIC_NAMES))

    def test_patching_is_undone(self):
        sys.path.insert(0, os.path.join(ROOT, "src"))
        import lobdiff.cli

        original = lobdiff.cli.replay
        tracer = tracing.Tracer()
        with tracer.patched():
            self.assertIsNot(lobdiff.cli.replay, original)
            self.assertIs(lobdiff.cli.replay.__wrapped__, original)
        self.assertIs(lobdiff.cli.replay, original)


if __name__ == "__main__":
    unittest.main()
