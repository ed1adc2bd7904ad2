"""Self-test of the benchmark harness, on the tiny inputs of every workload.

Run from the repository root::

    python3 perfbench/selftest.py

It checks that every metric named in BENCHMARK.json is emitted with its
unit, that an injected failure or a perturbed output is counted in the
failure ratio, that the traced spans nest and account for the traced pass
time, and that the untraced run installs no wrappers.  The file name keeps
it out of the package's own pytest collection.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from child import run_pass  # noqa: E402
from run import OUT_DIR  # noqa: E402
from spans import SITES, Tracer, check_nesting, installed_wrappers  # noqa: E402

workloads.import_package(ROOT)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def run_bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    if proc.returncode != 0:
        raise AssertionError(f"run.py failed ({proc.returncode}): {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    saved = next(ln.split(" ", 1)[1] for ln in lines if ln.startswith("saved "))
    with open(os.path.join(ROOT, saved), encoding="utf-8") as fh:
        full = json.load(fh)
    return proc.stdout, json.loads(lines[-1]), full


class EmittedMetrics(unittest.TestCase):
    def test_every_workload_untraced(self):
        wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                out, last, full = run_bench(workload, 0)
                self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(last["correct"], full["problems"])
                self.assertEqual(last["failed"], 0)
                self.assertGreaterEqual(last["attempted"], 1)
                self.assertEqual({k: v["unit"] for k, v in last["metrics"].items()}, wanted)
                for value in last["metrics"].values():
                    self.assertGreater(value["value"], 0)
                self.assertIn("fail_ratio", out)
                self.assertEqual(full["wrappers_in_untraced_passes"], [])
                for field in ("git_sha", "numpy", "blas", "nproc", "cpu_model", "seed"):
                    self.assertIn(field, full["provenance"])

    def test_every_workload_traced(self):
        wanted = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                _, last, full = run_bench(workload, 1)
                self.assertTrue(last["correct"], full["problems"])
                self.assertEqual({k: v["unit"] for k, v in last["metrics"].items()}, wanted)
                values = {k: v["value"] for k, v in last["metrics"].items()}
                layer_sum = sum(v for k, v in values.items() if k.startswith("layer."))
                self.assertAlmostEqual(layer_sum + values["trace.unattributed_s"],
                                       values["trace.pass_s"], places=6)
                traced = [p for p in full["passes"] if p.get("layers")]
                self.assertTrue(traced)
                for record in traced:
                    self.assertEqual(record["nesting_problems"], [])
                    self.assertEqual(len(record["wrappers"]), len(SITES))
                self.assertEqual(full["wrappers_in_untraced_passes"], [])


class InjectedFailures(unittest.TestCase):
    def setUp(self):
        os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(ROOT, OUT_DIR))

    def tearDown(self):
        import shutil

        shutil.rmtree(self.tmp)

    def test_clean_pass_has_no_failure(self):
        record = run_pass(workloads.prepare("figures", 0, "tiny"), self.tmp)
        self.assertEqual(record["failed"], 0, record["problems"])

    def test_perturbed_output_is_counted(self):
        from magsqueeze import cli

        original = cli.bessel_j0
        cli.bessel_j0 = lambda x: 1.001 * original(x)
        try:
            record = run_pass(workloads.prepare("figures", 0, "tiny"), self.tmp)
        finally:
            cli.bessel_j0 = original
        self.assertEqual(record["failed"], 1, record["problems"])
        self.assertIn("fig2a_couplings.csv", record["problems"][0])

    def test_perturbed_oracle_is_counted(self):
        from magsqueeze import couplings

        original = couplings.coupling_oracle
        couplings.coupling_oracle = lambda *a, **k: original(*a, **k) * (1 + 1e-4)
        try:
            prepared = workloads.prepare("oracle_check", 0, "tiny")
            record = run_pass(prepared, self.tmp)
        finally:
            couplings.coupling_oracle = original
        # the equal-time correlators are untouched
        self.assertEqual(record["failed"], len(workloads.ORACLE_CHANNELS) - 2)
        self.assertLess(record["failed"], record["attempted"])

    def test_failed_exit_code_and_exception_are_counted(self):
        from magsqueeze import cli

        original = cli.main
        calls = []

        def broken(argv):
            calls.append(argv)
            if len(calls) == 1:
                raise RuntimeError("injected")
            return 3

        cli.main = broken
        try:
            prepared = workloads.prepare("figures", 0, "tiny")
            record = run_pass(prepared, self.tmp)
        finally:
            cli.main = original
        self.assertEqual(record["failed"], record["attempted"])
        self.assertIn("raised RuntimeError", record["problems"][0])
        self.assertIn("exit code 3", record["problems"][1])


class Tracing(unittest.TestCase):
    def test_install_and_uninstall(self):
        self.assertEqual(installed_wrappers(), [])
        tracer = Tracer("selftest")
        tracer.install()
        try:
            self.assertEqual(len(installed_wrappers()), len(SITES))
        finally:
            tracer.uninstall()
        self.assertEqual(installed_wrappers(), [])

    def test_nesting_check_finds_a_child_outside_its_parent(self):
        good = [["a", 0.0, 3.0, -1], ["b", 1.0, 2.0, 0], ["c", 2.0, 2.5, 0]]
        self.assertEqual(check_nesting(good), [])
        bad = [["a", 0.0, 3.0, -1], ["b", 1.0, 4.0, 0]]
        self.assertTrue(check_nesting(bad))
        overlap = [["a", 0.0, 3.0, -1], ["b", 1.0, 2.0, 0], ["c", 1.5, 2.5, 0]]
        self.assertTrue(check_nesting(overlap))


if __name__ == "__main__":
    unittest.main()
