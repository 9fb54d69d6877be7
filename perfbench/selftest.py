"""Self-tests of the benchmark harness at toy sizes (N <= 4, short grids).

    python3 perfbench/selftest.py        # from the repository root

They check the harness, not the simulator: seeded inputs are reproducible,
every metric named in BENCHMARK.json is printed with its unit, a wrong
reference value is counted as a failed op, the trace wrappers leave the CSV
bodies byte-identical, and a trace target the program lacks is reported.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from setup_probe import parse_inputs  # noqa: E402
from tracing import Tracer  # noqa: E402

SWEEPS = ("pure_n6", "map_n2")


def toy_run(workload: str, trace: int, seed: int = 3) -> dict:
    args = argparse.Namespace(workload=workload, seed=seed, seconds=0.0, trace=trace)
    with contextlib.redirect_stdout(io.StringIO()):
        return run.run(args, toy=True)


class HarnessTest(unittest.TestCase):
    def test_seed_fixes_inputs(self):
        for name in wl.WORKERS:
            first = wl.as_json(name, wl.make_inputs(name, 7))
            self.assertEqual(first, wl.as_json(name, wl.make_inputs(name, 7)))
            self.assertNotEqual(first, wl.as_json(name, wl.make_inputs(name, 8)))
            self.assertEqual(wl.op_count(name, wl.make_inputs(name, 7)),
                             wl.op_count(name, wl.make_inputs(name, 8)))

    def test_every_metric_printed_with_unit(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(wl.WORKERS))
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            wanted = {m["name"]: m["unit"] for m in bench[key]}
            for name in wl.WORKERS:
                result = toy_run(name, trace)
                self.assertTrue(result["correct"], (name, trace))
                self.assertEqual(result["failed"], 0)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, wanted, (name, trace))

    def test_wrong_reference_counts_in_fail_frac(self):
        make_reference = wl.make_reference

        def perturbed(workload, inputs):
            reference = make_reference(workload, inputs)
            rows = reference["pt_alpha"]
            values, metrics = rows[0]
            rows[0] = (values, (metrics[0] + 1e-6,) + tuple(metrics[1:]))
            return reference

        wl.make_reference = perturbed
        try:
            result = toy_run("pure_n6", trace=1)
        finally:
            wl.make_reference = make_reference
        ops = wl.op_count("pure_n6", wl.make_inputs("pure_n6", 3, toy=True))
        # one untraced pass and one traced pass, each with one wrong row
        self.assertFalse(result["correct"])
        self.assertEqual((result["attempted"], result["failed"]), (2 * ops, 2))
        self.assertAlmostEqual(result["metrics"]["fail_frac"]["value"], 1.0 / ops)

    def test_trace_wrappers_keep_csv_bodies(self):
        out = os.path.join(ROOT, ".perfbench_out", "selftest")
        for name in SWEEPS:
            inputs = wl.make_inputs(name, 5, toy=True)
            parsed = parse_inputs(wl.as_json(name, inputs))
            plain = wl.run_pass(name, parsed, 1, os.path.join(out, name, "plain"))
            tracer = Tracer()
            with tracer.installed():
                traced = wl.run_pass(name, parsed, 1, os.path.join(out, name, "traced"))
            self.assertGreater(len(tracer.spans), 1)
            self.assertEqual(tracer.missing, [])
            for config in plain:
                with open(plain[config], "rb") as a, open(traced[config], "rb") as b:
                    body_a = [line for line in a if not line.startswith(b"#")]
                    body_b = [line for line in b if not line.startswith(b"#")]
                self.assertEqual(body_a, body_b, (name, config))

    def test_missing_trace_target_is_reported(self):
        targets = tracing.TARGETS
        tracing.TARGETS = targets + (
            ("qbattery.dense_linalg", "no_such_kernel", "dense_linalg.no_such_kernel", None),
            ("qbattery.no_such_module", "f", "no_such_module.f", None),
        )
        try:
            tracer = Tracer()
            with tracer.installed():
                pass
        finally:
            tracing.TARGETS = targets
        self.assertEqual(tracer.missing, ["qbattery.dense_linalg.no_such_kernel", "qbattery.no_such_module.f"])


if __name__ == "__main__":
    unittest.main()
