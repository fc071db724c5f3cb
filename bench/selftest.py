"""Self-tests of the benchmark's tracer and gate (not part of tier-1).

    python3 bench/selftest.py

Runs every workload's ladder once, traced, in this process (about 20 s).
"""

from __future__ import annotations

import copy
import time
import types
import unittest

from ladders import LADDERS, build_checks, load_pins
from tracer import LAYERS, Tracer, install_layers, layer_metrics, metric_names
from worker import import_ospoly, run_ladder

ospoly = import_ospoly()
from ospoly import slices  # noqa: E402


def _traced_run(workload: str) -> tuple[Tracer, dict, list]:
    """One traced pass of a workload; returns the tracer, the pass result and
    the (owner, attr, original) patches it had in place."""
    tracer = Tracer()
    install_layers(tracer)
    patches = tracer.patched()
    try:
        result = run_ladder(build_checks(workload, 0, ospoly), load_pins(workload),
                            0, slices, tracer)
    finally:
        tracer.restore()
    return tracer, result, patches


class TracerTest(unittest.TestCase):
    def test_self_time_is_duration_minus_children(self):
        ns = types.SimpleNamespace()

        def inner():
            time.sleep(0.01)

        def outer():
            ns.inner()
            time.sleep(0.005)
            ns.inner()

        ns.inner, ns.outer = inner, outer
        tracer = Tracer()
        tracer.wrap(ns, "inner", "t.inner")
        tracer.wrap(ns, "outer", "t.outer")
        ns.outer()
        tracer.restore()
        self.assertIs(ns.inner, inner)
        self.assertIs(ns.outer, outer)
        spans = list(zip(tracer.name_id, tracer.parent, tracer.start, tracer.end))
        self.assertEqual(len(spans), 3)
        (_, root_parent, s0, e0), child_a, child_b = spans
        self.assertEqual(root_parent, -1)
        self.assertEqual([child_a[1], child_b[1]], [0, 0])
        children = sum(e - s for _, _, s, e in (child_a, child_b))
        summary = tracer.summary()
        self.assertAlmostEqual(summary["t.outer"]["self_s"], (e0 - s0) - children, places=12)
        self.assertAlmostEqual(summary["t.outer"]["incl_s"], e0 - s0, places=12)
        self.assertEqual(summary["t.inner"]["calls"], 2)
        self.assertGreater(summary["t.outer"]["self_s"], 0.004)

    def test_same_name_nesting_counts_inclusive_time_once(self):
        ns = types.SimpleNamespace()

        def rec(depth):
            return ns.rec(depth - 1) if depth else 0

        ns.rec = rec
        tracer = Tracer()
        tracer.wrap(ns, "rec", "t.rec")
        ns.rec(3)
        tracer.restore()
        agg = tracer.summary()["t.rec"]
        self.assertEqual(agg["calls"], 4)
        self.assertAlmostEqual(agg["incl_s"], tracer.end[0] - tracer.start[0], places=12)


class TracedLaddersTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.runs = {w: _traced_run(w) for w in LADDERS}

    def test_every_wrapped_attribute_is_restored(self):
        for workload, (_, _, patches) in self.runs.items():
            self.assertTrue(patches)
            for owner, attr, original in patches:
                self.assertIs(owner.__dict__[attr], original, f"{workload}: {owner}.{attr}")

    def test_from_imports_are_wrapped_too(self):
        _, _, patches = self.runs["series"]
        bound = {(getattr(o, "__name__", ""), a) for o, a, _ in patches}
        for name in ("rep_element", "osp_basis", "delta_eta", "monomial_weight"):
            self.assertIn(("ospoly.osp", name), bound)
            self.assertIn(("ospoly.slices", name), bound)

    def test_every_layer_count_is_nonzero_on_some_workload(self):
        metrics = {w: layer_metrics(t) for w, (t, _, _) in self.runs.items()}
        for layer, _, path in LAYERS:
            name = f"{layer}.{path}.calls"
            self.assertTrue(any(m[name] > 0 for m in metrics.values()), name)
        expected = set(metric_names()) - {"trace_overhead"}
        for m in metrics.values():
            self.assertEqual(set(m), expected)

    def test_traced_reports_match_the_pins(self):
        for workload, (_, result, _) in self.runs.items():
            self.assertEqual(result["failed"], 0, workload)
            self.assertEqual(result["attempted"], len(LADDERS[workload][1]))


class GateTest(unittest.TestCase):
    """A perturbed pinned report must count as a failed check."""

    def _run(self, pins, seed=0, workload="kernel"):
        checks = build_checks(workload, seed, ospoly)[:2]
        return run_ladder(checks, pins[:2], seed, slices)

    def test_unperturbed_reports_pass(self):
        self.assertEqual(self._run(load_pins("kernel"))["failed"], 0)

    def test_perturbed_field_is_counted(self):
        pins = copy.deepcopy(load_pins("kernel"))
        pins[0]["dims"][0]["dimH"] += 1
        self.assertEqual(self._run(pins)["failed"], 1)

    def test_perturbed_status_is_counted(self):
        pins = copy.deepcopy(load_pins("kernel"))
        pins[1]["status"] = "pass"
        self.assertEqual(self._run(pins)["failed"], 1)

    def test_seeded_checks_compare_status_only_at_other_seeds(self):
        pins = copy.deepcopy(load_pins("closure"))
        pins[0]["dims"][0]["seed"] = "perturbed"
        self.assertEqual(self._run(pins, seed=0, workload="closure")["failed"], 1)
        self.assertEqual(self._run(pins, seed=5, workload="closure")["failed"], 0)

    def test_raising_check_is_counted(self):
        checks = build_checks("kernel", 0, ospoly)[:1]
        checks[0].args = ("not a config",) + checks[0].args[1:]
        result = run_ladder(checks, load_pins("kernel")[:1], 0, slices)
        self.assertEqual(result["failed"], 1)


if __name__ == "__main__":
    unittest.main()
