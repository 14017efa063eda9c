"""Self-tests of the benchmark's own arithmetic and correctness gate.

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

from __future__ import annotations

import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import quartile_spread, record_digests  # noqa: E402
from run import Tally, check_records  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402


class QuartileSpreadTest(unittest.TestCase):
    def test_quartile_spread(self):
        # quantiles(1..10, n=4) are 2.75, 5.5, 8.25
        self.assertAlmostEqual(quartile_spread(range(1, 11)), 1.0)
        self.assertEqual(quartile_spread([3.0] * 10), 0.0)

    def test_matches_exclusive_quartiles(self):
        values = [0.3, 7.0, 1.5, 2.25, 9.5, 4.0, 4.0, 0.1, 6.75, 3.3]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(quartile_spread(values), (q3 - q1) / q2)
        self.assertAlmostEqual(quartile_spread([2.0, 4.0]), 1.0)


class CorrectnessGateTest(unittest.TestCase):
    OUTPUT = b'{"mu": [1, 0]}\n{"mu": [2, 0]}\n{"summary": true}\n'

    def gate(self, data: bytes, rc: int = 0) -> Tally:
        tally = Tally()
        check_records(tally, record_digests(self.OUTPUT), data, rc)
        return tally

    def test_identical_output_passes(self):
        tally = self.gate(self.OUTPUT)
        self.assertEqual((tally.attempted, tally.failed), (3, 0))

    def test_one_byte_change_fails_one_operation(self):
        changed = bytearray(self.OUTPUT)
        changed[self.OUTPUT.index(b"2")] = ord("3")
        tally = self.gate(bytes(changed))
        self.assertEqual((tally.attempted, tally.failed), (3, 1))
        self.assertIn("record 1", tally.notes[0])

    def test_missing_and_extra_records_fail(self):
        self.assertEqual(self.gate(self.OUTPUT.split(b"\n", 1)[1]).failed, 3)
        self.assertEqual(self.gate(self.OUTPUT + b'{"x": 1}\n').failed, 1)

    def test_nonzero_exit_fails_every_record(self):
        self.assertEqual(self.gate(self.OUTPUT, rc=3).failed, 3)


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        # A runs 0..10 with children B (1..4) and C (5..6)
        tracer = Tracer(clock=iter([0.0, 1.0, 4.0, 5.0, 6.0, 10.0]).__next__)
        tracer.enter("A")
        tracer.enter("B")
        tracer.exit()
        tracer.enter("C")
        tracer.exit()
        tracer.exit()
        self.assertEqual(tracer.self_s, {"A": 6.0, "B": 3.0, "C": 1.0})
        self.assertEqual(tracer.under, {">A": 1, "A>B": 1, "A>C": 1})

    def test_wrapped_recursion_and_results(self):
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(ticks)))

        def countdown(n):
            return [] if n == 0 else [n] + traced(n - 1)

        traced = tracer.wrap("f", countdown, lambda t, r: t.counts.__setitem__(
            "items", t.counts["items"] + len(r)))
        self.assertEqual(traced(2), [2, 1])
        # spans f(2) 0..5, f(1) 1..4, f(0) 2..3: self 5-3 + 3-1 + 1
        self.assertEqual(tracer.self_s["f"], 5.0)
        self.assertEqual(tracer.calls["f"], 3)
        self.assertEqual(tracer.under["f>f"], 2)
        self.assertEqual(tracer.counts["items"], 3)

    def test_span_closes_on_exception(self):
        tracer = Tracer(clock=iter([0.0, 2.0]).__next__)

        def boom():
            raise KeyError("x")

        with self.assertRaises(KeyError):
            tracer.wrap("g", boom)()
        self.assertEqual((tracer.stack, tracer.self_s["g"]), ([], 2.0))

    def test_layer_metrics_ratios(self):
        empty = Tracer().snapshot()
        metrics = layer_metrics(empty, 0)
        self.assertEqual(metrics["oracle.pmu.yield"], (0.0, "ratio"))
        snap = {
            "self_s": {"oracle.pmu": 0.5},
            "calls": {"oracle.pmu": 2},
            "under": {"oracle.pmu>core.same_class_XG": 40,
                      "oracle.verify>levi.class_of": 10},
            "counts": {"pmu.points": 10, "lhs.classes": 4},
        }
        metrics = layer_metrics(snap, 7)
        self.assertEqual(metrics["oracle.pmu.ms"], (500.0, "ms"))
        self.assertEqual(metrics["oracle.pmu.yield"], (0.25, "ratio"))
        self.assertEqual(metrics["oracle.lhs.dedup"], (0.4, "ratio"))
        self.assertEqual(metrics["cli.serialize.bytes"], (7, "bytes"))


class HullSampleTest(unittest.TestCase):
    def test_seeded_and_deterministic(self):
        from probe import POINTS_PER_MU, HULL_MUS, hull_sample

        first = hull_sample(1)
        self.assertEqual(first, hull_sample(1))
        self.assertNotEqual(first, hull_sample(2))
        self.assertEqual(len(first), POINTS_PER_MU * len(HULL_MUS))
        for mu, x in first:
            if mu.kind.family.value == "A":
                self.assertEqual(sum(x), sum(mu.entries))
            self.assertTrue(all(v.denominator <= 4 for v in x))


if __name__ == "__main__":
    unittest.main()
