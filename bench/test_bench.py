"""Tests of the benchmark's own arithmetic, wrapping and generators.

    python3 -m pytest bench/test_bench.py
"""

import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        log = spans.SpanLog()
        root = log.record("engine.run", -1, 0.0, 10.0)
        a = log.record("maintenance.run_cycle", root, 1.0, 5.0)
        log.record("model.neighbors", a, 2.0, 3.0)
        log.record("model.neighbors", a, 3.5, 4.0)
        log.record("routing.discover_route", root, 6.0, 9.0)
        st = spans.summarize(log)
        self.assertAlmostEqual(st["engine.run"].self_s, 10.0 - 4.0 - 3.0)
        self.assertAlmostEqual(st["maintenance.run_cycle"].self_s, 4.0 - 1.5)
        self.assertAlmostEqual(st["model.neighbors"].self_s, 1.5)
        self.assertEqual(st["model.neighbors"].calls, 2)
        self.assertAlmostEqual(sum(s.self_s for s in st.values()), 10.0)

    def test_reentrant_span_is_not_counted_twice(self):
        # handle_membership_change -> _cover_orphans -> itself
        log = spans.SpanLog()
        name = "maintenance.handle_membership_change"
        outer = log.record(name, -1, 0.0, 10.0)
        mid = log.record("clustering.weight_table", outer, 1.0, 9.0)
        inner = log.record(name, mid, 2.0, 6.0)
        log.record(name, inner, 3.0, 4.0)
        log.record("model.neighbors", inner, 4.0, 5.0)
        st = spans.summarize(log)
        hmc = st[name]
        self.assertEqual(hmc.calls, 3)
        # Inclusive time is the outermost span only.
        self.assertAlmostEqual(hmc.incl_s, 10.0)
        # Self: outer 10 - 8, inner 4 - 1 - 1, innermost 1.
        self.assertAlmostEqual(hmc.self_s, 2.0 + 2.0 + 1.0)
        self.assertAlmostEqual(st["clustering.weight_table"].self_s, 8.0 - 4.0)
        self.assertAlmostEqual(sum(s.self_s for s in st.values()), 10.0)
        for s in st.values():
            self.assertGreaterEqual(s.self_s, 0.0)

    def test_recorded_by_wrapping(self):
        ticks = iter(range(100))
        log = spans.SpanLog(clock=lambda: float(next(ticks)))

        def fact(n):
            return 1 if n <= 1 else n * wrapped(n - 1)
        wrapped = log.wrap("fact", fact, outcomes=True)
        self.assertEqual(wrapped(4), 24)
        st = spans.summarize(log)
        self.assertEqual(st["fact"].calls, 4)
        self.assertEqual(log.truthy["fact"], 4)
        # Each span starts and ends one tick apart from its child.
        self.assertAlmostEqual(st["fact"].incl_s, 7.0)
        self.assertAlmostEqual(st["fact"].self_s, 7.0)
        self.assertEqual(spans.child_counts(log, "fact", "fact"), [1, 1, 1, 0])

    def test_raised_calls_are_counted_and_closed(self):
        log = spans.SpanLog()

        def fail():
            raise KeyError("x")
        wrapped = log.wrap("f", fail, outcomes=True)
        with self.assertRaises(KeyError):
            wrapped()
        self.assertEqual(log.raised["f"], 1)
        self.assertGreaterEqual(log.end[0], log.start[0])
        self.assertEqual(log._stack, [])

    def test_tail_percentile_keeps_ten_samples_beyond(self):
        self.assertIsNone(spans.tail(list(range(19))))
        self.assertEqual(spans.tail(list(range(20)))[0], 50.0)
        self.assertEqual(spans.tail(list(range(100)))[0], 90.0)
        self.assertEqual(spans.tail(list(range(1000)))[0], 99.0)
        self.assertEqual(spans.tail([float(i) for i in range(1, 101)]),
                         (90.0, 90.0))


def _fail_check():
    import run
    run.check(False, "broken identity")


class Runner(unittest.TestCase):
    def test_forked_returns_result_and_peak_rss(self):
        import run
        result, rss_mb = run.forked(sorted, [3, 1, 2])
        self.assertEqual(result, [1, 2, 3])
        self.assertGreater(rss_mb, 1.0)

    def test_forked_reraises_failed_checks(self):
        import run
        with self.assertRaisesRegex(run.CheckFailed, "broken identity"):
            run.forked(_fail_check)
        with self.assertRaises(RuntimeError):
            run.forked(int, "not a number")

    def test_expected_attempts_counts_sends_inside_the_run(self):
        import run
        from antmanet.config import parse_scenario
        # 10 flows of 5 packets, 4 s apart, starting in [1, 4] s: all 50
        # sends fall inside the 20 s run.
        cfg = parse_scenario(workloads.dense(1, 50))
        self.assertEqual(run.expected_attempts(cfg), 50)
        cfg.duration = 17.0
        late = sum(1 for f in cfg.flows if f.start + 16.0 > 17.0)
        self.assertEqual(run.expected_attempts(cfg), 50 - late)
        self.assertGreater(late, 0)


class Patching(unittest.TestCase):
    def test_wraps_every_binding_and_restores(self):
        from antmanet import cli, engine, model, qos, routing
        originals = (qos.path_metrics, engine.format_record,
                     engine.energy_debit, model.NetworkState.neighbors)
        log = spans.SpanLog()
        undo = spans.patch(
            {"antmanet.qos:path_metrics": "qos.path_metrics",
             "antmanet.engine:format_record": "engine.format_record",
             "antmanet.engine:energy_debit": "engine.energy_debit",
             "antmanet.model:NetworkState.neighbors": "model.neighbors"},
            lambda name, fn: log.wrap(name, fn), "antmanet")
        try:
            # Names imported with `from x import f` are wrapped too.
            self.assertIsNot(routing.path_metrics, originals[0])
            self.assertIs(routing.path_metrics, qos.path_metrics)
            self.assertIs(cli.format_record, engine.format_record)
            self.assertIsNot(cli.format_record, originals[1])
            cli.format_record({"a": 1})
            stats = spans.summarize(log)
            self.assertEqual(stats["engine.format_record"].calls, 1)
        finally:
            spans.restore(undo)
        self.assertIs(qos.path_metrics, originals[0])
        self.assertIs(routing.path_metrics, originals[0])
        self.assertIs(cli.format_record, originals[1])
        self.assertIs(engine.format_record, originals[1])
        self.assertIs(engine.energy_debit, originals[2])
        self.assertIs(model.NetworkState.neighbors, originals[3])

    def test_every_layer_target_resolves(self):
        import layers
        log = spans.SpanLog()
        undo = spans.patch(layers.SPANS,
                           lambda arg, fn: log.wrap(arg[0], fn), "antmanet")
        self.assertGreaterEqual(len(undo), len(layers.SPANS))
        spans.restore(undo)
        self.assertEqual(layers.max_rounds(), 8)


class Generators(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        cases = [(workloads.soak, ()), (workloads.flood, (0,)),
                 (workloads.flood, (5,))]
        cases += [(workloads.dense, (n,)) for n in (50, 100, 200, 400)]
        for gen, extra in cases:
            with self.subTest(gen=gen.__name__, extra=extra):
                self.assertEqual(gen(3, *extra), gen(3, *extra))
                self.assertNotEqual(gen(3, *extra), gen(4, *extra))
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                self.assertEqual(workloads.scenarios(name, 2),
                                 workloads.scenarios(name, 2))
                self.assertNotEqual(workloads.scenarios(name, 2),
                                    workloads.scenarios(name, 3))

    def test_generated_scenarios_parse(self):
        from antmanet.config import parse_scenario
        soak = parse_scenario(workloads.soak(11))
        self.assertEqual(soak.seed, 11)
        self.assertEqual(sum(g.count for g in soak.groups), 50)
        for n in (50, 100, 200, 400):
            cfg = parse_scenario(workloads.dense(5, n))
            self.assertEqual(sum(g.count for g in cfg.groups), n)
            self.assertEqual(len(cfg.flows), n // 5)
        # Constant density: 50 nodes per 600 x 600 m.
        cfg = parse_scenario(workloads.dense(5, 200))
        self.assertEqual((cfg.arena.width, cfg.arena.height), (1200, 1200))
        self.assertEqual([g.count for g in cfg.groups], [140, 44, 16])
        flood = parse_scenario(workloads.flood(5, 1))
        levels = [p.max_level for p in flood.placements]
        self.assertEqual([levels.count(k) for k in (0, 1, 2)], [40, 40, 20])
        self.assertEqual(flood.cache.max_age, 0.5)
        self.assertFalse(flood.mobility.enabled)
        # The layout and its elections are fixed; the seed draws traffic.
        other = parse_scenario(workloads.flood(6, 1))
        self.assertEqual(other.placements, flood.placements)
        self.assertEqual(other.seed, flood.seed)
        self.assertNotEqual(other.flows, flood.flows)

    def test_batch_seeds_are_disjoint(self):
        seen = set()
        for seed in range(20):
            batch = workloads.batch_seeds(seed, 8)
            self.assertEqual(len(set(batch)), 8)
            self.assertFalse(seen & set(batch))
            seen |= set(batch)


if __name__ == "__main__":
    unittest.main()
