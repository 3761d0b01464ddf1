"""The cached topology snapshot against a brute-force full-scan reference.

``BruteForceState`` derives every neighbor set and link from scratch on
each call, as ``NetworkState`` did before it cached a grid-built adjacency
and memoised link attributes per topology version.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antmanet import engine
from antmanet.config import (Arena, EnergyCosts, FlowConfig, MobilityConfig,
                             NodeGroup, ScenarioConfig)
from antmanet.engine import format_record, run_scenario
from antmanet.model import (LinkAttributes, NetworkState, NodeAttributes,
                            link_expiration_time)

LEVELS = (0, 1, 2)


def _in_range(a, b, level):
    (ax, ay), (bx, by) = a.position, b.position
    if not all(math.isfinite(v) for v in (ax, ay, bx, by)):
        raise ValueError("non-finite coordinate")
    return math.hypot(ax - bx, ay - by) <= min(a.range_at(level),
                                               b.range_at(level))


class BruteForceState(NetworkState):
    """Rescans every node on every call; caches nothing but the jitter."""

    def neighbors(self, nid, level):
        attrs = self.node(nid)
        if not attrs.supports(level) or not attrs.alive:
            return frozenset()
        out = set()
        for mid, m in self.nodes.items():
            if (mid != nid and m.alive and m.supports(level)
                    and _in_range(attrs, m, level)):
                out.add(mid)
        return frozenset(out)

    def linked(self, a, b, level):
        na, nb = self.node(a), self.node(b)
        if not (na.alive and nb.alive and na.supports(level)
                and nb.supports(level)):
            return False
        return _in_range(na, nb, level)

    def link(self, a, b, level=None):
        if level is None:
            level = self.link_level(a, b)
            if level is None:
                return None
        elif not self.linked(a, b, level):
            return None
        lo, hi = (a, b) if a < b else (b, a)
        delay, bandwidth = self._overrides.get((lo, hi, level), (None, None))
        if delay is None:
            delay = self.link_delay[level] * self._jitter(a, b, level, "d")
        if bandwidth is None:
            bandwidth = self.link_bandwidth[level] * self._jitter(a, b, level, "b")
        na, nb = self.node(a), self.node(b)
        rng = min(na.range_at(level), nb.range_at(level))
        return LinkAttributes(delay=delay, bandwidth=bandwidth,
                              let=link_expiration_time(na, nb, rng))


def _populate(states, nodes):
    for state in states:
        for nid, kw in nodes:
            state.add_node(nid, NodeAttributes(**kw))


def _random_nodes(rng, n, span):
    """Mixed levels and per-node ranges, negative coordinates, some dead."""
    nodes = []
    for nid in rng.sample(range(10 * n), n):
        level = rng.choice(LEVELS)
        r0 = rng.uniform(1.0, span)
        ranges = [r0]
        for _ in range(level):
            ranges.append(ranges[-1] * rng.uniform(1.1, 3.0))
        nodes.append((nid, dict(
            position=(rng.uniform(-span, span), rng.uniform(-span, span)),
            velocity=(rng.uniform(-3, 3), rng.uniform(-3, 3)),
            max_level=level, tx_range=tuple(ranges),
            alive=rng.random() > 0.15)))
    return nodes


def _assert_same_topology(real, ref):
    ids = list(ref.nodes)
    for level in LEVELS:
        for a in ids:
            expected = ref.neighbors(a, level)
            got = real.neighbors(a, level)
            assert got == expected
            # Same set built in the same order iterates in the same order,
            # which callers summing floats over the set rely on.
            assert list(got) == list(expected)
            for b in ids:
                assert real.linked(a, b, level) == ref.linked(a, b, level)
                assert real.link(a, b, level) == ref.link(a, b, level)
    for a in ids:
        for b in ids:
            assert real.link_level(a, b) == ref.link_level(a, b)
            assert real.link(a, b) == ref.link(a, b)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30),
       span=st.sampled_from([5.0, 100.0, 400.0, 5000.0]))
def test_random_layouts_match_brute_force(seed, n, span):
    rng = random.Random(seed)
    nodes = _random_nodes(rng, n, span)
    real, ref = NetworkState(link_jitter=0.3, seed=seed), \
        BruteForceState(link_jitter=0.3, seed=seed)
    _populate((real, ref), nodes)
    _assert_same_topology(real, ref)


def test_range_larger_than_arena():
    rng = random.Random(5)
    nodes = [(i, dict(position=(rng.uniform(0, 10), rng.uniform(-10, 0)),
                      max_level=1, tx_range=(1e4, 2e4)))
             for i in range(12)]
    real, ref = NetworkState(), BruteForceState()
    _populate((real, ref), nodes)
    _assert_same_topology(real, ref)
    assert all(len(real.neighbors(i, 0)) == 11 for i in real.nodes)


def test_pairs_at_exact_range_across_cell_borders():
    # Each pair sits exactly at its range, straddling a multiple of the
    # range (a would-be cell border), so the cell index rounds at the edge.
    nodes = [(0, dict(position=(-1e-20, 0.0), tx_range=(100.0,))),
             (1, dict(position=(100.0, 0.0), tx_range=(100.0,))),
             (2, dict(position=(0.0, -1e-20), tx_range=(100.0,))),
             (3, dict(position=(0.0, 100.0), tx_range=(100.0,))),
             (4, dict(position=(-300.0, 0.0), tx_range=(100.0,))),
             (5, dict(position=(-200.0, 0.0), tx_range=(100.0,))),
             (6, dict(position=(-400.0, 300.0), tx_range=(50.0,))),
             (7, dict(position=(-350.0, 300.0), tx_range=(100.0,)))]
    real, ref = NetworkState(), BruteForceState()
    _populate((real, ref), nodes)
    _assert_same_topology(real, ref)
    assert real.neighbors(0, 0) == {1, 2, 3}
    assert real.neighbors(4, 0) == {5}
    assert real.neighbors(6, 0) == {7}


def test_self_link_matches_full_scan():
    nodes = [(0, dict(position=(0.0, 0.0))),
             (1, dict(position=(1.0, 0.0), alive=False)),
             (2, dict(position=(5.0, 0.0), max_level=1,
                      tx_range=(100.0, 250.0)))]
    real, ref = NetworkState(), BruteForceState()
    _populate((real, ref), nodes)
    for nid in real.nodes:
        for level in LEVELS:
            assert real.linked(nid, nid, level) == ref.linked(nid, nid, level)
            assert real.link(nid, nid, level) == ref.link(nid, nid, level)
    assert real.linked(0, 0, 0) and not real.linked(1, 1, 0)


def test_link_follows_position_change_after_touch():
    s = NetworkState()
    s.add_node(0, NodeAttributes(position=(0.0, 0.0), tx_range=(100.0,)))
    s.add_node(1, NodeAttributes(position=(50.0, 0.0), velocity=(1.0, 0.0),
                                 tx_range=(100.0,)))
    assert s.link(0, 1, 0).let == pytest.approx(50.0)
    s.nodes[1].position = (80.0, 0.0)
    s.touch()
    assert s.link(0, 1, 0).let == pytest.approx(20.0)
    assert s.link(1, 0).let == s.link(0, 1, 0).let
    s.nodes[1].position = (150.0, 0.0)
    s.touch()
    assert s.link(0, 1, 0) is None
    assert s.link(0, 1) is None
    assert s.neighbors(0, 0) == frozenset()


def test_link_follows_pinned_params():
    s = NetworkState()
    s.add_node(0, NodeAttributes(position=(0.0, 0.0)))
    s.add_node(1, NodeAttributes(position=(10.0, 0.0)))
    assert s.link(0, 1, 0).delay == s.link_delay[0]
    s.set_link_params(1, 0, 0, delay=0.5, bandwidth=7.0)
    assert (s.link(0, 1, 0).delay, s.link(0, 1, 0).bandwidth) == (0.5, 7.0)


def test_energy_change_needs_no_touch():
    rng = random.Random(13)
    nodes = _random_nodes(rng, 25, 300.0)
    real, ref = NetworkState(), BruteForceState()
    _populate((real, ref), nodes)
    _assert_same_topology(real, ref)
    for state in (real, ref):
        for nid, attrs in state.nodes.items():
            attrs.energy = (nid * 7919) % 100 / 3.0
    _assert_same_topology(real, ref)


def test_link_attributes_are_frozen():
    s = NetworkState()
    s.add_node(0, NodeAttributes(position=(0.0, 0.0)))
    s.add_node(1, NodeAttributes(position=(10.0, 0.0)))
    with pytest.raises(AttributeError):
        s.link(0, 1, 0).delay = 1.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_position_raises(bad):
    s = NetworkState()
    s.add_node(0, NodeAttributes(position=(0.0, 0.0)))
    s.add_node(1, NodeAttributes(position=(bad, 0.0)))
    with pytest.raises(ValueError):
        s.neighbors(0, 0)
    s.nodes[1].position = (1.0, bad)
    s.touch()
    with pytest.raises(ValueError):
        s.neighbors(1, 0)


def _mobile_energy_config():
    # Level-0 nodes start nearly drained, so beacon costs kill some of
    # them mid-run and their deaths must change the topology.
    return ScenarioConfig(
        seed=21, duration=60.0, arena=Arena(500, 500),
        groups=[NodeGroup(count=30, max_level=0, energy=0.008),
                NodeGroup(count=20, max_level=1),
                NodeGroup(count=10, max_level=2)],
        mobility=MobilityConfig(enabled=True, speed_min=1.0, speed_max=6.0,
                                pause=1.0),
        energy_costs=EnergyCosts(tx_packet=0.002, tx_bit=1e-7,
                                 rx_packet=0.001, rx_bit=5e-8,
                                 beacon=0.0002),
        flows=[FlowConfig(src=s, dst=d, start=1.0 + i, packets=10,
                          interval=4.0)
               for i, (s, d) in enumerate([(0, 59), (31, 45), (50, 12),
                                           (5, 40), (22, 55), (33, 58)])])


def _run_trace(monkeypatch, state_cls):
    monkeypatch.setattr(engine, "NetworkState", state_cls)
    lines = []
    summary = run_scenario(_mobile_energy_config(),
                           trace=lambda r: lines.append(format_record(r)))
    return "\n".join(lines), summary


def test_trace_matches_brute_force(monkeypatch):
    fast, fast_stats = _run_trace(monkeypatch, NetworkState)
    brute, brute_stats = _run_trace(monkeypatch, BruteForceState)
    assert fast_stats["deaths"] > 0
    assert fast_stats["packets_delivered"] > 0
    assert fast_stats == brute_stats
    assert fast == brute
