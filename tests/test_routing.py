import math
import random

import pytest

from antmanet.errors import NoAdmissibleRouteError, NoRouteError
from antmanet.qos import DepositParams, PathMetrics, path_metrics
from antmanet.routing import (PheromoneTable, PreferenceParams,
                              QosRequirement, RouteCache, RouteCacheEntry,
                              path_preference_probability)

from helpers import (DEFAULTS, add_node, line_state, make_router, make_state,
                     manual_clusters)


def metrics(delay=1.0, bw=2.0, energy=3.0, let=4.0, hops=2):
    return PathMetrics(delay=delay, bandwidth=bw, energy=energy, let=let,
                       hop_count=hops)


class TestPreferenceProbability:
    def test_singleton(self):
        probs = path_preference_probability([(7, metrics(), 1.0)])
        assert probs == {7: 1.0}

    def test_symmetry(self):
        probs = path_preference_probability(
            [(1, metrics(), 2.0), (2, metrics(), 2.0)])
        assert probs[1] == pytest.approx(0.5)
        assert probs[2] == pytest.approx(0.5)

    def test_random_matches_product_oracle(self):
        rng = random.Random(21)
        p = PreferenceParams()
        for _ in range(100):
            cands = []
            for j in range(3):
                m = metrics(delay=rng.uniform(0.1, 5), bw=rng.uniform(0.1, 5),
                            energy=rng.uniform(0.1, 5),
                            let=rng.uniform(0.1, 5), hops=rng.randint(1, 6))
                cands.append((j, m, rng.uniform(0.1, 5)))
            probs = path_preference_probability(cands, p)
            scores = {}
            for j, m, tau in cands:
                scores[j] = (tau * (1.0 / m.delay) * (1.0 / m.hop_count)
                             * m.bandwidth * m.energy * m.let)
            total = sum(scores.values())
            for j in scores:
                assert probs[j] == pytest.approx(scores[j] / total, abs=1e-9)
            assert sum(probs.values()) == pytest.approx(1.0, abs=1e-9)

    def test_empty_candidates_rejected(self):
        with pytest.raises(NoRouteError):
            path_preference_probability([])

    def test_all_degenerate_rejected(self):
        with pytest.raises(NoAdmissibleRouteError):
            path_preference_probability([(1, metrics(bw=0.0), 0.0)])


class TestPheromoneTable:
    def test_zero_deposit_only_evaporates(self):
        t = PheromoneTable(q=0.5, initial=DEFAULTS.pheromone.initial)
        t.deposit(1, 9, 1.0)
        before = t.get(1, 9)
        t.deposit(1, 9, 0.0)
        assert t.get(1, 9) == pytest.approx(0.5 * before)

    def test_direct_substitution(self):
        t = PheromoneTable(q=0.5, initial=1.0)
        t.deposit(3, 9, 2.0)
        assert t.get(3, 9) == pytest.approx(2.5)

    def test_repeated_deposits_converge_to_ratio(self):
        t = PheromoneTable(q=0.25, initial=1.0)
        for _ in range(100):
            t.deposit(3, 9, 2.0)
        assert t.get(3, 9) == pytest.approx(2.0 / 0.25, abs=1e-6)

    def test_evaporate_full(self):
        t = PheromoneTable(q=1.0, initial=DEFAULTS.pheromone.initial)
        t.entries[(1, 2)] = 5.0
        t.evaporate()
        assert t.get(1, 2) == 0.0

    def test_evaporate_substitution(self):
        t = PheromoneTable(q=0.25, initial=DEFAULTS.pheromone.initial)
        t.entries[(1, 2)] = 4.0
        t.evaporate()
        assert t.get(1, 2) == pytest.approx(3.0)

    def test_evaporate_closed_form(self):
        t = PheromoneTable(q=0.1, initial=DEFAULTS.pheromone.initial)
        t.entries[(1, 2)] = 7.0
        for _ in range(12):
            t.evaporate()
        assert t.get(1, 2) == pytest.approx(7.0 * 0.9 ** 12, abs=1e-12)


def test_ant_trace_records():
    """Exact packet dicts of the route, knave reply and king reply ants.

    Two level-0 clusters, heads 10 and 20, under level-1 head 20.  Members
    0 and 1 of cluster 10 are out of each other's range, so 0 -> 1 floods
    inside the cluster; 0 -> 3 crosses the level-1 overlay.
    """
    state = make_state()
    add_node(state, 0, (-80.0, 0.0), energy=90.0)
    add_node(state, 10, (0.0, 0.0), level=1)
    add_node(state, 1, (80.0, 0.0), energy=80.0)
    add_node(state, 20, (200.0, 0.0), level=1, energy=70.0)
    add_node(state, 3, (280.0, 0.0))
    clusters = manual_clusters({0: {10: {0, 1}, 20: {3}}, 1: {20: {10}},
                                2: {}})
    records = []
    r = make_router(state, clusters, trace=records.append)
    r.discover_route(0, 1, now=1.0)
    r.discover_route(0, 3, now=2.0)
    ants = [(rec["kind"], rec["t"], rec["packet"]) for rec in records
            if rec["kind"] != "route_selected"]
    assert ants == [
        ("route_ant", 1.0, {"src": 0, "dst": 10, "flag": 0}),
        ("route_ant", 1.0, {"src": 10, "dst": 0, "flag": 1}),
        ("reply_knave_ant", 1.0, {
            "hop_count": 3, "delay": 0.004 + 0.003, "energy": 80.0,
            "let": math.inf, "bandwidth": 2e6,
            "src_member": 0, "dst_member": 1, "to_visit": [1, 10, 0]}),
        ("route_ant", 2.0, {"src": 0, "dst": 10, "flag": 0}),
        ("route_ant", 2.0, {"src": 10, "dst": 20, "flag": 0}),
        ("route_ant", 2.0, {"src": 20, "dst": 10, "flag": 1}),
        ("reply_king_ant", 2.0, {
            "hop_count": 2, "delay": 0.0015 + 0.002, "energy": 70.0,
            "let": math.inf, "bandwidth": 5e6,
            "src_head": 10, "dst_head": 20, "to_visit": [20, 10]}),
    ]


class TestAnts:
    @staticmethod
    def replies(state, level, src, dst, kind):
        records = []
        r = make_router(state, manual_clusters({0: {}}), trace=records.append)
        r._flood(state.nodes, level, src, dst, now=0.0, kind=kind)
        return [rec for rec in records if rec["kind"].startswith("reply_")]

    def test_reply_retraces_in_reverse(self):
        # Four level-1 heads 200 apart: each reaches only its neighbours.
        state = make_state()
        for i in range(1, 5):
            add_node(state, i, (i * 200.0, 0.0), level=1)
        [rec] = self.replies(state, 1, 1, 4, "king")
        assert rec["kind"] == "reply_king_ant"
        assert rec["packet"]["to_visit"] == [4, 3, 2, 1]
        assert rec["packet"]["src_head"] == 1
        assert rec["packet"]["dst_head"] == 4

    def test_knave_reply_fields(self):
        # A line 0 - 1 - 2 whose middle node drifts, so the LET is finite.
        state = make_state()
        for nid, energy, vel in ((0, 9.0, (0.0, 0.0)), (1, 30.0, (5.0, 0.0)),
                                 (2, 20.0, (0.0, 0.0))):
            add_node(state, nid, (nid * 80.0, 0.0), energy=energy, vel=vel)
        [rec] = self.replies(state, 0, 0, 2, "knave")
        assert rec["kind"] == "reply_knave_ant"
        m = path_metrics((0, 1, 2), state, levels=(0, 0))
        assert math.isfinite(m.let)
        p = rec["packet"]
        assert (p["delay"], p["bandwidth"], p["energy"], p["let"],
                p["hop_count"]) == (m.delay, m.bandwidth, 9.0, m.let, 3)
        assert (p["src_member"], p["dst_member"]) == (0, 2)
        assert p["to_visit"] == [2, 1, 0]


class TestRouteCache:
    def entry(self, dst=9, pref=0.5, expires=10.0, path=(1, 2, 9)):
        return RouteCacheEntry(destination=dst, path=path,
                               levels=(0,) * (len(path) - 1),
                               metrics=metrics(), preference=pref,
                               expires_at=expires)

    def test_empty_lookup(self):
        assert RouteCache(DEFAULTS.cache.capacity).lookup(9, 0.0) is None

    def test_max_preference_wins(self):
        c = RouteCache(DEFAULTS.cache.capacity)
        c.insert(self.entry(pref=0.3, path=(1, 9)))
        c.insert(self.entry(pref=0.6, path=(1, 2, 9)))
        assert c.lookup(9, 0.0).preference == 0.6

    def test_expired_skipped(self):
        c = RouteCache(DEFAULTS.cache.capacity)
        c.insert(self.entry(expires=5.0))
        assert c.lookup(9, 6.0) is None

    def test_eviction_by_earliest_expiry(self):
        c = RouteCache(capacity=2)
        c.insert(self.entry(expires=1.0, pref=0.9))
        c.insert(self.entry(expires=9.0, pref=0.1))
        c.insert(self.entry(expires=5.0, pref=0.2))
        assert len(c.entries) == 2
        assert all(e.expires_at != 1.0 for e in c.entries)

    def test_qos_filter(self):
        c = RouteCache(DEFAULTS.cache.capacity)
        c.insert(self.entry())
        strict = QosRequirement(min_bandwidth=100.0)
        assert c.lookup(9, 0.0, strict) is None


def single_cluster_line(n=5):
    state = line_state(n)
    clusters = manual_clusters({0: {2: set(range(n)) - {2}}, 1: {}, 2: {}})
    return state, clusters


class TestDiscovery:
    def test_direct_neighbor_no_ants(self):
        state = line_state(3)
        clusters = manual_clusters({0: {1: {0, 2}}, 1: {}, 2: {}})
        r = make_router(state, clusters, deposit=DepositParams())
        path, m = r.discover_route(0, 1, now=0.0)
        assert path == [0, 1]
        assert r.stats["route_ants"] == 0
        assert r.stats["request_forwards"] == 0

    def test_intra_cluster_line_unique_path(self):
        state, clusters = single_cluster_line(5)
        r = make_router(state, clusters, deposit=DepositParams())
        path, m = r.discover_route(0, 4, now=0.0)
        assert path == [0, 1, 2, 3, 4]
        ref = path_metrics((0, 1, 2, 3, 4), state, levels=(0,) * 4)
        assert m.delay == pytest.approx(ref.delay)
        assert m.bandwidth == ref.bandwidth
        assert r.stats["route_ants"] >= 1

    def test_unreachable_raises_no_route(self):
        state = make_state()
        add_node(state, 0, (0, 0))
        add_node(state, 1, (0, 5))
        add_node(state, 2, (1000, 1000))
        clusters = manual_clusters({0: {0: {1}, 2: set()}, 1: {}, 2: {}})
        r = make_router(state, clusters)
        with pytest.raises(NoRouteError):
            r.discover_route(0, 2, now=0.0)

    def test_qos_floor_violation_distinct_error(self):
        state, clusters = single_cluster_line(4)
        r = make_router(state, clusters)
        qos = QosRequirement(min_bandwidth=1e12)
        with pytest.raises(NoAdmissibleRouteError):
            r.discover_route(0, 3, qos=qos, now=0.0)

    def test_admission_soundness(self):
        state, clusters = single_cluster_line(5)
        r = make_router(state, clusters, deposit=DepositParams())
        qos = QosRequirement(min_bandwidth=1e5, min_energy=1.0,
                             min_let=0.0, max_delay=1.0)
        path, m = r.discover_route(0, 4, qos=qos, now=0.0)
        ref = path_metrics(tuple(path), state, levels=(0,) * (len(path) - 1))
        assert ref.bandwidth >= qos.min_bandwidth
        assert ref.energy >= qos.min_energy
        assert ref.delay <= qos.max_delay

    def test_cache_round_trip(self):
        state, clusters = single_cluster_line(5)
        r = make_router(state, clusters, deposit=DepositParams())
        p1, _ = r.discover_route(0, 4, now=0.0)
        p2, _ = r.discover_route(0, 4, now=0.1)
        assert p1 == p2
        assert r.stats["cache_hits"] == 1


def two_region_world(cross_region):
    """Two level-0 clusters; heads 10 and 20 are level-2 capable."""
    state = make_state()
    add_node(state, 10, (0.0, 0.0), level=2)
    add_node(state, 0, (-30.0, 0.0))
    add_node(state, 1, (30.0, 0.0))
    add_node(state, 20, (400.0, 0.0), level=2)
    add_node(state, 3, (430.0, 0.0))
    add_node(state, 4, (370.0, 0.0))
    levels = {0: {10: {0, 1}, 20: {3, 4}}}
    if cross_region:
        # Heads too far for level 1 (250 m), linked at level 2 (600 m).
        levels[1] = {10: set(), 20: set()}
        levels[2] = {10: {20}}
    else:
        # Same region: shrink the gap so the heads link at level 1.
        state.nodes[20].position = (200.0, 0.0)
        state.nodes[3].position = (230.0, 0.0)
        state.nodes[4].position = (170.0, 0.0)
        state.touch()
        levels[1] = {10: {20}}
        levels[2] = {10: set()}
    return state, manual_clusters(levels)


class TestHierarchicalDiscovery:
    def test_same_region_via_head_overlay(self):
        state, clusters = two_region_world(cross_region=False)
        r = make_router(state, clusters, deposit=DepositParams())
        path, m = r.discover_route(0, 3, now=0.0)
        assert path == [0, 10, 20, 3]
        # Inter-head hop rides the level-1 overlay.
        assert 20 in state.neighbors(10, 1)

    def test_cross_region_single_level2_relay(self):
        state, clusters = two_region_world(cross_region=True)
        r = make_router(state, clusters, deposit=DepositParams())
        path, m = r.discover_route(0, 3, now=0.0)
        assert path == [0, 10, 20, 3]
        assert 20 not in state.neighbors(10, 1)
        assert 20 in state.neighbors(10, 2)

    def test_pheromone_positive_and_bounded_after_traffic(self):
        state, clusters = single_cluster_line(5)
        r = make_router(state, clusters, deposit=DepositParams(), q=0.2)
        for i in range(40):
            r.discover_route(0, 4, now=float(i), use_cache=False)
            if i % 3 == 0:
                r.evaporate_all()
        bound = r.max_deposit / r.q + r.tau_initial
        for table in r.tables.values():
            for tau in table.entries.values():
                assert 0.0 <= tau <= bound + 1e-9
