import math
import random
import re
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antmanet import routing
from antmanet.engine import Simulator
from antmanet.errors import (ConfigError, NoAdmissibleRouteError, NoRouteError,
                             RoutingLoopError)
from antmanet.qos import (DepositParams, PathMetrics, path_metrics,
                          pheromone_deposit)
from antmanet.routing import (PheromoneTable, PreferenceParams,
                              QosRequirement, Route, RouteCache,
                              path_preference_probability, preference_score,
                              score_factors)

from helpers import (DEFAULTS, add_node, line_state, make_router, make_state,
                     manual_clusters, record_sink)


def metrics(delay=1.0, bw=2.0, energy=3.0, let=4.0, hops=2):
    return PathMetrics(delay=delay, bandwidth=bw, energy=energy, let=let,
                       hop_count=hops)


def score_map(cands, p=PreferenceParams()):
    """The score map of (next hop, metrics, tau) candidates."""
    return {j: preference_score(m, tau, p) for j, m, tau in cands}


class TestPreferenceProbability:
    def test_singleton(self):
        probs = path_preference_probability(score_map([(7, metrics(), 1.0)]))
        assert probs == {7: 1.0}

    def test_symmetry(self):
        probs = path_preference_probability(
            score_map([(1, metrics(), 2.0), (2, metrics(), 2.0)]))
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
            probs = path_preference_probability(score_map(cands, p))
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
            path_preference_probability({})

    def test_all_degenerate_rejected(self):
        with pytest.raises(NoAdmissibleRouteError):
            path_preference_probability(score_map([(1, metrics(bw=0.0), 0.0)]))


class TestPheromoneTable:
    def test_zero_deposit_only_evaporates(self):
        t = PheromoneTable(q=0.5, initial=DEFAULTS.pheromone.initial)
        t.deposit_on(t.keys((0, 1), (0,), 9), 1.0)
        before = t.get(0, 0, 1, 9)
        t.deposit_on(t.keys((0, 1), (0,), 9), 0.0)
        assert t.get(0, 0, 1, 9) == pytest.approx(0.5 * before)

    def test_direct_substitution(self):
        t = PheromoneTable(q=0.5, initial=1.0)
        t.deposit_on(t.keys((0, 3), (0,), 9), 2.0)
        assert t.get(0, 0, 3, 9) == pytest.approx(2.5)

    def test_repeated_deposits_converge_to_ratio(self):
        t = PheromoneTable(q=0.25, initial=1.0)
        for _ in range(100):
            t.deposit_on(t.keys((0, 3), (0,), 9), 2.0)
        assert t.get(0, 0, 3, 9) == pytest.approx(2.0 / 0.25, abs=1e-6)

    def test_deposit_on_each_hop_of_a_path(self):
        # Hop i lands on plane levels[i], every hop toward destination 9.
        t = PheromoneTable(q=0.5, initial=1.0)
        t.entries[(1, 4, 6, 9)] = 3.0
        t.deposit_on(t.keys((2, 4, 6, 9), (0, 1, 0), 9), 2.0)
        assert t.entries == {(0, 2, 4, 9): 2.5, (1, 4, 6, 9): 3.5,
                             (0, 6, 9, 9): 2.5}

    def test_negative_deposit_raises_and_writes_nothing(self):
        t = PheromoneTable(q=0.5, initial=1.0)
        with pytest.raises(ConfigError, match="deposit must be >= 0"):
            t.deposit_on(t.keys((2, 4, 6), (0, 0), 6), -1.0)
        assert t.entries == {}

    def test_evaporate_full(self):
        t = PheromoneTable(q=1.0, initial=DEFAULTS.pheromone.initial)
        t.entries[(0, 0, 1, 2)] = 5.0
        t.evaporate()
        assert t.get(0, 0, 1, 2) == 0.0

    def test_evaporate_substitution(self):
        t = PheromoneTable(q=0.25, initial=DEFAULTS.pheromone.initial)
        t.entries[(0, 0, 1, 2)] = 4.0
        t.evaporate()
        assert t.get(0, 0, 1, 2) == pytest.approx(3.0)

    def test_evaporate_closed_form(self):
        t = PheromoneTable(q=0.1, initial=DEFAULTS.pheromone.initial)
        t.entries[(0, 0, 1, 2)] = 7.0
        for _ in range(12):
            t.evaporate()
        assert t.get(0, 0, 1, 2) == pytest.approx(7.0 * 0.9 ** 12, abs=1e-12)

    def test_purge_keeps_the_departed_nodes_own_trails(self):
        t = PheromoneTable(q=0.5, initial=1.0)
        for level, i, j, d in ((0, 1, 3, 9), (1, 1, 9, 3), (0, 3, 1, 9),
                               (2, 3, 9, 1)):
            t.deposit_on(t.keys((i, j), (level,), d), 2.0)
        t.purge_node(3)
        assert list(t.entries) == [(0, 3, 1, 9), (2, 3, 9, 1)]


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
    r = make_router(state, clusters, trace=record_sink(records))
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
    def replies(state, level, src, dst):
        records = []
        r = make_router(state, manual_clusters({0: {}}),
                        trace=record_sink(records))
        r._segment(frozenset(state.nodes), level, src, dst, dst,
                   QosRequirement(), 0.0, r._current_memo())
        return [rec for rec in records if rec["kind"].startswith("reply_")]

    def test_reply_retraces_in_reverse(self):
        # Four level-1 heads 200 apart: each reaches only its neighbours.
        state = make_state()
        for i in range(1, 5):
            add_node(state, i, (i * 200.0, 0.0), level=1)
        [rec] = self.replies(state, 1, 1, 4)
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
        [rec] = self.replies(state, 0, 0, 2)
        assert rec["kind"] == "reply_knave_ant"
        m = path_metrics((0, 1, 2), state, levels=(0, 0))
        assert math.isfinite(m.let)
        p = rec["packet"]
        assert (p["delay"], p["bandwidth"], p["energy"], p["let"],
                p["hop_count"]) == (m.delay, m.bandwidth, 9.0, m.let, 3)
        assert (p["src_member"], p["dst_member"]) == (0, 2)
        assert p["to_visit"] == [2, 1, 0]


class TestRouteCache:
    def entry(self, dst=9, expires=10.0, path=(1, 2, 9)):
        return Route(destination=dst, path=path, levels=(0,) * (len(path) - 1),
                     metrics=metrics(), expires_at=expires)

    def test_empty_lookup(self):
        assert RouteCache().lookup(1, 9, 0.0) is None

    def test_insert_replaces(self):
        c = RouteCache()
        c.insert(1, self.entry(path=(1, 2, 9)))
        latest = self.entry(path=(1, 3, 9), expires=5.0)
        c.insert(1, latest)
        assert c.routes == {(1, 9): latest}
        assert c.lookup(1, 9, 0.0) is latest

    def test_expired_skipped(self):
        c = RouteCache()
        held = self.entry(expires=5.0)
        c.insert(1, held)
        assert c.lookup(1, 9, 5.0) is held
        assert c.lookup(1, 9, 6.0) is None

    def test_expired_routes_dropped(self):
        # Only the pair looked up is dropped; the other expired one waits
        # for its own lookup.
        c = RouteCache()
        c.insert(1, self.entry(dst=9, expires=1.0))
        other = self.entry(dst=8, path=(1, 2, 8), expires=1.0)
        c.insert(1, other)
        assert c.lookup(1, 9, 2.0) is None
        assert c.routes == {(1, 8): other}

    def test_miss_leaves_routes_unchanged(self):
        c = RouteCache()
        held = self.entry()
        c.insert(1, held)
        assert c.lookup(1, 8, 0.0) is None
        assert c.lookup(2, 9, 0.0) is None
        assert c.routes == {(1, 9): held}

    def test_destination_without_routes_has_no_entry(self):
        c = RouteCache()
        c.insert(1, self.entry(dst=9, path=(1, 3, 9), expires=5.0))
        c.insert(1, self.entry(dst=8, path=(1, 2, 8)))
        assert c.lookup(1, 9, 6.0) is None
        assert list(c.routes) == [(1, 8)]
        c.purge_node(2)
        assert c.routes == {}

    def test_purge_drops_every_route_through_the_node(self):
        c = RouteCache()
        kept = self.entry(dst=8, path=(1, 3, 8))
        for node, route in ((1, self.entry(path=(1, 2, 9))), (1, kept),
                            (2, self.entry(path=(2, 3, 9))),
                            (4, self.entry(dst=2, path=(4, 3, 2)))):
            c.insert(node, route)
        c.purge_node(2)
        assert c.routes == {(1, 8): kept}

    def test_qos_filter(self):
        # discover_route serves no cached route below its QoS floors; the
        # rediscovery fails too, and the route stays.
        state, clusters = single_cluster_line(5)
        r = make_router(state, clusters)
        route = r.discover_route(0, 4, now=0.0)
        strict = QosRequirement(min_bandwidth=2 * route.metrics.bandwidth)
        with pytest.raises(NoAdmissibleRouteError):
            r.discover_route(0, 4, qos=strict, now=1.0)
        assert r.stats["cache_hits"] == 0
        assert r.cache.routes[0, 4] is route

    def test_rejected_route_skipped_not_dropped(self):
        # A cached route with a missing link is not served, but it stays
        # and is served again once the link is back.
        state, clusters = single_cluster_line(5)
        r = make_router(state, clusters)
        route = r.discover_route(0, 4, now=0.0)
        home = state.nodes[3].position
        state.nodes[3].position = (150.0, 1000.0)
        state.touch()
        with pytest.raises(NoRouteError):
            r.discover_route(0, 4, now=1.0)
        assert r.stats["cache_hits"] == 0
        assert r.cache.routes[0, 4] is route
        state.nodes[3].position = home
        state.touch()
        assert r.discover_route(0, 4, now=2.0) is route
        assert r.stats["cache_hits"] == 1


def single_cluster_line(n=5):
    state = line_state(n)
    clusters = manual_clusters({0: {2: set(range(n)) - {2}}, 1: {}, 2: {}})
    return state, clusters


class TestDiscovery:
    def test_direct_neighbor_no_ants(self):
        state = line_state(3)
        clusters = manual_clusters({0: {1: {0, 2}}, 1: {}, 2: {}})
        r = make_router(state, clusters, deposit=DepositParams())
        route = r.discover_route(0, 1, now=0.0)
        assert (route.path, route.levels) == ((0, 1), (0,))
        assert r.stats["route_ants"] == 0
        assert r.stats["request_forwards"] == 0
        # A linked pair gets its direct route before the cache is read, so
        # the one-hop route is not cached.
        assert r.cache.routes == {}

    def test_intra_cluster_line_unique_path(self):
        state, clusters = single_cluster_line(5)
        r = make_router(state, clusters, deposit=DepositParams())
        route = r.discover_route(0, 4, now=0.0)
        assert (route.path, route.levels) == ((0, 1, 2, 3, 4), (0,) * 4)
        assert route.metrics == path_metrics(route.path, state,
                                             levels=route.levels)
        assert r.stats["route_ants"] >= 1

    def test_suffix_routes_carry_their_path_metrics(self):
        # A drifting node makes the LET finite and differ along the line.
        state, clusters = single_cluster_line(6)
        state.nodes[3].velocity = (4.0, 0.0)
        state.nodes[4].energy = 7.0
        state.touch()
        r = make_router(state, clusters, deposit=DepositParams())
        route = r.discover_route(0, 5, now=0.0)
        assert route.path == (0, 1, 2, 3, 4, 5)
        assert math.isfinite(route.metrics.let)
        for idx in range(1, len(route.path) - 2):
            cached = r.cache.routes[route.path[idx], 5]
            assert cached.path == route.path[idx:]
            assert cached.levels == route.levels[idx:]
            assert cached.metrics == path_metrics(cached.path, state,
                                                  levels=cached.levels)
        # The last relay's suffix is one hop, so it is not cached.
        assert (4, 5) not in r.cache.routes

    def test_relay_suffix_served_as_a_cache_hit(self):
        state, clusters = single_cluster_line(6)
        records = []
        r = make_router(state, clusters, trace=record_sink(records))
        r.discover_route(0, 5, now=0.0)
        seen = len(records)
        route = r.discover_route(2, 5, now=0.1)
        assert route is r.cache.routes[2, 5]
        assert route.path == (2, 3, 4, 5)
        assert r.stats["cache_hits"] == 1
        assert records[seen:] == []

    def test_unusable_route_replaced_by_the_rediscovered_one(self):
        # The diamond's route over 1 loses its links; the route over 2
        # that discovery finds instead replaces it, and is still the one
        # served once node 1 is back.
        state, clusters = diamond()
        r = make_router(state, clusters)
        assert r.discover_route(0, 3, now=0.0).path == (0, 1, 3)
        home = state.nodes[1].position
        state.nodes[1].position = (70.0, 1000.0)
        state.touch()
        detour = r.discover_route(0, 3, now=1.0)
        assert detour.path == (0, 2, 3)
        assert r.cache.routes == {(0, 3): detour}
        state.nodes[1].position = home
        state.touch()
        assert r.discover_route(0, 3, now=2.0) is detour
        assert r.stats["cache_hits"] == 1

    def test_unreachable_raises_no_route(self):
        state = make_state()
        add_node(state, 0, (0, 0))
        add_node(state, 1, (0, 5))
        add_node(state, 2, (1000, 1000))
        clusters = manual_clusters({0: {0: {1}, 2: set()}, 1: {}, 2: {}})
        r = make_router(state, clusters)
        with pytest.raises(NoRouteError):
            r.discover_route(0, 2, now=0.0)
        # The cache lookup added no entry.
        assert r.cache.routes == {}

    def test_source_equals_destination_raises_no_route(self):
        state, clusters = single_cluster_line(3)
        r = make_router(state, clusters)
        with pytest.raises(NoRouteError, match="^source equals destination$"):
            r.discover_route(1, 1, now=0.0)

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
        route = r.discover_route(0, 4, qos=qos, now=0.0)
        ref = path_metrics(route.path, state, levels=route.levels)
        assert ref.bandwidth >= qos.min_bandwidth
        assert ref.energy >= qos.min_energy
        assert ref.delay <= qos.max_delay

    def test_cache_round_trip(self):
        state, clusters = single_cluster_line(5)
        r = make_router(state, clusters, deposit=DepositParams())
        first = r.discover_route(0, 4, now=0.0)
        assert r.discover_route(0, 4, now=0.1) is first
        assert r.stats["cache_hits"] == 1


def diamond():
    """0 reaches 3 over 1 or over 2, with equal delays; head 1's cluster
    holds all four nodes.  Ties go to the lower neighbor id, so 1."""
    state = make_state()
    for nid, pos in ((0, (0.0, 0.0)), (1, (70.0, 60.0)), (2, (70.0, -60.0)),
                     (3, (140.0, 0.0))):
        add_node(state, nid, pos)
    clusters = manual_clusters({0: {1: {0, 2, 3}}, 1: {}, 2: {}})
    return state, clusters


class TestChoice:
    def test_first_of_equal_replies_per_next_hop_wins(self):
        # 0 - 1 - {2, 3} - 4 in head 1's cluster: both replies leave 0 over
        # 1 with equal metrics, and 2 - 3 are out of range of each other.
        state = make_state()
        for nid, pos in ((0, (0.0, 0.0)), (1, (80.0, 0.0)),
                         (2, (150.0, 55.0)), (3, (150.0, -55.0)),
                         (4, (220.0, 0.0))):
            add_node(state, nid, pos)
        clusters = manual_clusters({0: {1: {0, 2, 3, 4}}, 1: {}, 2: {}})
        records = []
        r = make_router(state, clusters, trace=record_sink(records))
        route = r.discover_route(0, 4, now=0.0)
        replies = [rec["packet"] for rec in records
                   if rec["kind"] == "reply_knave_ant"]
        assert [p["to_visit"] for p in replies] == [[4, 2, 1, 0], [4, 3, 1, 0]]
        assert replies[0] == {**replies[1], "to_visit": [4, 2, 1, 0]}
        assert route.path == (0, 1, 2, 4)

    @pytest.mark.parametrize("theta_p, path", [(0.6, None), (0.5, (0, 1, 3))],
                             ids=["below", "at"])
    def test_theta_p_floors_the_best_probability(self, theta_p, path):
        # Both next hops of the diamond score alike: probability 0.5 each.
        state, clusters = diamond()
        records = []
        r = make_router(state, clusters, pref=PreferenceParams(theta_p=theta_p),
                        trace=record_sink(records))
        if path is None:
            with pytest.raises(NoAdmissibleRouteError,
                               match="best preference 0.5 below threshold"):
                r.discover_route(0, 3, now=0.0)
        else:
            assert r.discover_route(0, 3, now=0.0).path == path
        assert [rec["packet"]["to_visit"] for rec in records
                if rec["kind"] == "reply_knave_ant"] == [[3, 1, 0], [3, 2, 0]]

    @pytest.mark.parametrize("alpha1, path", [(1.0, (0, 2, 3)),
                                              (0.0, (0, 1, 3))],
                             ids=["pheromone", "blind"])
    def test_pheromone_flips_the_choice(self, alpha1, path):
        # The two next hops tie on every QoS term, so a deposit on 0 -> 2
        # decides the segment unless the pheromone's exponent is 0.
        state, clusters = diamond()
        assert make_router(state, clusters).discover_route(
            0, 3, now=0.0).path == (0, 1, 3)
        r = make_router(state, clusters, pref=PreferenceParams(alpha1=alpha1))
        r.pheromone.deposit_on(r.pheromone.keys((0, 2), (0,), 3), 1.0)
        assert r.discover_route(0, 3, now=0.0).path == path

    def test_each_admissible_reply_is_scored_once(self, monkeypatch):
        # The diamond's one segment finds two admissible replies.
        state, clusters = diamond()
        records, scored = [], []

        def counting(m, p):
            scored.append(m)
            return score_factors(m, p)

        monkeypatch.setattr(routing, "score_factors", counting)
        r = make_router(state, clusters, trace=record_sink(records))
        assert r.discover_route(0, 3, now=0.0).path == (0, 1, 3)
        replies = [rec["packet"] for rec in records
                   if rec["kind"] == "reply_knave_ant"]
        assert len(scored) == len(replies) == 2


def literal_score(m, tau, p):
    """The preference score as one product, written out term by term."""
    return (tau ** p.alpha1 * (1.0 / m.delay) ** p.alpha2
            * (1.0 / m.hop_count) ** p.alpha3 * m.bandwidth ** p.alpha4
            * m.energy ** p.alpha5 * min(m.let, p.let_cap) ** p.alpha6)


# Exponents within the config's bounds (>= 0), 0 included; values that
# keep every product finite.
exponents = st.sampled_from([0.0, 1.0, 2.0]) | st.floats(0.0, 3.0)
values = st.floats(1e-3, 1e3)
prefs = st.builds(PreferenceParams, exponents, exponents, exponents,
                  exponents, exponents, exponents,
                  let_cap=st.sampled_from([1e6, 5.0, math.inf]))
taus = st.just(DEFAULTS.pheromone.initial) | values


class TestScoreFactors:
    """The router keeps each flood reply's `score_factors` while no energy
    moves, and scores a reply as tau under its exponent times them; the
    score must be `preference_score`'s, bit for bit."""

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(delay=values, hops=st.integers(1, 12), bandwidth=values,
           energy=values, let=values | st.just(math.inf), tau=taus,
           p=prefs)
    def test_factor_product_is_preference_score(self, delay, hops, bandwidth,
                                                energy, let, tau, p):
        m = metrics(delay=delay, bw=bandwidth, energy=energy, let=let,
                    hops=hops)
        f_delay, f_hops, f_bandwidth, f_energy, f_let = score_factors(m, p)
        replayed = (tau ** p.alpha1 * f_delay * f_hops * f_bandwidth
                    * f_energy * f_let)
        assert (replayed.hex() == preference_score(m, tau, p).hex()
                == literal_score(m, tau, p).hex())

    @staticmethod
    def scores(replay, p, delays, energies, deposits):
        """The score maps that two discoveries on the diamond hand to
        path_preference_probability, the second after the first route
        expired, from the memo if `replay` and else from an emptied one;
        the number of score_factors calls; and each next hop's
        `preference_score`, from the path's metrics and pheromone."""
        state, clusters = diamond()
        for (a, b), delay in zip(((0, 1), (1, 3), (0, 2), (2, 3)), delays):
            state.set_link_params(a, b, 0, delay=delay)
        for n, energy in zip((1, 2), energies):
            state.node(n).energy = energy
        r = make_router(state, clusters, pref=p)
        for j, dtau in zip((1, 2), deposits):
            if dtau is not None:
                r.pheromone.deposit_on(r.pheromone.keys((0, j), (0,), 3), dtau)
        seen, calls = [], []

        def recording(scores):
            seen.append({j: s.hex() for j, s in scores.items()})
            return path_preference_probability(scores)

        def counting(m, p):
            calls.append(m)
            return score_factors(m, p)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(routing, "path_preference_probability", recording)
            mp.setattr(routing, "score_factors", counting)
            for now in (0.0, 2 * DEFAULTS.cache.max_age):
                if not replay:
                    r._stamp = ()
                r.discover_route(0, 3, now=now)
        expected = {j: preference_score(
            path_metrics((0, j, 3), state, levels=(0, 0)),
            r.pheromone.get(0, 0, j, 3), p).hex() for j in (1, 2)}
        return seen, len(calls), expected

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(p=prefs, delays=st.lists(st.floats(1e-4, 0.1), min_size=4,
                                    max_size=4),
           energies=st.lists(values, min_size=2, max_size=2),
           deposits=st.lists(st.none() | st.floats(0.0, 5.0), min_size=2,
                             max_size=2))
    def test_replayed_replies_score_as_preference_score(
            self, p, delays, energies, deposits):
        # The diamond's nodes do not move: each reply's LET is infinite.
        # Without a deposit rule, pheromone stays as it was set.
        fast, fast_calls, expected = self.scores(True, p, delays, energies,
                                                 deposits)
        slow, slow_calls, _ = self.scores(False, p, delays, energies,
                                          deposits)
        assert fast == slow == [expected, expected]
        assert (fast_calls, slow_calls) == (2, 4)

    @pytest.mark.parametrize("m", [metrics(delay=0.0), metrics(delay=-1.0),
                                   metrics(hops=0)],
                             ids=["zero-delay", "negative-delay", "no-hops"])
    def test_degenerate_metrics_raise(self, m):
        p = PreferenceParams()
        with pytest.raises(ConfigError, match="must be positive"):
            score_factors(m, p)
        with pytest.raises(ConfigError, match="must be positive"):
            preference_score(m, 1.0, p)

    @pytest.mark.parametrize("debited", [True, False],
                             ids=["debited", "fixed-energy"])
    def test_zero_delay_reply_raises_at_each_scoring(self, debited):
        # Every delay on the diamond is 0, so is each reply's.  The first
        # reply is traced, then raises when it is scored, at every call:
        # rebuilt after an energy write, or replayed from the memo.
        state, clusters = diamond()
        for n in range(4):
            state.node(n).node_delay = 0.0
        for a, b in ((0, 1), (1, 3), (0, 2), (2, 3)):
            state.set_link_params(a, b, 0, delay=0.0)
        records = []
        r = make_router(state, clusters, trace=record_sink(records))
        for _ in range(2):
            with pytest.raises(ConfigError, match="must be positive"):
                r.discover_route(0, 3, now=0.0)
            if debited:
                state.node(1).energy -= 1.0
                state.energy_version += 1
        assert [rec["kind"] for rec in records].count("reply_knave_ant") == 2


class TestFloodMemo:
    """A discovery after a topology change floods the new topology, and a
    discovery replayed under one stamp still takes its own QoS floors,
    time and pheromone.

    The second discovery comes after the first route's cache entry has
    expired, so it floods again; the memo of the first flood must not
    survive the change."""

    @staticmethod
    def check_replies(records, state, t):
        """Every reply sent at time t carries its path's metrics."""
        replies = [rec["packet"] for rec in records
                   if rec["kind"] == "reply_knave_ant" and rec["t"] == t]
        assert replies
        for p in replies:
            path = p["to_visit"][::-1]
            m = path_metrics(path, state, levels=(0,) * (len(path) - 1))
            assert (p["delay"], p["bandwidth"], p["energy"], p["let"],
                    p["hop_count"]) == (m.delay, m.bandwidth, m.energy,
                                        m.let, m.hop_count)

    def test_repeated_discovery_replays_the_flood(self):
        state, clusters = diamond()
        records = []
        r = make_router(state, clusters, cache_max_age=0.5,
                        trace=record_sink(records))
        first = r.discover_route(0, 3, now=0.0)
        second = r.discover_route(0, 3, now=1.0)
        floods = [key for key in r._memo if isinstance(key[-1], frozenset)]
        assert floods == [(0, 0, 3, frozenset(range(4)))]
        assert second.metrics == first.metrics
        replies = [(rec["t"], rec["packet"]["to_visit"]) for rec in records
                   if rec["kind"] == "reply_knave_ant"]
        assert replies == [(0.0, [3, 1, 0]), (0.0, [3, 2, 0]),
                           (1.0, [3, 1, 0]), (1.0, [3, 2, 0])]
        assert r.stats["request_forwards"] == 2 * 4

    def test_pinned_link_params_reroute(self):
        state, clusters = diamond()
        records = []
        r = make_router(state, clusters, cache_max_age=0.5,
                        trace=record_sink(records))
        assert r.discover_route(0, 3, now=0.0).path == (0, 1, 3)
        state.set_link_params(1, 3, 0, delay=0.05, bandwidth=1e3)
        route = r.discover_route(0, 3, now=1.0)
        assert route.path == (0, 2, 3)
        assert route.metrics == path_metrics(route.path, state,
                                             levels=route.levels)
        self.check_replies(records, state, 1.0)

    def test_moved_node_reroutes_with_new_let(self):
        state, clusters = diamond()
        records = []
        r = make_router(state, clusters, cache_max_age=0.5,
                        trace=record_sink(records))
        first = r.discover_route(0, 3, now=0.0)
        assert first.path == (0, 1, 3)
        assert first.metrics.let == math.inf
        state.nodes[1].position = (70.0, 90.0)  # out of range of 0 and 3
        state.nodes[2].velocity = (1.0, 0.0)
        state.touch()
        route = r.discover_route(0, 3, now=1.0)
        assert route.path == (0, 2, 3)
        assert math.isfinite(route.metrics.let)
        assert route.metrics == path_metrics(route.path, state,
                                             levels=route.levels)
        self.check_replies(records, state, 1.0)

    def test_energy_is_read_at_every_flood(self):
        state, clusters = diamond()
        records = []
        r = make_router(state, clusters, cache_max_age=0.5,
                        trace=record_sink(records))
        r.discover_route(0, 3, now=0.0)
        # No touch(): links do not change.  An energy writer moves the
        # energy counter instead.
        state.nodes[1].energy = 5.0
        state.energy_version += 1
        route = r.discover_route(0, 3, now=1.0)
        energies = [rec["packet"]["energy"] for rec in records
                    if rec["kind"] == "reply_knave_ant"]
        assert energies == [100.0, 100.0, 5.0, 100.0]
        assert route.metrics == path_metrics(route.path, state,
                                             levels=route.levels)
        self.check_replies(records, state, 1.0)

    def test_engine_energy_write_reaches_the_next_flood(self):
        # The engine debits relay 1 between two floods of one topology
        # version and one hierarchy epoch.  The second flood's replies and
        # route carry the new energy, so the memo cannot be stamped with
        # the version and the epoch alone.
        state, clusters = diamond()
        records = []
        r = make_router(state, clusters, cache_max_age=0.5,
                        trace=record_sink(records))
        sim = SimpleNamespace(state=state, router=r, stats=Counter(),
                              trace=r.trace, now=0.5)
        first = r.discover_route(0, 3, now=0.0)
        version, epoch = state.version, clusters.epoch
        Simulator._apply_energy(sim, 1, 95.0)
        assert (state.version, clusters.epoch) == (version, epoch)
        second = r.discover_route(0, 3, now=1.0)
        replies = [(rec["t"], rec["packet"]["to_visit"],
                    rec["packet"]["energy"]) for rec in records
                   if rec["kind"] == "reply_knave_ant"]
        assert replies == [(0.0, [3, 1, 0], 100.0), (0.0, [3, 2, 0], 100.0),
                           (1.0, [3, 1, 0], 5.0), (1.0, [3, 2, 0], 100.0)]
        assert (first.metrics.energy, second.metrics.energy) == (100.0, 100.0)
        assert second.path == (0, 2, 3)


    def test_floors_share_one_flood_with_their_own_choices(self,
                                                           monkeypatch):
        # Link 1-3 is faster but narrower than 2-3, and bandwidth does not
        # score (alpha4 = 0): a flow without floors takes (0, 1, 3), and a
        # bandwidth floor above 1-3's leaves (0, 2, 3).  Both flows replay
        # the one flood of one stamp, in either order.
        state, clusters = diamond()
        state.set_link_params(1, 3, 0, bandwidth=1e3)
        state.set_link_params(0, 2, 0, delay=0.05)
        floods = []
        expand = routing.Router._expand

        def counted(self, *args):
            floods.append(args)
            return expand(self, *args)

        monkeypatch.setattr(routing.Router, "_expand", counted)
        records = []
        r = make_router(state, clusters, pref=PreferenceParams(alpha4=0.0),
                        cache_max_age=0.5, trace=record_sink(records))
        free, floor = QosRequirement(), QosRequirement(min_bandwidth=1e4)
        paths = [r.discover_route(0, 3, qos=qos, now=now).path
                 for qos, now in ((free, 0.0), (floor, 0.0), (free, 1.0),
                                  (floor, 2.0))]
        assert paths == [(0, 1, 3), (0, 2, 3), (0, 1, 3), (0, 2, 3)]
        assert floods == [(frozenset(range(4)), 0, 0, 3)]
        assert [rec["t"] for rec in records
                if rec["kind"] == "reply_knave_ant"] == [
                    0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 2.0, 2.0]

    def test_replay_expires_and_deposits_as_a_fresh_derivation(self):
        # Relay 3 drifts toward 4: the suffixes over link 2-3 expire in
        # 6.25 s, the one from 3 in 31.25 s, capped at the cache's 10 s.  The
        # route is sent again at t = 3 under the same stamp, from the memo
        # or from an emptied one, once the source's cached copy is gone.
        def sent_twice(replay):
            state, clusters = single_cluster_line(6)
            state.nodes[3].velocity = (4.0, 0.0)
            state.touch()
            r = make_router(state, clusters, deposit=DepositParams(),
                            cache_max_age=10.0)
            r.discover_route(0, 5, now=0.0)
            del r.cache.routes[0, 5]
            if not replay:
                r._stamp = ()
            return state, r, r.discover_route(0, 5, now=3.0)

        state, r, route = sent_twice(True)
        _, fresh, fresh_route = sent_twice(False)
        assert route == fresh_route
        assert route.path == (0, 1, 2, 3, 4, 5)
        expiries = {}
        for idx in range(len(route.path) - 2):
            suffix = route.path[idx:]
            m = path_metrics(suffix, state, levels=route.levels[idx:])
            cached = r.cache.routes[suffix[0], 5]
            assert cached.path == suffix
            expiries[suffix[0]] = cached.expires_at
            assert cached.expires_at == 3.0 + min(m.let, 10.0)
        assert expiries == {0: 9.25, 1: 9.25, 2: 9.25, 3: 13.0}
        assert r.cache.routes == fresh.cache.routes
        dtau = pheromone_deposit(route.metrics, r.deposit_params)
        keep = 1.0 - r.pheromone.q
        tau = keep * (keep * r.pheromone.initial + dtau) + dtau
        assert r.pheromone.entries == fresh.pheromone.entries == {
            (0, i, i + 1, 5): tau for i in range(5)}

    def test_steered_replays_of_one_plan_assemble_their_own_paths(self):
        # Deposits between three sends of one stamp flip the diamond's
        # one segment between its next hops; each send's route follows.
        state, clusters = diamond()
        r = make_router(state, clusters, cache_max_age=0.5)
        routes = [r.discover_route(0, 3, now=0.0)]
        stamp = r._stamp
        for now, j, dtau in ((1.0, 2, 1.0), (2.0, 1, 5.0)):
            r.pheromone.deposit_on(r.pheromone.keys((0, j), (0,), 3), dtau)
            routes.append(r.discover_route(0, 3, now=now))
        assert r._stamp == stamp
        assert [(route.path, route.levels) for route in routes] == [
            ((0, 1, 3), (0, 0)), ((0, 2, 3), (0, 0)), ((0, 1, 3), (0, 0))]
        assert r.cache.routes == {(0, 3): routes[-1]}


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
        route = r.discover_route(0, 3, now=0.0)
        assert (route.path, route.levels) == ((0, 10, 20, 3), (0, 1, 0))
        # Inter-head hop rides the level-1 overlay.
        assert 20 in state.neighbors(10, 1)

    def test_cross_region_single_level2_relay(self):
        state, clusters = two_region_world(cross_region=True)
        r = make_router(state, clusters, deposit=DepositParams())
        route = r.discover_route(0, 3, now=0.0)
        assert (route.path, route.levels) == ((0, 10, 20, 3), (0, 2, 0))
        assert 20 not in state.neighbors(10, 1)
        assert 20 in state.neighbors(10, 2)

    @pytest.mark.parametrize("edit, ants, error", [
        # A discovered route: each chain climbs to level 2, where 10 heads
        # both regions; 10 heads the source's chain from level 0 up, so it
        # would address every later ant to itself, and sends none of them.
        (None, [(0, 10, 0)], None),
        (lambda clusters: clusters.leave(0, 20, 3), [],
         "node 3 has no level-0 head"),
        (lambda clusters: clusters.dissolve(1, 20), [(0, 10, 0)],
         "node 20 has no level-1 head"),
        (lambda clusters: clusters.leave(2, 10, 20), [(0, 10, 0)],
         "node 20 has no level-2 head"),
        (lambda clusters: clusters.install(2, {10: set(), 20: set()}, 1.0),
         [(0, 10, 0)], "level-2 heads 10 and 20 differ"),
    ], ids=["found", "no_l0_head", "no_l1_head", "no_l2_head",
            "different_l2_heads"])
    def test_cross_region_route_ants(self, edit, ants, error):
        """The exact route ants and failure message of each exit of
        cross-region discovery: a missing or differing head stops it
        before that level's ant."""
        state, clusters = two_region_world(cross_region=True)
        records = []
        r = make_router(state, clusters, trace=record_sink(records))
        if edit is None:
            r.discover_route(0, 3, now=1.0)
        else:
            edit(clusters)
            with pytest.raises(NoRouteError, match=f"^{error}$"):
                r.discover_route(0, 3, now=1.0)
        assert [rec for rec in records if rec["kind"] == "route_ant"] == [
            {"kind": "route_ant", "t": 1.0,
             "packet": {"src": s, "dst": d, "flag": flag}}
            for s, d, flag in ants]

    @pytest.mark.parametrize("edit, error", [
        (lambda clusters: clusters.dissolve(1, 20),
         "node 20 has no level-1 head"),
        (lambda clusters: clusters.leave(2, 10, 20),
         "node 20 has no level-2 head"),
    ], ids=["dissolve", "leave"])
    def test_hierarchy_change_climbs_afresh(self, edit, error):
        """Once a head of a memoized plan loses its cluster, the next
        discovery climbs the changed chains instead of replaying the plan,
        though the topology is unchanged."""
        state, clusters = two_region_world(cross_region=True)
        r = make_router(state, clusters, cache_max_age=0.5)
        r.discover_route(0, 3, now=1.0)
        assert (0, 3) in r._memo
        edit(clusters)
        with pytest.raises(NoRouteError, match=f"^{error}$"):
            r.discover_route(0, 3, now=2.0)

    def test_pheromone_positive_and_bounded_after_traffic(self):
        state, clusters = single_cluster_line(5)
        # Each cached route expires before the next discovery.
        r = make_router(state, clusters, deposit=DepositParams(), q=0.2,
                        cache_max_age=0.5)
        deposits = []
        for i in range(40):
            route = r.discover_route(0, 4, now=float(i))
            deposits.append(pheromone_deposit(route.metrics, r.deposit_params))
            if i % 3 == 0:
                r.evaporate_all()
        bound = max(deposits) / r.pheromone.q + r.pheromone.initial
        for tau in r.pheromone.entries.values():
            assert 0.0 <= tau <= bound + 1e-9


def looping_world():
    """Source 0 is a member of head 10, and its level-1 interface puts it
    in 10's level-1 cluster too, where it is the one relay between 10 and
    20 (300 apart, past level 1's 250).  The assembled route climbs from 0
    to 10 and floods back through 0: (0, 10, 0, 20, 3)."""
    state = make_state()
    add_node(state, 10, (0.0, 0.0), level=1)
    add_node(state, 0, (90.0, 0.0), level=1)
    add_node(state, 20, (300.0, 0.0), level=1)
    add_node(state, 3, (380.0, 0.0))
    return state, manual_clusters({0: {10: {0}, 20: {3}},
                                   1: {10: {0, 20}}})


def stale_member_world():
    """Member 0 has walked out of its head 10's range, and the tables
    still hold it: the assembled route's first hop has no link."""
    state, clusters = two_region_world(cross_region=True)
    state.nodes[0].position = (-150.0, 0.0)
    state.touch()
    return state, clusters


class TestMemoizedFailures:
    """An assembled route that revisits a node or misses a link fails
    with the same error, records and counters whether it is derived or
    replayed under one stamp, and each replay raises a new exception."""

    @pytest.mark.parametrize("world, error, message", [
        (stale_member_world, NoRouteError, "no link between 0 and 10"),
        (looping_world, RoutingLoopError,
         "assembled route revisits a node: [0, 10, 0, 20, 3]"),
    ], ids=["stale-hop", "loop"])
    def test_replay_raises_as_the_derivation(self, world, error, message,
                                             monkeypatch):
        entries = []
        route_entry = routing.Router._route_entry

        def counted(self, *args):
            entries.append(args)
            return route_entry(self, *args)

        monkeypatch.setattr(routing.Router, "_route_entry", counted)
        state, clusters = world()
        records = []
        r = make_router(state, clusters, trace=record_sink(records))
        calls = []
        for _ in range(2):
            records.clear()
            before = Counter(r.stats)
            with pytest.raises(error, match=f"^{re.escape(message)}$") as exc:
                r.discover_route(0, 3, now=1.0)
            calls.append((exc.value, len(exc.traceback), list(records),
                          r.stats - before))
        (first, *derived), (second, *replayed) = calls
        assert first is not second
        assert derived == replayed
        assert derived[1] and derived[2]["route_ants"] == 1
        assert len(entries) == 1
