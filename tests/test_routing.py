import math
import random

import pytest

from antmanet.errors import NoAdmissibleRouteError, NoRouteError
from antmanet.qos import (DepositParams, PathMetrics, path_metrics,
                          pheromone_deposit)
from antmanet.routing import (PheromoneTable, PreferenceParams,
                              QosRequirement, Route, RouteCache,
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
        t.deposit(0, 0, 1, 9, 1.0)
        before = t.get(0, 0, 1, 9)
        t.deposit(0, 0, 1, 9, 0.0)
        assert t.get(0, 0, 1, 9) == pytest.approx(0.5 * before)

    def test_direct_substitution(self):
        t = PheromoneTable(q=0.5, initial=1.0)
        t.deposit(0, 0, 3, 9, 2.0)
        assert t.get(0, 0, 3, 9) == pytest.approx(2.5)

    def test_repeated_deposits_converge_to_ratio(self):
        t = PheromoneTable(q=0.25, initial=1.0)
        for _ in range(100):
            t.deposit(0, 0, 3, 9, 2.0)
        assert t.get(0, 0, 3, 9) == pytest.approx(2.0 / 0.25, abs=1e-6)

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
        for key in ((0, 1, 3, 9), (1, 1, 9, 3), (0, 3, 1, 9), (2, 3, 9, 1)):
            t.deposit(*key, 2.0)
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
    def replies(state, level, src, dst):
        records = []
        r = make_router(state, manual_clusters({0: {}}), trace=records.append)
        r._segment(state.nodes, level, src, dst, dst, None, 0.0)
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
    def entry(self, dst=9, expires=10.0, path=(1, 2, 9), bw=2.0):
        return Route(destination=dst, path=path, levels=(0,) * (len(path) - 1),
                     metrics=metrics(bw=bw), expires_at=expires)

    def test_empty_lookup(self):
        assert RouteCache().lookup(1, 9, 0.0) is None

    def test_oldest_entry_wins(self):
        c = RouteCache()
        first = self.entry(path=(1, 2, 9))
        c.insert(1, first, 0.0)
        c.insert(1, self.entry(path=(1, 9)), 0.0)
        assert c.lookup(1, 9, 0.0) is first

    def test_expired_skipped(self):
        c = RouteCache()
        c.insert(1, self.entry(expires=5.0), 0.0)
        assert c.lookup(1, 9, 6.0) is None

    def test_same_path_refreshed_in_place(self):
        c = RouteCache()
        c.insert(1, self.entry(path=(1, 2, 9), expires=5.0, bw=1.0), 0.0)
        c.insert(1, self.entry(path=(1, 9)), 0.0)
        newer = self.entry(path=(1, 2, 9), expires=8.0, bw=6.0)
        c.insert(1, newer, 1.0)
        assert [r.path for r in c.routes[1, 9].values()] == [(1, 2, 9), (1, 9)]
        assert c.lookup(1, 9, 1.0) is newer

    def test_expired_routes_dropped(self):
        c = RouteCache()
        c.insert(1, self.entry(path=(1, 2, 9), expires=1.0), 0.0)
        c.insert(1, self.entry(path=(1, 9), expires=5.0), 0.0)
        c.insert(1, self.entry(dst=8, path=(1, 8), expires=1.0), 0.0)
        c.insert(1, self.entry(dst=8, path=(1, 3, 8), expires=9.0), 2.0)
        assert [r.path for r in c.routes[1, 8].values()] == [(1, 3, 8)]
        assert [r.path for r in c.routes[1, 9].values()] == [(1, 2, 9), (1, 9)]
        assert c.lookup(1, 9, 2.0).path == (1, 9)
        assert [r.path for r in c.routes[1, 9].values()] == [(1, 9)]

    def test_miss_leaves_routes_unchanged(self):
        c = RouteCache()
        c.insert(1, self.entry(), 0.0)
        held = {key: dict(routes) for key, routes in c.routes.items()}
        assert c.lookup(1, 8, 0.0) is None
        assert c.routes == held

    def test_unexpired_routes_kept_in_the_held_dict(self):
        """A lookup or insert that finds nothing expired keeps the pair's
        dict, and one that finds no pair creates none."""
        c = RouteCache()
        c.insert(1, self.entry(path=(1, 2, 9)), 0.0)
        held = c.routes[1, 9]
        assert c.lookup(1, 9, 1.0).path == (1, 2, 9)
        c.insert(1, self.entry(path=(1, 9)), 2.0)
        assert c.routes[1, 9] is held
        assert list(held) == [((1, 2, 9), (0, 0)), ((1, 9), (0,))]
        assert c.lookup(1, 8, 2.0) is None
        assert list(c.routes) == [(1, 9)]

    def test_destination_without_routes_has_no_entry(self):
        c = RouteCache()
        c.insert(1, self.entry(dst=9, path=(1, 9), expires=5.0), 0.0)
        c.insert(1, self.entry(dst=8, path=(1, 2, 8)), 0.0)
        assert c.lookup(1, 9, 6.0) is None
        assert list(c.routes) == [(1, 8)]
        c.purge_node(2)
        assert c.routes == {}

    def test_qos_filter(self):
        c = RouteCache()
        c.insert(1, self.entry(), 0.0)
        strict = QosRequirement(min_bandwidth=100.0)
        assert c.lookup(1, 9, 0.0, lambda r: strict.admits(r.metrics)) is None

    def test_rejected_route_skipped_not_dropped(self):
        c = RouteCache()
        stale = self.entry(path=(1, 2, 9))
        c.insert(1, stale, 0.0)
        c.insert(1, self.entry(path=(1, 9)), 0.0)
        assert c.lookup(1, 9, 0.0, lambda r: 2 not in r.path).path == (1, 9)
        assert c.lookup(1, 9, 0.0) is stale


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
        for idx in range(1, len(route.path) - 1):
            [cached] = r.cache.routes[route.path[idx], 5].values()
            assert cached.path == route.path[idx:]
            assert cached.levels == route.levels[idx:]
            assert cached.metrics == path_metrics(cached.path, state,
                                                  levels=cached.levels)

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
        r = make_router(state, clusters, trace=records.append)
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
                        trace=records.append)
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
        r.pheromone.deposit(0, 0, 2, 3, 1.0)
        assert r.discover_route(0, 3, now=0.0).path == path


class TestFloodMemo:
    """A discovery after a topology change floods the new topology.

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
                        trace=records.append)
        first = r.discover_route(0, 3, now=0.0)
        second = r.discover_route(0, 3, now=1.0)
        assert len(r._floods) == 1
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
                        trace=records.append)
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
                        trace=records.append)
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
                        trace=records.append)
        r.discover_route(0, 3, now=0.0)
        state.nodes[1].energy = 5.0  # no touch(): links do not change
        route = r.discover_route(0, 3, now=1.0)
        energies = [rec["packet"]["energy"] for rec in records
                    if rec["kind"] == "reply_knave_ant"]
        assert energies == [100.0, 100.0, 5.0, 100.0]
        assert route.metrics == path_metrics(route.path, state,
                                             levels=route.levels)
        self.check_replies(records, state, 1.0)


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
        # both regions, so every ant but the first is self-addressed.
        (None, [(0, 10, 0), (10, 10, 0), (10, 10, 0), (10, 10, 1)], None),
        (lambda clusters: clusters.leave(0, 20, 3), [],
         "node 3 has no level-0 head"),
        (lambda clusters: clusters.dissolve(1, 20), [(0, 10, 0)],
         "node 20 has no level-1 head"),
        (lambda clusters: clusters.leave(2, 10, 20), [(0, 10, 0), (10, 10, 0)],
         "node 20 has no level-2 head"),
        (lambda clusters: clusters.install(2, {10: set(), 20: set()}, 1.0),
         [(0, 10, 0), (10, 10, 0)], "level-2 heads 10 and 20 differ"),
    ], ids=["found", "no_l0_head", "no_l1_head", "no_l2_head",
            "different_l2_heads"])
    def test_cross_region_route_ants(self, edit, ants, error):
        """The exact route ants and failure message of each exit of
        cross-region discovery: a missing or differing head stops it
        before that level's ant."""
        state, clusters = two_region_world(cross_region=True)
        records = []
        r = make_router(state, clusters, trace=records.append)
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
