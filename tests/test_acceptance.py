"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line so the whole gate can be read
off a -s run at a glance.  Oracles are independent recomputations:
direct arithmetic substitution, brute-force graph search (networkx),
bisection for link expiry, and byte comparison against a committed
golden trace.
"""

import functools
import json
import math
import random
import time
from pathlib import Path

import networkx as nx
import pytest

from antmanet import routing
from antmanet.clustering import (WeightParams, form_hierarchy, node_weight,
                                 select_cluster_heads)
from antmanet.config import BeaconConfig, load_scenario
from antmanet.engine import Simulator, TraceWriter
from antmanet.maintenance import MaintenanceManager
from antmanet.model import NetworkState, NodeAttributes
from antmanet.qos import (DepositParams, PathMetrics, path_metrics,
                          pheromone_deposit)
from antmanet.routing import (PheromoneTable, PreferenceParams,
                              path_preference_probability)

from helpers import (DEFAULTS, add_node, check_invariants, make_router,
                     make_state, manual_clusters, preference_score,
                     record_sink)

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
DATA = Path(__file__).resolve().parent / "data"


def report(label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*a, **kw):
            try:
                fn(*a, **kw)
            except BaseException:
                print(f"criterion {label}: FAIL")
                raise
            print(f"criterion {label}: PASS")
        return wrapper
    return deco


# ---------------------------------------------------------------------------
# 1. Formula fidelity


def _let_oracle(pa, va, pb, vb, r):
    dpx, dpy = pa[0] - pb[0], pa[1] - pb[1]
    dvx, dvy = va[0] - vb[0], va[1] - vb[1]
    if dvx == 0.0 and dvy == 0.0:
        return math.inf

    def gap(t):
        return math.hypot(dpx + t * dvx, dpy + t * dvy) - r

    speed = math.hypot(dvx, dvy)
    hi = (math.hypot(dpx, dpy) + r) / speed + 1.0
    lo = 0.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if gap(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2.0


@report("1 (formula fidelity)")
def test_formula_fidelity():
    started = time.monotonic()
    rng = random.Random(101)

    for _ in range(100):
        ws = [rng.random() + 0.01 for _ in range(4)]
        total = sum(ws)
        ws = [w / total for w in ws]
        c, e, m, d = (rng.uniform(0, 10) for _ in range(4))
        got = node_weight(c, e, m, d, WeightParams(*ws))
        assert abs(got - (ws[0] * c + ws[1] * e - ws[2] * m + ws[3] * d)) < 1e-9

    for _ in range(100):
        n = rng.randint(2, 8)
        state = NetworkState()
        delays, bws = [], []
        for i in range(n):
            state.add_node(i, NodeAttributes(
                position=(i * 50.0, 0.0),
                velocity=(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                energy=rng.uniform(1, 100), tx_range=(80.0,),
                node_delay=rng.uniform(0.001, 0.01)))
        for i in range(n - 1):
            d, b = rng.uniform(0.001, 0.01), rng.uniform(1e5, 1e7)
            delays.append(d)
            bws.append(b)
            state.set_link_params(i, i + 1, 0, delay=d, bandwidth=b)
        route = list(range(n))
        node_delays = [state.nodes[i].node_delay for i in route]
        m = path_metrics(route, state, levels=(0,) * (n - 1))
        assert abs(m.delay - (sum(delays) + sum(node_delays))) < 1e-9
        assert abs(m.bandwidth - min(bws)) < 1e-9
        assert abs(m.energy - min(state.nodes[i].energy for i in route)) < 1e-9
        assert m.hop_count == n
        lets = [_let_oracle(state.nodes[i].position, state.nodes[i].velocity,
                            state.nodes[i + 1].position,
                            state.nodes[i + 1].velocity, 80.0)
                for i in range(n - 1)]
        got = m.let
        want = min(lets)
        assert got == want or abs(got - want) < 1e-9

    for _ in range(100):
        m = PathMetrics(delay=rng.uniform(0.1, 10),
                        bandwidth=rng.uniform(0.1, 10),
                        energy=rng.uniform(0.1, 10), let=rng.uniform(0.1, 10),
                        hop_count=rng.randint(1, 9))
        p = DepositParams(lambda_b=rng.uniform(0.5, 2),
                          lambda_e=rng.uniform(0.5, 2),
                          lambda_t=rng.uniform(0.5, 2),
                          lambda_d=rng.uniform(0.5, 2),
                          lambda_hc=rng.uniform(0.5, 2))
        want = ((m.bandwidth ** p.lambda_b + m.energy ** p.lambda_e
                 + m.let ** p.lambda_t)
                / (m.delay ** p.lambda_d + m.hop_count ** p.lambda_hc))
        assert abs(pheromone_deposit(m, p) - want) < 1e-9

    for _ in range(100):
        cands = []
        for j in range(rng.randint(1, 6)):
            mm = PathMetrics(delay=rng.uniform(0.1, 5),
                             bandwidth=rng.uniform(0.1, 5),
                             energy=rng.uniform(0.1, 5),
                             let=rng.uniform(0.1, 5),
                             hop_count=rng.randint(1, 6))
            cands.append((j, mm, rng.uniform(0.1, 5)))
        probs = path_preference_probability(
            {j: preference_score(mm, tau, PreferenceParams())
             for j, mm, tau in cands})
        scores = {j: tau / mm.delay / mm.hop_count * mm.bandwidth
                  * mm.energy * mm.let for j, mm, tau in cands}
        s = sum(scores.values())
        assert all(abs(probs[j] - scores[j] / s) < 1e-9 for j in scores)

    for _ in range(100):
        q = rng.uniform(0.01, 1.0)
        tau = rng.uniform(0, 10)
        t = PheromoneTable(q=q, initial=DEFAULTS.pheromone.initial)
        t.entries[(0, 0, 0, 1)] = tau
        t.evaporate()
        assert abs(t.entries[(0, 0, 0, 1)] - (1 - q) * tau) < 1e-9

    assert time.monotonic() - started < 5.0


# ---------------------------------------------------------------------------
# 2. Clustering coverage


@report("2 (clustering coverage)")
def test_clustering_coverage():
    started = time.monotonic()
    for seed in range(200):
        rng = random.Random(seed)
        n = rng.randint(10, 100)
        arena = max(200.0, n * 8.0)
        state = make_state()
        for i in range(n):
            add_node(state, i, (rng.uniform(0, arena), rng.uniform(0, arena)),
                     level=rng.choice([0, 0, 0, 1, 2]),
                     energy=rng.uniform(5, 100))
        clusters = form_hierarchy(state, WeightParams())
        check_invariants(state, clusters)
    assert time.monotonic() - started < 30.0


# ---------------------------------------------------------------------------
# 3. Argmax election


@report("3 (argmax election)")
def test_argmax_election():
    energy_only = WeightParams(w1=0.0, w2=1.0, w3=0.0, w4=0.0)
    for seed in range(100):
        rng = random.Random(seed)
        state = make_state()
        energies = rng.sample(range(10, 110), 5)
        for i, e in enumerate(energies):
            add_node(state, i, (i * 5.0, 0.0), energy=float(e))
        best = max(range(5), key=lambda i: energies[i])
        table = select_cluster_heads(state, 0, energy_only, range(5))
        assert set(table) == {best}, f"seed {seed} elected {sorted(table)}"


# ---------------------------------------------------------------------------
# 4. Routing against a min-delay shortest-path oracle


def _connected_graph(seed):
    rng = random.Random(seed)
    while True:
        n = rng.randint(5, 20)
        state = NetworkState(link_jitter=0.3, seed=seed)
        pts = [(rng.uniform(0, 200), rng.uniform(0, 200)) for _ in range(n)]
        for i, p in enumerate(pts):
            state.add_node(i, NodeAttributes(position=p, tx_range=(70.0,)))
        g = nx.Graph()
        g.add_nodes_from(range(n))
        for i in range(n):
            for j in range(i + 1, n):
                link = state.link(i, j, 0)
                if link is not None:
                    g.add_edge(i, j, delay=link.delay)
        if nx.is_connected(g):
            return state, g, n


@report("4 (routing oracle)")
def test_routing_matches_min_delay_oracle():
    started = time.monotonic()
    delay_only = PreferenceParams(alpha1=0.0, alpha2=1.0, alpha3=0.0,
                                  alpha4=0.0, alpha5=0.0, alpha6=0.0)
    matches = 0
    for seed in range(50):
        state, g, n = _connected_graph(seed)
        clusters = manual_clusters({0: {0: set(range(1, n))}, 1: {}, 2: {}})
        # Each cached route expires before the next round rediscovers.
        router = make_router(state, clusters, pref=delay_only,
                             deposit=DepositParams(), cache_max_age=0.5)
        src, dst = 0, n - 1
        route = None
        for round_no in range(30):
            route = router.discover_route(src, dst, now=float(round_no))
        # Oracle: additive delay over links and every node on the path.
        weight = lambda u, v, d: d["delay"] + state.node(v).node_delay
        best = nx.shortest_path_length(g, src, dst, weight=weight) \
            + state.node(src).node_delay
        got = path_metrics(route.path, state, levels=route.levels).delay
        if abs(got - best) < 1e-12:
            matches += 1
    assert matches >= 45, f"matched the oracle in only {matches}/50 graphs"
    assert time.monotonic() - started < 60.0


# ---------------------------------------------------------------------------
# 5. Hierarchical reachability over three regions


def three_region_world():
    """Three regions, two level-0 clusters each, one shared level-2 head."""
    state = make_state()
    centers = {1: (0.0, 0.0), 2: (500.0, 0.0), 3: (250.0, 430.0)}
    levels = {0: {}, 1: {}, 2: {100: {200, 300}}}
    for r, (cx, cy) in centers.items():
        h1 = r * 100  # level-1 head of the region, level-2 capable
        h0 = r * 100 + 10  # second level-0 cluster head
        add_node(state, h1, (cx, cy), level=2)
        add_node(state, h0, (cx + 200.0, cy), level=1)
        members = {}
        for head, hx in ((h1, cx), (h0, cx + 200.0)):
            members[head] = {head + 1, head + 2}
            add_node(state, head + 1, (hx - 30.0, cy))
            add_node(state, head + 2, (hx + 30.0, cy))
        levels[0][h1] = members[h1]
        levels[0][h0] = members[h0]
        levels[1][h1] = {h0}
    return state, manual_clusters(levels)


@report("5 (hierarchical reachability)")
def test_hierarchical_reachability():
    state, clusters = three_region_world()
    # Each pair is discovered a second later, after every cached route
    # has expired.
    router = make_router(state, clusters, deposit=DepositParams(),
                         cache_max_age=0.5)
    nodes = sorted(state.nodes)
    now = 0.0

    def region(n):
        return clusters.head_of(clusters.head_of(n, 0), 1)

    checked = cross = 0
    for src in nodes:
        for dst in nodes:
            if src == dst or clusters.head_of(src, 0) == clusters.head_of(dst, 0):
                continue
            now += 1.0
            route = router.discover_route(src, dst, now=now)
            path, levels = route.path, route.levels
            assert path[0] == src and path[-1] == dst
            for (a, b), level in zip(zip(path, path[1:]), levels):
                assert state.linked(a, b, level)
                if level >= 1:
                    # Inter-head hops ride overlay links between heads only.
                    assert a in clusters.participants(level)
                    assert b in clusters.participants(level)
            l2_hops = sum(1 for level in levels if level == 2)
            if region(src) != region(dst):
                assert l2_hops == 1, \
                    f"{src}->{dst} used {l2_hops} level-2 relays: {path}"
                cross += 1
            else:
                assert l2_hops == 0
            checked += 1
    assert checked > 200 and cross > 100


# ---------------------------------------------------------------------------
# 6. Maintenance closure for every structural case


def _manager_for(state, clusters):
    router = make_router(state, clusters)
    return MaintenanceManager(state, clusters, router, WeightParams(),
                              BeaconConfig())


def _cycle_until(mgr, bound):
    t = mgr.beacon.interval
    while t <= bound:
        mgr.run_cycle(t)
        t += mgr.beacon.interval


@report("6 (maintenance closure)")
def test_maintenance_closure():
    # Case 1.1: a plain member walks away; detected exactly at the bound.
    state, clusters = three_region_world()
    mgr = _manager_for(state, clusters)
    bound = mgr.beacon.detection_bound
    state.nodes[101].position = (0.0, -5000.0)
    state.touch()
    t = mgr.beacon.interval
    while t < bound:
        mgr.run_cycle(t)
        assert 101 in clusters.members_of(100, 0), "removed before the bound"
        t += mgr.beacon.interval
    mgr.run_cycle(bound)
    assert 101 not in clusters.members_of(100, 0)
    check_invariants(state, clusters)

    # Case 1.2: a level-0 head dies; orphans re-covered.
    state, clusters = three_region_world()
    mgr = _manager_for(state, clusters)
    state.nodes[110].alive = False
    state.touch()
    _cycle_until(mgr, bound)
    assert 110 not in clusters.participants(0)
    assert clusters.head_of(111, 0) is not None
    check_invariants(state, clusters)

    # Case 2: a newcomer in head range joins that cluster.
    state, clusters = three_region_world()
    mgr = _manager_for(state, clusters)
    add_node(state, 999, (15.0, 0.0))
    _cycle_until(mgr, bound)
    assert clusters.head_of(999, 0) is not None
    check_invariants(state, clusters)

    # Case 3: two level-0 heads drift into mutual range and merge.
    state, clusters = three_region_world()
    mgr = _manager_for(state, clusters)
    for nid, x in ((110, 60.0), (111, 40.0), (112, 80.0)):
        state.nodes[nid].position = (x, 0.0)
    state.touch()
    _cycle_until(mgr, bound)
    group = {100, 101, 102, 110, 111, 112}
    heads_in_group = group & clusters.heads(0)
    assert len(heads_in_group) == 1, f"merge left heads {heads_in_group}"
    head = next(iter(heads_in_group))
    assert clusters.members_of(head, 0) == group - {head}
    check_invariants(state, clusters)

    # Case 4.1 (+6.2): a level-1 head dies; its region re-forms and the
    # level-2 cluster drops the dead member.
    state, clusters = three_region_world()
    mgr = _manager_for(state, clusters)
    state.nodes[200].alive = False
    state.touch()
    _cycle_until(mgr, bound)
    assert 200 not in clusters.participants(0)
    assert 200 not in clusters.participants(1)
    assert 200 not in clusters.participants(2)
    assert clusters.head_of(210, 1) is not None
    check_invariants(state, clusters)

    # Case 4.2: a level-0 head drifts out of its level-1 head's range with
    # its whole cluster; removal happens exactly at the bound.
    state, clusters = three_region_world()
    mgr = _manager_for(state, clusters)
    for nid in (110, 111, 112):
        x, y = state.nodes[nid].position
        state.nodes[nid].position = (x, y - 5000.0)
    state.touch()
    t = mgr.beacon.interval
    while t < bound:
        mgr.run_cycle(t)
        assert 110 in clusters.members_of(100, 1), "removed before the bound"
        t += mgr.beacon.interval
    mgr.run_cycle(bound)
    assert 110 not in clusters.members_of(100, 1)
    assert clusters.head_of(110, 1) is not None  # re-covered in its own region
    check_invariants(state, clusters)

    # Case 5: a new level-1-capable head is adopted into the overlay.
    state, clusters = three_region_world()
    mgr = _manager_for(state, clusters)
    add_node(state, 888, (-150.0, 150.0), level=1)
    _cycle_until(mgr, bound)
    assert clusters.head_of(888, 0) == 888
    assert clusters.head_of(888, 1) is not None
    check_invariants(state, clusters)

    # Case 6.1: the level-2 head dies; surviving regions rebuild level 2.
    state, clusters = three_region_world()
    mgr = _manager_for(state, clusters)
    state.nodes[100].alive = False
    state.touch()
    _cycle_until(mgr, bound)
    assert 100 not in clusters.participants(2)
    for h in (200, 300):
        assert clusters.head_of(h, 2) is not None
    check_invariants(state, clusters)

    # Case 7: an uncovered capable level-1 head rejoins level 2.
    state, clusters = three_region_world()
    mgr = _manager_for(state, clusters)
    clusters.leave(2, 100, 300)
    _cycle_until(mgr, bound)
    assert clusters.head_of(300, 2) is not None
    check_invariants(state, clusters)


# ---------------------------------------------------------------------------
# 7. Determinism and golden trace


def _run_reference():
    cfg = load_scenario(SCENARIOS / "reference.yaml")
    lines = []
    Simulator(cfg, trace=TraceWriter(lines.append)).run()
    return "".join(lines)


@report("7 (determinism)")
def test_determinism_and_golden_trace():
    runs = [_run_reference() for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]
    golden = (DATA / "reference.trace").read_text(encoding="utf-8")
    assert runs[0] == golden, "trace deviates from the committed golden file"


# ---------------------------------------------------------------------------
# 8. Conservation and safety on a long mobile run


@report("8 (conservation and safety)")
def test_conservation_and_safety(monkeypatch):
    started = time.monotonic()
    sums = []
    original = routing.path_preference_probability

    def recording(scores):
        probs = original(scores)
        sums.append(sum(probs.values()))
        return probs

    monkeypatch.setattr(routing, "path_preference_probability", recording)

    cfg = load_scenario(SCENARIOS / "soak.yaml")
    assert cfg.duration == 500.0
    assert len(list(cfg.nodes())) == 50
    assert len(cfg.flows) == 10

    records = []
    sim = Simulator(cfg, trace=record_sink(records))
    summary = sim.run()

    assert summary["packets_sent"] == (summary["packets_delivered"]
                                       + summary["packets_dropped"]
                                       + summary["packets_in_flight"])
    assert summary["packets_delivered"] > 0
    assert all(n.energy >= 0.0 for n in sim.state.nodes.values())
    assert all(len(r.path) > 2 for r in sim.router.cache.routes.values())
    replies = [rec["packet"]["to_visit"] for rec in records
               if rec.get("kind", "").startswith("reply_")]
    assert replies, "no ants were emitted"
    for stack in replies:
        assert len(stack) == len(set(stack)), f"duplicate visit in {stack}"
    assert sums, "no preference vectors were computed"
    assert all(abs(s - 1.0) <= 1e-9 for s in sums)
    assert time.monotonic() - started < 120.0
