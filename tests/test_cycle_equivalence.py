"""The beacon cycle's fast paths against test-local copies of the full scans.

``reference_weight_table`` sums every participant's distances for the
group maximum, ``reference_check_reelection_triggers`` builds every
level's full weight table on every call, ``reference_detect_head_merges``
tests every head pair, ``reference_build_adjacency`` concatenates the
candidate lists per node and tests ``d <= min(ra, rb)``, and
``reference_best_head_in_range`` tests every head for each node.
``reference_head_of`` and ``reference_participants`` scan the cluster
tables instead of reading the head index,
``reference_cover_orphans`` tests every live node's eligibility, and
``reference_beacon_tick`` tests each member's liveness and counts its
packets one by one.  ``reference_scoped_election`` writes its election's
result by its own dissolve, leave and join calls instead of through
`ClusterState.install`, and ``reference_run_cycle`` ends a repair round
when a copy of every cluster table taken before it compares equal after
it, instead of reading the hierarchy epoch.  Each must give the same
result, in the same order, as the code it stands in for.

Elections have no reference loop: ``helpers.checked_election`` checks each
table against the rule it implements, on random layouts and on every
election of the mobile runs.
"""

import math
import random
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antmanet import clustering
from antmanet.clustering import (ClusterState, WeightParams,
                                 check_reelection_triggers, form_hierarchy,
                                 weight_table)
from antmanet.config import (Arena, BeaconConfig, EnergyCosts, FlowConfig,
                             MobilityConfig, NodeGroup, ScenarioConfig)
from antmanet.engine import Simulator, TraceWriter
from antmanet.maintenance import CASES, MaintenanceManager, MembershipEvent
from antmanet.model import NetworkState

from helpers import add_node, checked_election, make_state, manual_clusters


def reference_weight_table(state, level, participants, p):
    participants = sorted(participants)
    pset = set(participants)
    raw = {}
    for n in participants:
        attrs = state.node(n)
        nbrs = state.neighbors(n, level) & pset
        total = 0.0
        for m in sorted(nbrs):
            total += math.dist(attrs.position, state.node(m).position)
        raw[n] = (float(len(nbrs)), attrs.energy, attrs.mobility, total)
    maxima = [max((inputs[k] for inputs in raw.values()), default=0.0)
              for k in range(4)]
    weights = {}
    for n, inputs in raw.items():
        scaled = [v / top if top > 0 else 0.0 for v, top in zip(inputs, maxima)]
        weights[n] = clustering.node_weight(*scaled, p)
    return weights


def reference_check_reelection_triggers(state, clusters, p, joins=None):
    flagged = set()
    for level in sorted(clusters.levels):
        participants = clusters.participants(level)
        participants = [n for n in participants if state.node(n).alive]
        if not participants:
            continue
        weights = reference_weight_table(state, level, participants, p)
        for head in clusters.heads(level):
            if head in weights and weights[head] < p.theta_w:
                flagged.add((level, head))
        if joins:
            for jlevel, head, node in joins:
                if jlevel == level and head in weights and node in weights:
                    if weights[node] > weights[head]:
                        flagged.add((level, head))
    return flagged


def reference_head_of(self, node, level):
    table = self.levels.get(level, {})
    if node in table:
        return node
    for head, members in table.items():
        if node in members:
            return head
    return None


def reference_participants(self, level):
    out = set()
    for head, members in self.levels.get(level, {}).items():
        out.add(head)
        out.update(members)
    return out


def reference_cover_orphans(self, level, now, case):
    orphans = (clustering.candidates(self.state, self.clusters, level)
               - self.clusters.participants(level))
    remainder = set()
    for n in sorted(orphans):
        ev = MembershipEvent("member_joined", level, node=n)
        if not self.handle_membership_change(ev, now):
            remainder.add(n)
    if remainder:
        self._scoped_election(level, remainder, now, case=case)


def reference_beacon_tick(self, head, level, now):
    if not self.state.node(head).alive:
        return
    self.energy_debit(head, "beacon")
    self.stats["beacon_packets"] += 1
    near = self.state.neighbors(head, level)
    for m in sorted(self.clusters.members_of(head, level)):
        if self.state.node(m).alive and m in near:
            self.clusters.refresh(level, head, (m,), now)
            self.energy_debit(m, "beacon")
            self.stats["beacon_packets"] += 1


def reference_detect_head_merges(self, now):
    events = []
    heads = sorted(h for h in self.clusters.heads(0)
                   if self.state.node(h).alive)
    head_set = set(heads)
    self._merge_attempted = {p for p in self._merge_attempted
                             if p <= head_set}
    for i, h1 in enumerate(heads):
        for h2 in heads[i + 1:]:
            if h2 in self.state.neighbors(h1, 0):
                if frozenset((h1, h2)) not in self._merge_attempted:
                    events.append(MembershipEvent(
                        "heads_in_range", 0, head=h1, other=h2))
    return events


def reference_build_adjacency(self, level):
    members = []
    for nid, attrs in self.nodes.items():
        if attrs.alive and attrs.supports(level):
            x, y = attrs.position
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"non-finite coordinate on node {nid}")
            members.append((nid, x, y, attrs.range_at(level)))
    cell = max((m[3] for m in members), default=0.0) * (1.0 + 1e-9)
    if not cell > 0.0:
        cell = 1.0
    grid = defaultdict(list)
    for i, (_, x, y, r) in enumerate(members):
        grid[(math.floor(x / cell), math.floor(y / cell))].append((i, x, y, r))
    found = [[] for _ in members]
    for (cx, cy), here in grid.items():
        after = [m for key in ((cx, cy + 1), (cx + 1, cy - 1), (cx + 1, cy),
                               (cx + 1, cy + 1))
                 for m in grid.get(key, ())]
        for k, (i, ax, ay, ra) in enumerate(here):
            for j, bx, by, rb in here[k + 1:] + after:
                if math.hypot(ax - bx, ay - by) <= min(ra, rb):
                    found[i].append(j)
                    found[j].append(i)
    adj = dict.fromkeys(self.nodes, frozenset())
    for i, (nid, _, _, _) in enumerate(members):
        adj[nid] = frozenset(members[j][0] for j in found[i])
    return adj


def reference_best_head_in_range(self, level, node):
    heads = [h for h in sorted(self.clusters.heads(level))
             if self.state.node(h).alive
             and node in self.state.neighbors(h, level)]
    if not heads:
        return None
    participants = sorted(set(heads) | {node})
    weights = reference_weight_table(self.state, level, participants,
                                     self.wparams)
    return max(heads, key=lambda h: (weights[h], -h))


def reference_scoped_election(self, level, nodes, now, case):
    clusters = self.clusters
    nodes = sorted(n for n in nodes
                   if clustering.eligible(self.state, clusters, n, level))
    if not nodes:
        return
    try:
        elected = clustering.select_cluster_heads(
            self.state, level, self.wparams, participants=nodes)
    except clustering.ElectionError:
        self.trace({"kind": "maintenance", "t": now, "case": case,
                    "level": level, "error": "election-failed"})
        return
    node_set = set(nodes)
    table = clusters.levels.get(level, {})
    for h in list(table):
        if h in node_set:
            clusters.dissolve(level, h)
        else:
            for m in table[h] & node_set:
                clusters.leave(level, h, m)
    for h, members in elected.items():
        clusters.join(level, h, members, now)
    self.stats[f"elections_l{level}"] += len(elected)
    self.trace({"kind": "election", "t": now, "level": level,
                "case": case, "heads": sorted(elected)})


def reference_run_cycle(self, now, max_rounds=8):
    for level in sorted(self.clusters.levels):
        for head in sorted(self.clusters.heads(level)):
            self.beacon_tick(head, level, now)
    for _ in range(max_rounds):
        before = {level: {head: set(members)
                          for head, members in table.items()}
                  for level, table in self.clusters.levels.items()}
        for ev in self.detect_changes(now):
            self.handle_membership_change(ev, now)
        self._cover_orphans(0, now, case=CASES["head_left"][0])
        for ev in self.detect_head_merges(now):
            self.handle_membership_change(ev, now)
        self.propagate_hierarchy_change(now)
        self.check_reelection(now)
        if self.clusters.levels == before:
            break
    else:
        self.stats["round_cap_hits"] += 1


def _clustered_layout(seed, n, span, dead_share):
    """Random mixed-level layout, elected on all three levels, then some
    nodes drained or killed without re-election (as between two beacon
    cycles), so members can outweigh their heads."""
    rng = random.Random(seed)
    state = make_state()
    for nid in range(n):
        add_node(state, nid, (rng.uniform(0, span), rng.uniform(0, span)),
                 level=rng.choice([0, 0, 1, 1, 2]),
                 energy=rng.uniform(1.0, 100.0),
                 mobility=rng.uniform(0.0, 5.0))
    clusters = form_hierarchy(state, WeightParams())
    for nid, attrs in state.nodes.items():
        attrs.energy *= rng.choice([1.0, 0.05])
        if rng.random() < dead_share:
            attrs.alive = False
    state.touch()
    return state, clusters, rng


def _farthest(state, clusters, level):
    """The live level-`level` participant with the largest summed distance
    to its linked live participants (the lowest id on a tie), or None."""
    live = {n for n in clusters.participants(level) if state.node(n).alive}
    sums = {n: sum(math.dist(state.node(n).position, state.node(m).position)
                   for m in state.neighbors(n, level) & live)
            for n in live}
    return max(sorted(sums), key=lambda n: sums[n], default=None)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
       span=st.sampled_from([150.0, 400.0, 900.0]),
       dead_share=st.sampled_from([0.0, 0.2]),
       theta_w=st.sampled_from([-math.inf, -0.1, 0.0, 0.2, 0.5]),
       join_levels=st.sets(st.sampled_from([0, 1, 2])),
       spare_farthest=st.booleans())
def test_reelection_triggers_match_full_tables(seed, n, span, dead_share,
                                               theta_w, join_levels,
                                               spare_farthest):
    """With `spare_farthest`, no join and no weighed subset names the node
    with a level's largest distance sum, so unless it heads a cluster,
    only the group maximum sees its sum."""
    state, clusters, rng = _clustered_layout(seed, n, span, dead_share)
    joins = []
    for level in sorted(join_levels):
        far = _farthest(state, clusters, level) if spare_farthest else None
        for head, members in sorted(clusters.levels.get(level, {}).items()):
            # Members the head really has, and nodes from elsewhere.
            for node in sorted(members) + rng.sample(sorted(state.nodes), 1):
                if rng.random() < 0.5 and far not in (head, node):
                    joins.append((level, head, node))
    p = WeightParams(theta_w=theta_w)
    expected = reference_check_reelection_triggers(state, clusters, p, joins)
    assert check_reelection_triggers(state, clusters, p, joins) == expected
    assert check_reelection_triggers(state, clusters, p, iter(joins)) == expected
    # The weights of every participant, and of a random subset of them.
    for level in (0, 1, 2):
        live = {n for n in clusters.participants(level)
                if state.node(n).alive}
        full = reference_weight_table(state, level, live, p)
        assert weight_table(state, level, live, p) == full
        far = _farthest(state, clusters, level) if spare_farthest else None
        pool = sorted(live - {far})
        subset = set(rng.sample(pool, rng.randint(0, len(pool))))
        assert weight_table(state, level, live, p, subset) == {
            n: full[n] for n in subset}


def test_reelection_triggers_count_an_uncompared_farthest_node():
    """Layouts where the largest distance sum belongs to a live member
    that neither joined nor heads a cluster: the triggers still divide
    by it, as the full tables do, and flag the same heads."""
    cases = flagged = 0
    for seed in range(30):
        state, clusters, rng = _clustered_layout(seed, 40, 400.0, 0.2)
        for level in sorted(clusters.levels):
            far = _farthest(state, clusters, level)
            if far is None or far in clusters.heads(level):
                continue
            pairs = [(level, head, m)
                     for head, members in sorted(clusters.levels[level].items())
                     for m in sorted(members) if m != far]
            joins = rng.sample(pairs, min(3, len(pairs)))
            for theta_w in (-math.inf, 0.0, 0.3):
                p = WeightParams(theta_w=theta_w)
                got = check_reelection_triggers(state, clusters, p, joins)
                assert got == reference_check_reelection_triggers(
                    state, clusters, p, joins), (seed, level, theta_w)
                flagged += bool(got)
            cases += 1
    assert cases >= 20 and flagged >= 10, (cases, flagged)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
       span=st.sampled_from([100.0, 300.0, 800.0]),
       head_share=st.sampled_from([0.3, 0.6, 1.0]),
       attempted=st.integers(0, 12))
def test_head_merges_match_all_pairs_scan(seed, n, span, head_share,
                                          attempted):
    rng = random.Random(seed)
    state = make_state()
    for nid in rng.sample(range(4 * n), n):
        add_node(state, nid, (rng.uniform(0, span), rng.uniform(0, span)),
                 level=rng.choice([0, 1, 2]))
        state.nodes[nid].alive = rng.random() > 0.15
    state.touch()
    ids = sorted(state.nodes)
    heads = [nid for nid in ids if rng.random() < head_share]
    clusters = manual_clusters({0: {h: set() for h in heads}})
    # Earlier attempts: pairs of live heads in range, and pairs that a
    # dead head or a non-head must drop from the list.
    linked = [frozenset((a, b)) for a in heads for b in heads
              if a < b and b in state.neighbors(a, 0)]
    others = [frozenset(rng.sample(ids, 2)) for _ in range(3)] if n > 1 else []
    pool = linked + others
    tried = set(rng.sample(pool, min(attempted, len(pool))))

    def run(detect):
        mgr = MaintenanceManager(state, clusters, None, WeightParams(),
                                 BeaconConfig())
        mgr._merge_attempted = set(tried)
        return detect(mgr, 0.0), mgr._merge_attempted

    events, kept = run(MaintenanceManager.detect_head_merges)
    assert (events, kept) == run(reference_detect_head_merges)
    if linked and not tried:
        assert events


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
       span=st.sampled_from([150.0, 400.0, 900.0]),
       dead_share=st.sampled_from([0.0, 0.2]),
       theta_w=st.sampled_from([-math.inf, 0.0, 0.3]))
def test_elections_match_head_scans(seed, n, span, dead_share, theta_w):
    """Each level's election over the live nodes with its interface obeys
    the rule, and orphan adoption picks the head a scan of every head
    picks."""
    state, clusters, _ = _clustered_layout(seed, n, span, dead_share)
    p = WeightParams(theta_w=theta_w)
    for level in (0, 1, 2):
        participants = [nid for nid in state.alive_ids()
                        if state.node(nid).supports(level)]
        try:
            checked_election(state, level, p, participants)
        except clustering.ElectionError:
            pass

    mgr = MaintenanceManager(state, clusters, None, WeightParams(),
                             BeaconConfig())
    for level in (0, 1, 2):
        for nid in sorted(state.nodes):
            assert (mgr._best_head_in_range(level, nid)
                    == reference_best_head_in_range(mgr, level, nid))


def _mobile_config(theta_w):
    return ScenarioConfig(
        seed=21, duration=60.0, arena=Arena(500, 500),
        groups=[NodeGroup(count=30, max_level=0, energy=0.008),
                NodeGroup(count=20, max_level=1),
                NodeGroup(count=10, max_level=2)],
        weights=WeightParams(theta_w=theta_w),
        mobility=MobilityConfig(enabled=True, speed_min=1.0, speed_max=6.0,
                                pause=1.0),
        energy_costs=EnergyCosts(tx_packet=0.002, tx_bit=1e-7,
                                 rx_packet=0.001, rx_bit=5e-8,
                                 beacon=0.0002),
        flows=[FlowConfig(src=s, dst=d, start=1.0 + i, packets=10,
                          interval=4.0)
               for i, (s, d) in enumerate([(0, 59), (31, 45), (50, 12),
                                           (5, 40), (22, 55), (33, 58)])])


def _trace(theta_w):
    lines = []
    summary = Simulator(_mobile_config(theta_w),
                        trace=TraceWriter(lines.append)).run()
    return lines, summary


@pytest.mark.parametrize("theta_w", [-math.inf, 0.0])
def test_mobile_run_matches_references(monkeypatch, theta_w):
    fast, fast_stats = _trace(theta_w)
    monkeypatch.setattr(clustering, "check_reelection_triggers",
                        reference_check_reelection_triggers)
    monkeypatch.setattr(MaintenanceManager, "detect_head_merges",
                        reference_detect_head_merges)
    monkeypatch.setattr(NetworkState, "_build_adjacency",
                        reference_build_adjacency)
    monkeypatch.setattr(ClusterState, "head_of", reference_head_of)
    monkeypatch.setattr(ClusterState, "participants", reference_participants)
    monkeypatch.setattr(MaintenanceManager, "_cover_orphans",
                        reference_cover_orphans)
    monkeypatch.setattr(MaintenanceManager, "beacon_tick",
                        reference_beacon_tick)
    monkeypatch.setattr(MaintenanceManager, "_scoped_election",
                        reference_scoped_election)
    monkeypatch.setattr(MaintenanceManager, "run_cycle", reference_run_cycle)
    monkeypatch.setattr(clustering, "select_cluster_heads", checked_election)
    ref, ref_stats = _trace(theta_w)
    assert fast_stats == ref_stats
    assert fast == ref
    # The run exercises joins (case 2), merges (case 3) and re-elections.
    cases = "".join(fast)
    for case in ('"case":"2"', '"case":"3"', '"case":"reelect"'):
        assert case in cases
    assert fast_stats["deaths"] > 0
