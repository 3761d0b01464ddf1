"""Reference implementations of the simulator's fast paths, and
`use_references`, which installs them all at once.

``BruteForceState`` derives every neighbor set and link, and the level
views ``adjacency`` and ``members``, from scratch on each call (each
lookup in its ``adjacency`` rescans), and ``reference_step`` moves each
node by its own ``mobility_update`` call and returns its own bound on
the tick's moves, the largest ``math.dist`` over the nodes it moved,
where ``RandomWaypoint.step`` returns the largest step it took.
``reference_weight_table`` sums every participant's distances for the
group maximum,
``reference_check_reelection_triggers`` builds every level's full weight
table on every call, ``reference_detect_head_merges`` tests every head
pair, and ``reference_best_head_in_range`` tests every head for each
node.  ``reference_head_of`` and ``reference_participants`` scan the
cluster tables instead of reading the head index,
``reference_beacon_tick`` tests each member's liveness, counts and
debits its packets and collects the members it missed one by one, and
``reference_detect_changes`` tests every member's stamp instead of only
the members the beacon round missed, and requires each stale member to
be one that round missed.  ``reference_scoped_election`` writes its
election's result by its own dissolve, leave and join calls instead of
through `ClusterState.install`, ``reference_run_cycle`` runs every
repair pass in every round, where the fast cycle skips the level-0
orphan cover and the upward reconciliation while neither could act, and
ends a repair round when a copy of every cluster table taken before it
compares equal after it, instead of reading the hierarchy epoch; run in
full every cycle, it is also the reference for the cycles that
`MaintenanceManager.run_cycle` skips as settled, and for the re-stamp
that follows them.  ``reference_discover_route`` starts every discovery
from an empty memo, and ``reference_queue_streams`` queues every
periodic event and every send inside the run before the loop starts,
each through `schedule`, instead of one event per stream at a time
(``reference_queue_next`` then queues nothing).
Each must give the same result, in the same order, as the code it stands
in for.  Elections have no reference loop: ``helpers.checked_election``
checks each table against the rule it implements.

``assert_matches_references`` runs one scenario with the fast paths and
under `use_references` and requires the same trace bytes.  ``MOBILE``
is the scenario that meets most of the references' paths.
"""

import math
from collections.abc import Mapping
from dataclasses import astuple

import pytest

from antmanet import clustering, engine
from antmanet.clustering import ClusterState
from antmanet.config import (Arena, EnergyCosts, FlowConfig, MobilityConfig,
                             NodeGroup, ScenarioConfig)
from antmanet.engine import (RandomWaypoint, Simulator, TraceWriter,
                             format_record)
from antmanet.errors import ElectionError
from antmanet.maintenance import CASES, MaintenanceManager, MembershipEvent
from antmanet.model import LinkAttributes, NetworkState, link_expiration_time
from antmanet.routing import Router

from helpers import as_record, checked_election


def mobility_update(attrs, waypoint, speed, dt, window):
    """Advance toward the waypoint at constant speed for dt seconds.

    Returns (new_position, arrived) and refreshes the node's running
    average speed over the configured window.
    """
    px, py = attrs.position
    wx, wy = waypoint
    dist = math.hypot(wx - px, wy - py)
    step = speed * dt
    if dist <= step or dist == 0.0:
        new_pos = (wx, wy)
        arrived = True
    else:
        f = step / dist
        new_pos = (px + (wx - px) * f, py + (wy - py) * f)
        arrived = False
    frac = min(dt / window, 1.0) if window > 0 else 1.0
    attrs.mobility += frac * (speed - attrs.mobility)
    attrs.position = new_pos
    if dist > 0:
        attrs.velocity = ((wx - px) / dist * speed, (wy - py) / dist * speed)
    else:
        attrs.velocity = (0.0, 0.0)
    return new_pos, arrived


def reference_step(self, nodes, now, dt):
    """Move every live node by its own `mobility_update` call, and return
    the largest distance, by `math.dist`, that any node moved."""
    longest = 0.0
    for nid in sorted(nodes):
        attrs = nodes[nid]
        if not attrs.alive:
            continue
        entry = self.targets.get(nid)
        if entry is None:
            entry = self._draw(now)
            self.targets[nid] = entry
        waypoint, speed, pause_until = entry
        old = attrs.position
        if now < pause_until:
            mobility_update(attrs, attrs.position, 0.0, dt, self.window)
        else:
            _, arrived = mobility_update(attrs, waypoint, speed, dt,
                                         self.window)
            if arrived:
                wp, sp, _ = self._draw(now)
                self.targets[nid] = (wp, sp, now + dt + self.pause)
        longest = max(longest, math.dist(old, attrs.position))
    return longest


def _linked(a, b, level):
    """Whether the nodes with attributes `a` and `b` share a link at `level`:
    both alive, both with the level's interface, within both ranges."""
    if not (a.alive and b.alive and a.max_level >= level <= b.max_level):
        return False
    (ax, ay), (bx, by) = a.position, b.position
    d = math.hypot(ax - bx, ay - by)
    if not math.isfinite(d) and not all(map(math.isfinite, (ax, ay, bx, by))):
        raise ValueError("non-finite coordinate")
    return d <= a.tx_range[level] and d <= b.tx_range[level]


class _Rescan(Mapping):
    """A level's neighbor map whose every lookup rescans the nodes."""

    def __init__(self, state, level):
        self.state, self.level = state, level

    def __getitem__(self, nid):
        return self.state.neighbors(nid, self.level)

    def __iter__(self):
        return iter(self.state.nodes)

    def __len__(self):
        return len(self.state.nodes)


class BruteForceState(NetworkState):
    """Rescans every node on every call; caches nothing but the jitter."""

    def adjacency(self, level):
        return _Rescan(self, level)

    def members(self, level):
        return [nid for nid, attrs in self.nodes.items()
                if attrs.alive and attrs.max_level >= level]

    def neighbors(self, nid, level):
        a = self.node(nid)
        return frozenset(m for m, b in self.nodes.items()
                         if m != nid and _linked(a, b, level))

    def linked(self, a, b, level):
        return _linked(self.node(a), self.node(b), level)

    def link(self, a, b, level):
        if not self.linked(a, b, level):
            return None
        lo, hi = (a, b) if a < b else (b, a)
        delay, bandwidth = self._overrides.get((lo, hi, level), (None, None))
        if delay is None:
            delay = self.link_delay[level] * self._jitter(a, b, level, "d")
        if bandwidth is None:
            bandwidth = self.link_bandwidth[level] * self._jitter(a, b, level, "b")
        na, nb = self.node(a), self.node(b)
        rng = min(na.tx_range[level], nb.tx_range[level])
        return LinkAttributes(delay=delay, bandwidth=bandwidth,
                              let=link_expiration_time(na, nb, rng))


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


def reference_beacon_tick(self, level, now):
    debit = self.energy_debit or (lambda nids: None)
    missed = {}
    for head in sorted(self.clusters.heads(level)):
        if not self.state.node(head).alive:
            continue
        debit((head,))
        self.stats["beacon_packets"] += 1
        near = self.state.neighbors(head, level)
        for m in sorted(self.clusters.members_of(head, level)):
            if self.state.node(m).alive and m in near:
                self.clusters.refresh(level, head, (m,), now)
                debit((m,))
                self.stats["beacon_packets"] += 1
            else:
                missed.setdefault(head, set()).add(m)
    return missed


def reference_detect_changes(self, now, missed):
    events = []
    bound = self.beacon.detection_bound
    last_heard = self.clusters.last_heard
    for level in sorted(self.clusters.levels):
        for head in sorted(self.clusters.heads(level)):
            members = self.clusters.members_of(head, level)
            if not self.state.node(head).alive:
                events.append(MembershipEvent("head_left", level, head=head))
                continue
            stale = []
            for m in sorted(members):
                if now - last_heard[(level, head, m)] >= bound:
                    assert m in missed.get(level, {}).get(head, ()), (
                        f"stale member {m} of {head} at level {level} was "
                        "not missed by its head's beacon round")
                    stale.append(m)
            if stale and len(stale) == len(members):
                events.append(MembershipEvent("head_left", level, head=head))
                continue
            for m in stale:
                events.append(MembershipEvent(
                    "member_left", level, head=head, node=m))
    return events


def reference_detect_head_merges(self, now):
    events = []
    heads = sorted(h for h in self.clusters.heads(0)
                   if self.state.node(h).alive)
    head_set = set(heads)
    self._merge_attempted = {p for p in self._merge_attempted
                             if p <= head_set}
    for i, h1 in enumerate(heads):
        near = self.state.neighbors(h1, 0)
        for h2 in heads[i + 1:]:
            if h2 in near:
                if frozenset((h1, h2)) not in self._merge_attempted:
                    events.append(MembershipEvent(
                        "heads_in_range", 0, head=h1, other=h2))
    return events


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
    missed = {}
    for level in sorted(self.clusters.levels):
        missed[level] = self.beacon_tick(level, now)
    for _ in range(max_rounds):
        before = {level: {head: set(members)
                          for head, members in table.items()}
                  for level, table in self.clusters.levels.items()}
        for ev in self.detect_changes(now, missed):
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


_discover_route = Router.discover_route


def reference_discover_route(self, *args, **kwargs):
    self._stamp = ()
    return _discover_route(self, *args, **kwargs)


def reference_queue_streams(self):
    cfg = self.config
    periodic = [(self._handle_beacon, cfg.beacon.interval),
                (self._handle_evaporate, cfg.pheromone.evaporation_interval)]
    if self.waypoints is not None:
        periodic.append((self._handle_mobility, cfg.mobility.update_interval))
    for handler, interval in periodic:
        t = interval
        while t <= cfg.duration:
            self.schedule(t, handler, interval)
            t += interval
    for i, flow in enumerate(cfg.flows):
        for k in range(flow.packets):
            st = flow.start + k * flow.interval
            if st > cfg.duration:  # so is every later send
                break
            self.schedule(st, self._handle_packet_send, (i, k))


def reference_queue_next(self, stream, t, handler, payload):
    pass


def use_references(monkeypatch):
    """Install every reference above in place of its fast path, and the
    checked election in place of the election."""
    monkeypatch.setattr(engine, "NetworkState", BruteForceState)
    monkeypatch.setattr(clustering, "check_reelection_triggers",
                        reference_check_reelection_triggers)
    monkeypatch.setattr(clustering, "select_cluster_heads", checked_election)
    monkeypatch.setattr(ClusterState, "head_of", reference_head_of)
    monkeypatch.setattr(ClusterState, "participants", reference_participants)
    monkeypatch.setattr(RandomWaypoint, "step", reference_step)
    for name, method in (("beacon_tick", reference_beacon_tick),
                         ("detect_changes", reference_detect_changes),
                         ("detect_head_merges", reference_detect_head_merges),
                         ("_best_head_in_range", reference_best_head_in_range),
                         ("_scoped_election", reference_scoped_election),
                         ("run_cycle", reference_run_cycle)):
        monkeypatch.setattr(MaintenanceManager, name, method)
    monkeypatch.setattr(Router, "discover_route", reference_discover_route)
    monkeypatch.setattr(Simulator, "_queue_streams", reference_queue_streams)
    monkeypatch.setattr(Simulator, "_queue_next", reference_queue_next)


def _plain_writer(write):
    """A trace sink that encodes every record, a Line's as the plain dict
    of its fields and "t"."""
    def sink(record, t=None):
        write(format_record(as_record(record, t)) + "\n")
    return sink


def _outcome(config, writer):
    """(trace text, summary or the initial election's error, simulator)."""
    lines = []
    sim = Simulator(config, trace=writer(lines.append))
    try:
        result = sim.run()
    except ElectionError as exc:
        result = repr(exc)
    return "".join(lines), result, sim


def assert_matches_references(config):
    """Run `config` with the fast paths and under `use_references`, whose
    lines are each `format_record` of the record rather than
    `TraceWriter`'s cached text.  Both must write the same trace bytes and
    return the same summary and counters, or fail the initial election
    with the same error, and the fast run must debit no energy when every
    cost is 0.  Returns the fast run's (trace text, summary or error,
    simulator)."""
    with pytest.MonkeyPatch.context() as mp:
        if not any(astuple(config.energy_costs)):
            # A debit would fail the run: with every cost 0 there is none.
            mp.setattr(engine, "energy_debit", None)
        fast = _outcome(config, TraceWriter)
    with pytest.MonkeyPatch.context() as mp:
        use_references(mp)
        slow = _outcome(config, _plain_writer)
    assert fast[0] == slow[0]
    assert fast[1] == slow[1]
    assert dict(fast[2].stats) == dict(slow[2].stats)
    return fast


KILLING = EnergyCosts(tx_packet=0.002, tx_bit=1e-7, rx_packet=0.001,
                      rx_bit=5e-8, beacon=0.0002)

# Level-0 nodes start nearly drained, so beacon costs kill some of them
# mid-run; the run also joins (case 2), merges (case 3) and re-elects.
MOBILE = ScenarioConfig(
    seed=21, duration=60.0, arena=Arena(500, 500),
    groups=[NodeGroup(count=30, max_level=0, energy=0.008),
            NodeGroup(count=20, max_level=1),
            NodeGroup(count=10, max_level=2)],
    mobility=MobilityConfig(enabled=True, speed_min=1.0, speed_max=6.0,
                            pause=1.0),
    energy_costs=KILLING,
    flows=[FlowConfig(src=s, dst=d, start=1.0 + i, packets=10, interval=4.0)
           for i, (s, d) in enumerate([(0, 59), (31, 45), (50, 12),
                                       (5, 40), (22, 55), (33, 58)])])
