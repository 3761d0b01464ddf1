"""Shared builders for hand-crafted network and cluster fixtures, the
election oracle and the hierarchy's structural invariants."""

import dataclasses
import math

from antmanet.clustering import (ClusterState, select_cluster_heads,
                                 weight_table)
from antmanet.config import ScenarioConfig
from antmanet.errors import ElectionError
from antmanet.maintenance import MaintenanceManager
from antmanet.model import DEFAULT_TX_RANGE, NetworkState, NodeAttributes
from antmanet.routing import Router

# The config dataclasses' defaults, for objects built without a scenario.
DEFAULTS = ScenarioConfig()


def as_record(record, t=None):
    """The record of a sink call: `record` itself for ``sink(record)``, and
    for ``sink(line, t)`` a new dict of the Line's fields and "t", which
    the emitters put after "kind"."""
    if t is None:
        return record
    fields = record.fields
    return {"kind": fields["kind"], "t": t, **fields}


def record_sink(records):
    """A trace sink that appends each record, as its dict, to `records`."""
    def sink(record, t=None):
        records.append(as_record(record, t))
    return sink


def beacon_times(monkeypatch):
    """The times of the beacon cycles that beacon, in order: a list that
    fills while `monkeypatch` holds.  A cycle that the manager skips as
    settled beacons at no level, so its time is missing."""
    times = []
    tick = MaintenanceManager.beacon_tick

    def timed(self, level, now):
        if not times or times[-1] != now:
            times.append(now)
        return tick(self, level, now)
    monkeypatch.setattr(MaintenanceManager, "beacon_tick", timed)
    return times


def make_router(state, clusters, **kw):
    """A Router with the default pheromone and cache settings."""
    kw = {"q": DEFAULTS.pheromone.q, "tau_initial": DEFAULTS.pheromone.initial,
          "cache_max_age": DEFAULTS.cache.max_age, **kw}
    return Router(state, clusters, **kw)


def make_state(**kw):
    return NetworkState(**kw)


def add_node(state, nid, pos, level=0, energy=100.0, vel=(0.0, 0.0),
             node_delay=0.001, tx_range=None, mobility=0.0):
    state.add_node(nid, NodeAttributes(
        position=pos, velocity=vel, energy=energy, mobility=mobility,
        max_level=level, tx_range=tx_range or DEFAULT_TX_RANGE[level],
        node_delay=node_delay))
    return state


def line_state(n, spacing=50.0, **node_kw):
    """n nodes on the x axis, consecutive pairs in range, others not."""
    state = NetworkState()
    for i in range(n):
        add_node(state, i, (i * spacing, 0.0),
                 tx_range=(spacing * 1.5,), **node_kw)
    return state


def clique_state(n, **node_kw):
    state = NetworkState()
    for i in range(n):
        add_node(state, i, (i * 5.0, 0.0), **node_kw)
    return state


def manual_clusters(levels):
    """A ClusterState holding `levels`, every membership heard at 0.0."""
    cs = ClusterState()
    for lvl, table in levels.items():
        cs.install(lvl, {h: set(m) for h, m in table.items()}, 0.0)
    return cs


def checked_election(state, level, p, participants):
    """`select_cluster_heads`, its result checked against the rule rather
    than against the loop.  Under the order (weight, -id):

    - the heads form an independent set;
    - each participant is a head or a member of exactly one head's cluster,
      the heaviest head among its neighbors;
    - a neighbor that outweighs a head belongs to a head that outweighs it.

    These single out one table: the heaviest participant must head, and so,
    in decreasing order, must each one no heavier head neighbors.  Every
    head clears theta_w, and the election fails only when the one without
    a threshold has a head that does not."""
    participants = sorted(participants)
    try:
        table = select_cluster_heads(state, level, p, participants)
    except ElectionError:
        free = checked_election(state, level,
                                dataclasses.replace(p, theta_w=-math.inf),
                                participants)
        weights = weight_table(state, level, participants, p)
        assert min(weights[h] for h in free) < p.theta_w
        raise
    weights = weight_table(state, level, participants, p)

    def key(n):
        return (weights[n], -n)

    pset = set(participants)
    heads = set(table)
    head_of = {m: h for h, members in table.items() for m in members}
    assert sorted([*heads, *head_of]) == participants
    assert sum(map(len, table.values())) == len(head_of)
    for h in heads:
        assert weights[h] >= p.theta_w
        near = state.neighbors(h, level) & pset
        assert not near & heads, f"adjacent heads at level {level}"
        for m in near:
            if key(m) > key(h):
                assert key(head_of[m]) > key(m), \
                    f"{m} outweighs head {h} and its own head"
    for m, h in head_of.items():
        near = state.neighbors(m, level) & heads
        assert h == max(near, key=key, default=None), \
            f"member {m} of {h} is not with its heaviest neighboring head"
    return table


def check_invariants(state, clusters):
    """Raise AssertionError if any structural invariant is violated."""
    memberships = set()
    for level in sorted(clusters.levels):
        table = clusters.levels[level]
        seen = {}
        for head, members in table.items():
            assert state.node(head).supports(level), \
                f"head {head} lacks a level-{level} interface"
            for m in members:
                assert m in state.neighbors(head, level), \
                    f"member {m} not one-hop from head {head} at level {level}"
                assert m not in seen, f"node {m} in two level-{level} clusters"
                seen[m] = head
                memberships.add((level, head, m))
        overlap = set(table) & set(seen)
        assert not overlap, f"heads also listed as members at level {level}: {overlap}"
        index = clusters._index.get(level, {})
        assert index == {**seen, **{h: h for h in table}}, \
            f"level-{level} head index out of step with the cluster table"
        if level == 0:
            covered = set(table) | set(seen)
            alive = {n for n, attrs in state.nodes.items() if attrs.alive}
            assert alive <= covered, \
                f"uncovered nodes at level 0: {alive - covered}"
    assert set(clusters._index) == set(clusters.levels), \
        "the head index and the cluster tables cover different levels"
    stamps = set(clusters.last_heard)
    assert stamps == memberships, "last-heard stamps out of step: stray " \
        f"{sorted(stamps - memberships)}, missing {sorted(memberships - stamps)}"
    # Level containment: every higher-level participant heads the level below.
    for upper in (1, 2):
        lower_heads = clusters.heads(upper - 1)
        for n in clusters.participants(upper):
            assert n in lower_heads, \
                f"level-{upper} participant {n} is not a level-{upper - 1} head"
