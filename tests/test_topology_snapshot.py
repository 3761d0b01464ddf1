"""The cached topology snapshot against ``reference.BruteForceState``,
which derives every neighbor set and link, and the level views, from
scratch on each call."""

import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antmanet import model
from antmanet.config import EnergyCosts, MobilityConfig
from antmanet.engine import RandomWaypoint, Simulator
from antmanet.errors import UnknownNodeError
from antmanet.model import NetworkState, NodeAttributes

from reference import MOBILE, BruteForceState, assert_matches_references

LEVELS = (0, 1, 2)


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
        assert real.members(level) == ref.members(level)
        assert real.adjacency(level) == ref.adjacency(level)
        for a in ids:
            expected = ref.neighbors(a, level)
            got = real.neighbors(a, level)
            assert got == expected
            for b in ids:
                assert real.linked(a, b, level) == ref.linked(a, b, level)
                assert real.link(a, b, level) == ref.link(a, b, level)
    for a in ids:
        for b in ids:
            assert real.link_level(a, b) == ref.link_level(a, b)


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
    assert s.link(1, 0, 0).let == s.link(0, 1, 0).let
    s.nodes[1].position = (150.0, 0.0)
    s.touch()
    assert s.link(0, 1, 0) is None
    assert s.link_level(0, 1) is None
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


def test_unknown_id_raises_with_snapshot_built():
    s = NetworkState()
    s.add_node(0, NodeAttributes(position=(0.0, 0.0)))
    s.add_node(1, NodeAttributes(position=(1.0, 0.0), alive=False))
    s.add_node(2, NodeAttributes(position=(2.0, 0.0), max_level=1,
                                 tx_range=(100.0, 250.0)))
    # Dead and unsupported nodes are in the snapshot, with no peers.
    assert s.neighbors(1, 0) == frozenset()
    assert s.neighbors(0, 1) == frozenset()
    assert s.neighbors(0, 0) == {2}
    for call in (lambda: s.neighbors(9, 0), lambda: s.linked(9, 0, 0),
                 lambda: s.linked(0, 9, 0), lambda: s.linked(9, 9, 1),
                 lambda: s.link(0, 9, 0), lambda: s.link_level(9, 2)):
        with pytest.raises(UnknownNodeError, match="unknown node id 9"):
            call()


def _count_builds(monkeypatch):
    builds = []
    build = NetworkState._build_adjacency

    def counted(self, level):
        builds.append(level)
        return build(self, level)

    monkeypatch.setattr(NetworkState, "_build_adjacency", counted)
    return builds


def _move(states, nid, position):
    for state in states:
        state.nodes[nid].position = position


def _touch(states):
    for state in states:
        state.touch()


def _moved(states, longest):
    for state in states:
        state.moved(longest)


def _random_step(states, rng, step, pause=0.0):
    """Move every live node up to `step` in a random direction, except that
    each pauses with probability `pause`, then report the tick through
    ``moved`` with its true bound, the largest ``math.dist`` moved."""
    longest = 0.0
    for nid, attrs in sorted(states[0].nodes.items()):
        if not attrs.alive or rng.random() < pause:
            continue
        x, y = attrs.position
        angle = rng.uniform(0.0, 2.0 * math.pi)
        length = rng.uniform(0.0, step)
        _move(states, nid, (x + length * math.cos(angle),
                            y + length * math.sin(angle)))
        longest = max(longest, math.dist((x, y), attrs.position))
    _moved(states, longest)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 25),
       span=st.sampled_from([5.0, 100.0, 400.0]),
       step=st.sampled_from([0.001, 0.02, 0.3]),
       skin=st.sampled_from([0.05, 0.2, 0.4, 1.0]),
       pause=st.sampled_from([0.0, 0.3, 0.9]),
       death=st.integers(1, 5))
def test_random_walks_match_brute_force(seed, n, span, step, skin, pause,
                                        death):
    # Steps of 0.1% and 2% of the span stay below most skins for several
    # ticks; 30% steps pass all but the widest on most ticks.  After the
    # first tick, each node pauses on a tick with probability `pause`; at
    # tick `death` the node with the most level-0 links dies, and the walk
    # ends with a tick on which every node pauses.
    rng = random.Random(seed)
    nodes = _random_nodes(rng, n, span)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "SKIN", skin)
        builds = _count_builds(mp)
        states = (NetworkState(link_jitter=0.3, seed=seed),
                  BruteForceState(link_jitter=0.3, seed=seed))
        _populate(states, nodes)
        _assert_same_topology(*states)
        for tick in range(6):
            _random_step(states, rng, step * span, pause if tick else 0.0)
            if tick == death:
                victim = max(states[0].nodes, key=lambda nid: (
                    len(states[0].neighbors(nid, 0)), nid))
                for state in states:
                    state.nodes[victim].alive = False
                    state.touch()
            _assert_same_topology(*states)
        before = len(builds)
        _random_step(states, rng, step * span, pause=1.0)
        _assert_same_topology(*states)
    # Every live node moved on the first tick, so every build since keeps
    # a skin, and no node moved on the last tick, so each level refreshed:
    # versions that rebuilt nothing exist on every walk.
    assert len(builds) == before
    assert len(builds) < len(LEVELS) * 8


def _walk_world():
    """Twelve level-0/1 nodes on a 300 m square, ranges 100/250 m."""
    rng = random.Random(3)
    nodes = [(nid, dict(position=(rng.uniform(0, 300), rng.uniform(0, 300)),
                        max_level=nid % 2, tx_range=(100.0, 250.0)[:nid % 2 + 1]))
             for nid in range(12)]
    states = (NetworkState(), BruteForceState())
    _populate(states, nodes)
    return states, rng


def test_small_steps_refresh_without_rebuilding(monkeypatch):
    builds = _count_builds(monkeypatch)
    states, rng = _walk_world()
    _assert_same_topology(*states)
    assert builds.count(0) == builds.count(1) == builds.count(2) == 1
    for _ in range(10):
        _random_step(states, rng, 0.5)
        _assert_same_topology(*states)
    # The builds before the first move keep no skin, so the first tick
    # rebuilds levels 0 and 1.  Ten ticks of at most 0.5 m move no pair by
    # the level-0 skin, 100 m times SKIN; level 2 has no members, and
    # keeps its empty map.
    assert builds.count(0) == builds.count(1) == 2
    assert builds.count(2) == 1
    for _ in range(3):
        _random_step(states, rng, 60.0)
        _assert_same_topology(*states)
    assert builds.count(0) > 2 and builds.count(1) > 2


def test_touch_drops_every_reference(monkeypatch):
    builds = _count_builds(monkeypatch)
    states, rng = _walk_world()
    real = states[0]
    _random_step(states, rng, 0.5)
    _assert_same_topology(*states)
    assert sorted(real._references) == [0, 1, 2]
    before = len(builds)
    real.touch()
    assert real._references == {}
    _assert_same_topology(*states)
    assert sorted(builds[before:]) == [0, 1, 2]


def test_head_on_pair_flips_within_twice_the_travel(monkeypatch):
    # Two nodes close head on, 1 m each per tick.  The first tick rebuilds
    # with the pair 7.5 m beyond its range, and the link appears four
    # ticks later, when the ticks since have reported only 4 m: the pair
    # must be re-tested within twice that.
    builds = _count_builds(monkeypatch)
    states = (NetworkState(), BruteForceState())
    _populate(states, [(0, dict(position=(0.0, 0.0))),
                       (1, dict(position=(109.5, 0.0)))])
    _assert_same_topology(*states)
    for tick in range(1, 7):
        _move(states, 0, (float(tick), 0.0))
        _move(states, 1, (109.5 - tick, 0.0))
        _moved(states, 1.0)
        _assert_same_topology(*states)
        assert states[0].linked(0, 1, 0) == (tick >= 5)
    # One build before the first move, one at it, and refreshes since.
    assert builds.count(0) == 2


def test_reference_keeps_the_pairs_within_the_skin():
    # Deeper linked pairs cannot flip before the next build, and farther
    # unlinked ones are not kept either.  A build before the first move
    # keeps no skin, and no pair.
    states, rng = _walk_world()
    real = states[0]
    for level in (0, 1):
        real.adjacency(level)
        ref = real._references[level]
        assert ref.skin == 0.0 and ref.pairs == []
    _random_step(states, rng, 0.5)
    for level in (0, 1):
        real.adjacency(level)
        ref = real._references[level]
        assert ref.skin > 0.0
        ids = ref.ids
        attrs = [real.nodes[nid] for nid in ids]
        expected = set()
        for i, a in enumerate(attrs):
            for j in range(i + 1, len(attrs)):
                b = attrs[j]
                m = min(a.tx_range[level], b.tx_range[level])
                d = math.hypot(a.position[0] - b.position[0],
                               a.position[1] - b.position[1])
                if abs(d - m) <= ref.skin:
                    expected.add((ids[i], ids[j], m, d <= m, abs(d - m)))
        kept = {(ids[min(i, j)], ids[max(i, j)], m, linked, slack)
                for slack, i, j, m, linked in ref.near}
        assert kept == expected
        assert ref.slack == [pair[0] for pair in ref.near]
        assert ref.pairs == [(attrs[i], attrs[j], m, linked)
                             for _, i, j, m, linked in ref.near]
        assert len(ref.pairs) == len(kept) < len(attrs) * (len(attrs) - 1) // 2
        assert any(not linked for _, _, _, linked, _ in kept)
        assert ref.slack == sorted(ref.slack)


def test_skin_steps_rebuild(monkeypatch):
    # Two nodes 5 m farther apart than their 100 m range plus its skin:
    # the pair is not kept, so closing the gap in one step must rebuild.
    # A first tick, in which no node moves, rebuilds with the skin.
    builds = _count_builds(monkeypatch)
    states = (NetworkState(), BruteForceState())
    gap = 100.0 * model.SKIN + 5.0
    _populate(states, [(0, dict(position=(0.0, 0.0))),
                       (1, dict(position=(100.0 + gap, 0.0))),
                       (2, dict(position=(500.0, 0.0)))])
    _assert_same_topology(*states)
    _moved(states, 1e-12)
    _assert_same_topology(*states)
    _move(states, 1, (100.0, 0.0))
    _moved(states, gap)
    _assert_same_topology(*states)
    assert states[0].neighbors(0, 0) == {1}
    assert builds.count(0) == 3


def test_node_parked_exactly_at_range():
    states, rng = _walk_world()
    # Node 0 (range 100) is parked exactly 100 m from node 2 while
    # everything else walks, and steps a micrometre out and back.
    for position in ((10.0, 20.0), (10.0, 20.0), (10.0, 20.0 - 1e-6),
                     (10.0, 20.0), (10.0 - 1e-6, 20.0), (10.0, 20.0)):
        _random_step(states, rng, 0.5)
        longest = 0.0
        for nid, new in ((0, position), (2, (70.0, 100.0))):
            longest = max(longest, math.dist(states[0].nodes[nid].position,
                                             new))
            _move(states, nid, new)
        _moved(states, longest)
        _assert_same_topology(*states)
        assert (2 in states[0].neighbors(0, 0)) == (position == (10.0, 20.0))


def test_one_ulp_step_across_range():
    # Node 1 moves one ulp of x toward node 0, 7e-15 m, and the rounded
    # distance drops by one ulp of itself, 1.4e-14 m, onto the range: a
    # link appears across a slack twice the computed displacement, which
    # only the refresh's float margin covers.  A first tick, in which no
    # node moves, rebuilds with the skin that the refresh needs.
    rng = random.Random(5)
    cases = 0
    while cases < 20:
        x, y = rng.uniform(33.0, 63.0), rng.uniform(33.0, 63.0)
        x1 = math.nextafter(x, 0.0)
        before, after = math.hypot(x, y), math.hypot(x1, y)
        if not 64.0 <= after < before:
            continue
        cases += 1
        states = (NetworkState(), BruteForceState())
        _populate(states, [(0, dict(position=(0.0, 0.0), tx_range=(after,))),
                           (1, dict(position=(x, y), tx_range=(after,)))])
        _moved(states, 1e-12)
        _assert_same_topology(*states)
        _move(states, 1, (x1, y))
        _moved(states, math.dist((x, y), (x1, y)))
        _assert_same_topology(*states)
        assert states[0].linked(0, 1, 0)


def test_tiny_steps_at_large_coordinates(monkeypatch):
    # 10**7 m from the origin, where an ulp of a coordinate is 1.9e-9 m,
    # every node steps up to three ulps a coordinate per tick, for 300
    # ticks, while node 1 stays parked within an ulp of node 0's range.
    builds = _count_builds(monkeypatch)
    rng = random.Random(8)
    x0 = y0 = 1e7
    ulp = math.ulp(x0)
    states = (NetworkState(), BruteForceState())
    _populate(states, [(0, dict(position=(x0, y0))),
                       (1, dict(position=(x0 + 100.0, y0)))]
              + [(nid, dict(position=(x0 + rng.uniform(-150.0, 150.0),
                                      y0 + rng.uniform(-150.0, 150.0))))
                 for nid in range(2, 7)])
    _assert_same_topology(*states)
    links = []
    for _ in range(300):
        longest = 0.0
        for nid, attrs in sorted(states[0].nodes.items()):
            x, y = attrs.position
            if nid == 0:
                new = (x0, y0 + rng.randint(-1, 1) * ulp)
            elif nid == 1:
                new = (x0 + 100.0 + rng.randint(-1, 1) * ulp, y0)
            else:
                new = (x + rng.randint(-3, 3) * ulp,
                       y + rng.randint(-3, 3) * ulp)
            _move(states, nid, new)
            longest = max(longest, math.dist((x, y), new))
        _moved(states, longest)
        _assert_same_topology(*states)
        links.append(states[0].linked(0, 1, 0))
    assert 50 < links.count(True) < 250
    # One build before the first move, one at it, and refreshes since.
    assert builds.count(0) == 2


def test_steps_below_an_ulp_accumulate(monkeypatch):
    # 10**8 m from the origin an ulp of a coordinate is 1.5e-8 m.  Two nodes
    # head for each other at 1e-8 m a tick, which rounding turns into a
    # whole ulp, half as much again as the step the tick reports.  The
    # first tick rebuilds with the pair 65 ulps beyond its range, and the
    # link appears 33 ticks later, when twice the reported steps cover
    # only two thirds of that: the travel bound must add the rounding of
    # the new coordinates.
    builds = _count_builds(monkeypatch)
    x0 = 1e8
    ulp = math.ulp(x0)
    states = (NetworkState(), BruteForceState())
    _populate(states, [(0, dict(position=(x0, x0))),
                       (1, dict(position=(x0 + 100.0 + 67 * ulp, x0)))])
    walk = RandomWaypoint((1.0, 1.0), 0.0, 0.0, 0.0, 1.0, random.Random(0))
    walk.targets = {0: ((x0 + 1000.0, x0), 1e-8, 0.0),
                    1: ((x0 - 1000.0, x0), 1e-8, 0.0)}
    _assert_same_topology(*states)
    for tick in range(1, 41):
        longest = walk.step(states[0].nodes, float(tick), 1.0)
        assert longest == 1e-8
        expected = {0: x0 + tick * ulp, 1: x0 + 100.0 + (67 - tick) * ulp}
        for nid, attrs in states[0].nodes.items():
            assert attrs.position == (expected[nid], x0)
            states[1].nodes[nid].position = attrs.position
            states[1].nodes[nid].velocity = attrs.velocity
        _moved(states, longest)
        _assert_same_topology(*states)
        assert states[0].linked(0, 1, 0) == (tick >= 34)
    assert builds.count(0) == 2


def test_death_and_revival_mid_walk(monkeypatch):
    builds = _count_builds(monkeypatch)
    states, rng = _walk_world()
    _assert_same_topology(*states)
    victim = max(states[0].nodes, key=lambda n: len(states[0].neighbors(n, 0)))
    for tick in range(8):
        _random_step(states, rng, 0.5)
        if tick in (2, 5):
            for state in states:
                state.nodes[victim].alive = tick == 5
                state.touch()
        before = len(builds)
        _assert_same_topology(*states)
        if tick in (2, 5):
            assert len(builds) > before
        assert (states[0].neighbors(victim, 0) == frozenset()) == (2 <= tick < 5)


def test_range_change_rebuilds(monkeypatch):
    # Node 0's range shrinks below every distance while no node moves
    # more than 0.5 m: the displacements alone would let the refresh
    # keep node 0's links.
    builds = _count_builds(monkeypatch)
    states, rng = _walk_world()
    _assert_same_topology(*states)
    assert states[0].neighbors(0, 0)
    _random_step(states, rng, 0.5)
    for state in states:
        state.nodes[0].tx_range = (1e-3,)
    _touch(states)
    _assert_same_topology(*states)
    assert states[0].neighbors(0, 0) == frozenset()
    assert builds.count(0) == 2


def test_node_added_after_first_build():
    states, rng = _walk_world()
    _assert_same_topology(*states)
    _random_step(states, rng, 0.5)
    _assert_same_topology(*states)
    x, y = states[0].nodes[3].position
    _populate(states, [(50, dict(position=(x + 5.0, y), max_level=1,
                                 tx_range=(100.0, 250.0))),
                       (51, dict(position=(x, y + 5.0), alive=False))])
    _assert_same_topology(*states)
    assert 50 in states[0].neighbors(3, 0)
    assert states[0].neighbors(51, 0) == frozenset()
    for _ in range(3):
        _random_step(states, rng, 0.5)
        _assert_same_topology(*states)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_position_after_refresh_raises(bad):
    states, rng = _walk_world()
    _assert_same_topology(*states)
    _random_step(states, rng, 0.5)
    _assert_same_topology(*states)
    state = states[0]
    x, y = state.nodes[5].position
    state.nodes[5].position = (x, bad)
    state.touch()
    for level in (0, 1):
        with pytest.raises(ValueError, match="non-finite coordinate on node 5"):
            state.neighbors(0, level)


def test_trace_matches_brute_force():
    """Fast movement, stepped every 0.5 s, carries nodes past the
    snapshot's skin between rebuilds while beacon costs kill them."""
    _, summary, _ = assert_matches_references(dataclasses.replace(
        MOBILE, mobility=MobilityConfig(enabled=True, speed_min=5.0,
                                        speed_max=20.0, pause=0.5,
                                        update_interval=0.5)))
    assert summary["deaths"] > 0
    assert summary["packets_delivered"] > 0


def test_mobile_run_builds_each_level_once(monkeypatch):
    """The engine marks a mobile run's state before its first election,
    so the first build of each level keeps the skin, and ten ticks of at
    most 1 m refresh it; a static run's builds keep no pair."""
    builds = _count_builds(monkeypatch)
    slow = dataclasses.replace(
        MOBILE, duration=10.0, energy_costs=EnergyCosts(),
        mobility=MobilityConfig(enabled=True, speed_min=0.5, speed_max=1.0,
                                pause=0.0))
    sim = Simulator(slow)
    sim.run()
    assert sorted(builds) == [0, 1, 2]
    assert all(ref.skin > 0 for ref in sim.state._references.values())
    static = Simulator(dataclasses.replace(slow, mobility=MobilityConfig()))
    static.run()
    assert not static.state.mobile
    assert sorted(static.state._references) == [0, 1, 2]
    assert all(ref.skin == 0 and not ref.near
               for ref in static.state._references.values())
