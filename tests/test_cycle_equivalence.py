"""Unit-level comparisons of the beacon cycle's fast paths with the
references in ``reference.py``, on random clustered layouts, and one
mobile run that dies, joins, merges and re-elects under them all."""

import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antmanet import clustering
from antmanet.clustering import (WeightParams, check_reelection_triggers,
                                 form_hierarchy, weight_table)
from antmanet.config import BeaconConfig
from antmanet.maintenance import MaintenanceManager

from helpers import add_node, checked_election, make_state, manual_clusters
from reference import (MOBILE, assert_matches_references,
                       reference_best_head_in_range,
                       reference_check_reelection_triggers,
                       reference_detect_head_merges, reference_weight_table)


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
        participants = [nid for nid, attrs in state.nodes.items()
                        if attrs.alive and attrs.max_level >= level]
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


@pytest.mark.parametrize("theta_w", [-math.inf, 0.0])
def test_mobile_run_matches_references(theta_w):
    trace, summary, _ = assert_matches_references(
        dataclasses.replace(MOBILE, weights=WeightParams(theta_w=theta_w)))
    # The run exercises joins (case 2), merges (case 3) and re-elections.
    for case in ('"case":"2"', '"case":"3"', '"case":"reelect"'):
        assert case in trace
    assert summary["deaths"] > 0
