import copy
import random

import pytest

from antmanet import clustering
from antmanet.clustering import WeightParams
from antmanet.config import BeaconConfig
from antmanet.maintenance import MaintenanceManager, MembershipEvent

from helpers import (add_node, clique_state, make_router, make_state,
                     manual_clusters)


def manager(state, clusters, seed=7):
    return MaintenanceManager(state, clusters, make_router(state, clusters),
                              WeightParams(), random.Random(seed),
                              BeaconConfig())


def walkaway_world():
    state = clique_state(4)
    clusters = manual_clusters({0: {1: {0, 2, 3}}, 1: {}, 2: {}})
    mgr = manager(state, clusters)
    return state, clusters, mgr


class TestBeaconing:
    def test_tick_refreshes_reachable_members(self):
        state, clusters, mgr = walkaway_world()
        mgr.beacon_tick(1, 0, 5.0)
        assert clusters.last_heard == {(0, 1, 0): 5.0, (0, 1, 2): 5.0,
                                  (0, 1, 3): 5.0}

    def test_tick_skips_out_of_range_member(self):
        state, clusters, mgr = walkaway_world()
        state.nodes[3].position = (5000.0, 0.0)
        state.touch()
        mgr.beacon_tick(1, 0, 5.0)
        assert clusters.last_heard == {(0, 1, 0): 5.0, (0, 1, 2): 5.0,
                                  (0, 1, 3): 0.0}

    def test_dead_head_does_not_beacon(self):
        state, clusters, mgr = walkaway_world()
        state.nodes[1].alive = False
        state.touch()
        mgr.beacon_tick(1, 0, 5.0)
        assert clusters.last_heard == {(0, 1, 0): 0.0, (0, 1, 2): 0.0,
                                  (0, 1, 3): 0.0}
        assert mgr.stats["beacon_packets"] == 0

    def test_energy_debit_callback(self):
        state, clusters, mgr = walkaway_world()
        calls = []
        mgr.energy_debit = lambda node, action: calls.append((node, action))
        mgr.beacon_tick(1, 0, 1.0)
        assert (1, "beacon") in calls
        assert len(calls) == 4  # head plus three acking members

    def test_invalid_miss_threshold(self):
        state = clique_state(2)
        clusters = manual_clusters({0: {1: {0}}})
        with pytest.raises(ValueError):
            MaintenanceManager(state, clusters, make_router(state, clusters),
                               WeightParams(), random.Random(0),
                               BeaconConfig(miss_threshold=0))


class TestMemberWalkAway:
    def test_detected_exactly_at_staleness_bound(self):
        state, clusters, mgr = walkaway_world()
        state.nodes[3].position = (5000.0, 0.0)
        state.touch()
        bound = mgr.beacon.detection_bound
        t = mgr.beacon.interval
        while t < bound:
            mgr.run_cycle(t)
            assert 3 in clusters.members_of(1, 0), f"removed too early at t={t}"
            t += mgr.beacon.interval
        mgr.run_cycle(bound)
        assert 3 not in clusters.members_of(1, 0)
        clustering.check_invariants(state, clusters)
        # The stray node is re-covered, here as its own head.
        assert clusters.head_of(3, 0) == 3

    def test_pheromone_purged_for_departed_member(self):
        state, clusters, mgr = walkaway_world()
        mgr.router.pheromone.deposit(0, 0, 3, 3, 1.0)
        ev = MembershipEvent("member_left", 0, head=1, node=3)
        assert mgr.handle_membership_change(ev, 10.0)
        assert mgr.router.pheromone.entries == {}

    @pytest.mark.parametrize("event", [
        MembershipEvent("member_left", 0, head=1, node=3),
        MembershipEvent("head_left", 0, head=3)],
        ids=["member_left", "head_left"])
    def test_event_the_tables_no_longer_hold_changes_nothing(self, event):
        # Node 3 has already left head 1's cluster and heads none.
        state, clusters, mgr = walkaway_world()
        assert mgr.handle_membership_change(
            MembershipEvent("member_left", 0, head=1, node=3), 10.0)
        records = []
        mgr.trace = records.append
        mgr.router.pheromone.deposit(0, 0, 3, 3, 1.0)
        levels = {lvl: {h: set(m) for h, m in table.items()}
                  for lvl, table in clusters.levels.items()}
        pheromone = dict(mgr.router.pheromone.entries)
        assert mgr.handle_membership_change(event, 11.0) is False
        assert records == []
        assert clusters.levels == levels
        assert mgr.router.pheromone.entries == pheromone


class TestFailedElection:
    def test_failed_reelection_changes_no_cluster_state(self):
        # No weight reaches theta_w, so the re-election of head 1 runs its
        # pheromone draws and then raises ElectionError.
        state = clique_state(4)
        clusters = manual_clusters({0: {1: {0, 2, 3}}, 1: {}, 2: {}},
                                   tau={0: dict.fromkeys(range(4), 0.5)})
        records = []
        mgr = MaintenanceManager(state, clusters,
                                 make_router(state, clusters),
                                 WeightParams(theta_w=2.0), random.Random(7),
                                 BeaconConfig(), trace=records.append)
        mgr.beacon_tick(1, 0, 3.0)
        # The tables, the head index, the stamps and the pheromone.
        before = copy.deepcopy(vars(clusters))
        mgr.check_reelection(5.0)
        assert records == [
            {"kind": "maintenance", "t": 5.0, "case": "reelect", "level": 0,
             "head": 1},
            {"kind": "maintenance", "t": 5.0, "case": "reelect", "level": 0,
             "error": "election-failed"}]
        assert vars(clusters) == before


class TestHeadLoss:
    def test_dead_head_orphans_recovered(self):
        state = clique_state(5)
        clusters = manual_clusters({0: {2: {0, 1, 3, 4}}, 1: {}, 2: {}})
        mgr = manager(state, clusters)
        state.nodes[2].alive = False
        state.touch()
        mgr.run_cycle(1.0)
        assert 2 not in clusters.participants(0)
        for n in (0, 1, 3, 4):
            assert clusters.head_of(n, 0) is not None
        clustering.check_invariants(state, clusters)

    def test_head_walkaway_flips_to_head_left(self):
        # When the head drifts from every member at once, the members stay
        # clustered together and the head is treated as the leaver.
        state = clique_state(4)
        clusters = manual_clusters({0: {1: {0, 2, 3}}, 1: {}, 2: {}})
        mgr = manager(state, clusters)
        state.nodes[1].position = (5000.0, 0.0)
        state.touch()
        events = mgr.detect_changes(mgr.beacon.detection_bound)
        kinds = {(e.kind, e.head) for e in events}
        assert ("head_left", 1) in kinds
        assert not any(k == "member_left" for k, _ in kinds)


class TestHeadMerge:
    def _world(self):
        state = make_state()
        add_node(state, 0, (0.0, 0.0))
        add_node(state, 1, (5.0, 0.0))
        add_node(state, 2, (500.0, 0.0))
        add_node(state, 3, (505.0, 0.0))
        clusters = manual_clusters({0: {0: {1}, 2: {3}}, 1: {}, 2: {}})
        mgr = manager(state, clusters)
        return state, clusters, mgr

    def test_heads_in_range_merge_into_one_cluster(self):
        state, clusters, mgr = self._world()
        state.nodes[2].position = (20.0, 0.0)
        state.nodes[3].position = (25.0, 0.0)
        state.touch()
        mgr.run_cycle(1.0)
        assert len(clusters.levels[0]) == 1
        head = next(iter(clusters.levels[0]))
        assert clusters.levels[0][head] == {0, 1, 2, 3} - {head}
        clustering.check_invariants(state, clusters)

    def test_merge_not_retried_when_structure_is_stable(self):
        state, clusters, mgr = self._world()
        state.nodes[2].position = (20.0, 0.0)
        state.nodes[3].position = (25.0, 0.0)
        state.touch()
        mgr.run_cycle(1.0)
        snapshot = {h: set(m) for h, m in clusters.levels[0].items()}
        elections = dict(mgr.stats)
        for t in (2.0, 3.0, 4.0):
            mgr.run_cycle(t)
        assert {h: set(m) for h, m in clusters.levels[0].items()} == snapshot
        assert mgr.stats.get("elections_l0", 0) == elections.get("elections_l0", 0)

    def _merging(self):
        state, clusters, mgr = self._world()
        state.nodes[2].position = (20.0, 0.0)
        state.nodes[3].position = (25.0, 0.0)
        state.touch()
        return mgr

    def test_round_cap_hit_is_counted(self):
        # The merge changes the structure in the first round, so a cycle
        # capped at one round ends before it settles.
        mgr = self._merging()
        mgr.run_cycle(1.0, max_rounds=1)
        assert mgr.stats["round_cap_hits"] == 1

    def test_settled_cycle_counts_no_cap_hit(self):
        mgr = self._merging()
        mgr.run_cycle(1.0)
        assert mgr.stats["round_cap_hits"] == 0


def hierarchy_world():
    """Three level-0 heads, all level-1 capable and mutually in range."""
    state = make_state()
    add_node(state, 10, (0.0, 0.0), level=1)
    add_node(state, 20, (200.0, 0.0), level=1)
    add_node(state, 30, (100.0, 150.0), level=1)
    for nid, head in ((11, 10), (21, 20), (31, 30)):
        add_node(state, nid, (state.nodes[head].position[0] + 20.0,
                              state.nodes[head].position[1]))
    clusters = manual_clusters({0: {10: {11}, 20: {21}, 30: {31}},
                                1: {10: {20, 30}}, 2: {}})
    mgr = manager(state, clusters)
    return state, clusters, mgr


class TestHierarchyPropagation:
    def test_lower_head_death_ripples_upward(self):
        state, clusters, mgr = hierarchy_world()
        state.nodes[20].alive = False
        state.touch()
        mgr.run_cycle(1.0)
        assert 20 not in clusters.participants(0)
        assert 20 not in clusters.participants(1)
        assert clusters.head_of(21, 0) is not None
        clustering.check_invariants(state, clusters)

    def test_upper_head_loss_reforms_overlay(self):
        state, clusters, mgr = hierarchy_world()
        state.nodes[10].alive = False
        state.touch()
        mgr.run_cycle(1.0)
        assert 10 not in clusters.participants(1)
        # The surviving capable heads are re-covered at level 1.
        for h in clusters.heads(0):
            if state.nodes[h].supports(1):
                assert clusters.head_of(h, 1) is not None
        clustering.check_invariants(state, clusters)

    def test_new_capable_head_adopted_at_level_one(self):
        state, clusters, mgr = hierarchy_world()
        clusters.leave(1, 10, 30)  # node 30 starts uncovered
        mgr.run_cycle(1.0)
        assert clusters.head_of(30, 1) is not None
        clustering.check_invariants(state, clusters)

    def test_quiescent_network_is_untouched(self):
        state, clusters, mgr = hierarchy_world()
        before = {lvl: {h: set(m) for h, m in t.items()}
                  for lvl, t in clusters.levels.items()}
        for t in (1.0, 2.0, 3.0):
            mgr.run_cycle(t)
        after = {lvl: {h: set(m) for h, m in t.items()}
                 for lvl, t in clusters.levels.items()}
        assert after == before
