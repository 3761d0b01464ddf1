import copy

import pytest

from antmanet.clustering import WeightParams
from antmanet.config import BeaconConfig
from antmanet.maintenance import MaintenanceManager, MembershipEvent

from helpers import (add_node, beacon_times, check_invariants, clique_state,
                     make_router, make_state, manual_clusters, record_sink)


def manager(state, clusters, **kw):
    return MaintenanceManager(state, clusters, make_router(state, clusters),
                              WeightParams(), BeaconConfig(), **kw)


def walkaway_world():
    state = clique_state(4)
    clusters = manual_clusters({0: {1: {0, 2, 3}}, 1: {}, 2: {}})
    mgr = manager(state, clusters)
    return state, clusters, mgr


class TestBeaconing:
    def test_tick_refreshes_reachable_members(self):
        state, clusters, mgr = walkaway_world()
        assert mgr.beacon_tick(0, 5.0) == {}
        assert clusters.last_heard == {(0, 1, 0): 5.0, (0, 1, 2): 5.0,
                                  (0, 1, 3): 5.0}
        assert mgr.stats["beacon_packets"] == 4

    def test_tick_skips_out_of_range_member(self):
        state, clusters, mgr = walkaway_world()
        state.nodes[3].position = (5000.0, 0.0)
        state.touch()
        assert mgr.beacon_tick(0, 5.0) == {1: {3}}
        assert clusters.last_heard == {(0, 1, 0): 5.0, (0, 1, 2): 5.0,
                                  (0, 1, 3): 0.0}

    def test_dead_member_is_missed(self):
        state, clusters, mgr = walkaway_world()
        state.nodes[2].alive = False
        state.touch()
        assert mgr.beacon_tick(0, 5.0) == {1: {2}}
        assert clusters.last_heard == {(0, 1, 0): 5.0, (0, 1, 2): 0.0,
                                  (0, 1, 3): 5.0}
        assert mgr.stats["beacon_packets"] == 3

    def test_dead_head_does_not_beacon(self):
        state, clusters, mgr = walkaway_world()
        state.nodes[1].alive = False
        state.touch()
        assert mgr.beacon_tick(0, 5.0) == {}
        assert clusters.last_heard == {(0, 1, 0): 0.0, (0, 1, 2): 0.0,
                                  (0, 1, 3): 0.0}
        assert "beacon_packets" not in mgr.stats

    def test_two_heads_beacon_in_id_order(self):
        state = make_state()
        add_node(state, 0, (0.0, 0.0))
        add_node(state, 1, (5.0, 0.0))
        add_node(state, 2, (500.0, 0.0))
        add_node(state, 3, (505.0, 0.0))
        add_node(state, 4, (900.0, 0.0))
        clusters = manual_clusters({0: {2: {3, 4}, 0: {1}}, 1: {}, 2: {}})
        mgr = manager(state, clusters)
        calls = []
        mgr.energy_debit = calls.extend
        assert mgr.beacon_tick(0, 2.0) == {2: {4}}
        # Each head debits itself, then the members it reached.
        assert calls == [0, 1, 2, 3]
        assert clusters.last_heard == {(0, 0, 1): 2.0, (0, 2, 3): 2.0,
                                  (0, 2, 4): 0.0}
        assert mgr.stats["beacon_packets"] == 4

    def test_head_killed_by_its_own_debit_hears_no_one(self):
        # Head 2's own debit kills it after head 0 has read the level's
        # map: a dead head reaches no member, so it re-stamps and debits
        # none, and misses its member.
        state = make_state()
        add_node(state, 0, (0.0, 0.0))
        add_node(state, 1, (5.0, 0.0))
        add_node(state, 2, (500.0, 0.0))
        add_node(state, 3, (505.0, 0.0))
        clusters = manual_clusters({0: {2: {3}, 0: {1}}, 1: {}, 2: {}})
        mgr = manager(state, clusters)
        calls = []

        def debit(nids):
            calls.extend(nids)
            if 2 in nids:
                state.nodes[2].alive = False
                state.touch()

        mgr.energy_debit = debit
        assert mgr.beacon_tick(0, 2.0) == {2: {3}}
        assert calls == [0, 1, 2]
        assert clusters.last_heard == {(0, 0, 1): 2.0, (0, 2, 3): 0.0}
        assert mgr.stats["beacon_packets"] == 3

    def test_energy_debit_callback(self):
        state, clusters, mgr = walkaway_world()
        calls = []
        mgr.energy_debit = calls.extend
        mgr.beacon_tick(0, 1.0)
        # The head, then its three acking members.
        assert calls == [1, 0, 2, 3]

    def test_invalid_miss_threshold(self):
        state = clique_state(2)
        clusters = manual_clusters({0: {1: {0}}})
        with pytest.raises(ValueError):
            MaintenanceManager(state, clusters, make_router(state, clusters),
                               WeightParams(), BeaconConfig(miss_threshold=0))


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
        check_invariants(state, clusters)
        # The stray node is re-covered, here as its own head.
        assert clusters.head_of(3, 0) == 3

    def test_stale_members_reported_in_id_order(self):
        # The beacon round keeps the missed members {1, 8} as a set
        # difference, which iterates 8 before 1.
        state = make_state()
        add_node(state, 0, (0.0, 0.0))
        add_node(state, 9, (5.0, 0.0))
        for nid in (1, 8):
            add_node(state, nid, (5000.0 + nid, 0.0))
        clusters = manual_clusters({0: {0: {1, 8, 9}}, 1: {}, 2: {}})
        mgr = manager(state, clusters)
        bound = mgr.beacon.detection_bound
        missed = {0: mgr.beacon_tick(0, bound - 1.0)}
        assert mgr.detect_changes(bound - 1.0, missed) == []
        missed = {0: mgr.beacon_tick(0, bound)}
        assert mgr.detect_changes(bound, missed) == [
            MembershipEvent("member_left", 0, head=0, node=1),
            MembershipEvent("member_left", 0, head=0, node=8)]

    def test_pheromone_purged_for_departed_member(self):
        state, clusters, mgr = walkaway_world()
        mgr.router.pheromone.deposit_on(
            mgr.router.pheromone.keys((0, 3), (0,), 3), 1.0)
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
        mgr.trace = record_sink(records)
        mgr.router.pheromone.deposit_on(
            mgr.router.pheromone.keys((0, 3), (0,), 3), 1.0)
        levels = {lvl: {h: set(m) for h, m in table.items()}
                  for lvl, table in clusters.levels.items()}
        pheromone = dict(mgr.router.pheromone.entries)
        assert mgr.handle_membership_change(event, 11.0) is False
        assert records == []
        assert clusters.levels == levels
        assert mgr.router.pheromone.entries == pheromone


class TestFailedElection:
    def test_failed_reelection_changes_no_cluster_state(self):
        # No weight reaches theta_w, so the re-election of head 1 raises
        # ElectionError.
        state = clique_state(4)
        clusters = manual_clusters({0: {1: {0, 2, 3}}, 1: {}, 2: {}})
        records = []
        mgr = MaintenanceManager(state, clusters,
                                 make_router(state, clusters),
                                 WeightParams(theta_w=2.0), BeaconConfig(),
                                 trace=record_sink(records))
        mgr.beacon_tick(0, 3.0)
        # The tables, the head index and the stamps.
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
        check_invariants(state, clusters)

    def test_head_walkaway_flips_to_head_left(self):
        # When the head drifts from every member at once, the members stay
        # clustered together and the head is treated as the leaver.
        state = clique_state(4)
        clusters = manual_clusters({0: {1: {0, 2, 3}}, 1: {}, 2: {}})
        mgr = manager(state, clusters)
        state.nodes[1].position = (5000.0, 0.0)
        state.touch()
        bound = mgr.beacon.detection_bound
        # Detection reads the members the beacon round missed.
        events = mgr.detect_changes(bound, {0: mgr.beacon_tick(0, bound)})
        kinds = {(e.kind, e.head) for e in events}
        assert ("head_left", 1) in kinds
        assert not any(k == "member_left" for k, _ in kinds)


class TestHeadMerge:
    def _world(self, **kw):
        state = make_state()
        add_node(state, 0, (0.0, 0.0))
        add_node(state, 1, (5.0, 0.0))
        add_node(state, 2, (500.0, 0.0))
        add_node(state, 3, (505.0, 0.0))
        clusters = manual_clusters({0: {0: {1}, 2: {3}}, 1: {}, 2: {}})
        mgr = manager(state, clusters, **kw)
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
        check_invariants(state, clusters)

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

    def _merging(self, **kw):
        state, clusters, mgr = self._world(**kw)
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


def hierarchy_world(**kw):
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
    mgr = manager(state, clusters, **kw)
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
        check_invariants(state, clusters)

    def test_upper_head_loss_reforms_overlay(self):
        state, clusters, mgr = hierarchy_world()
        state.nodes[10].alive = False
        state.touch()
        mgr.run_cycle(1.0)
        assert 10 not in clusters.participants(1)
        # The surviving capable heads are re-covered at level 1.
        for h in clusters.heads(0):
            if state.nodes[h].max_level >= 1:
                assert clusters.head_of(h, 1) is not None
        check_invariants(state, clusters)

    def test_new_capable_head_adopted_at_level_one(self):
        state, clusters, mgr = hierarchy_world()
        clusters.leave(1, 10, 30)  # node 30 starts uncovered
        mgr.run_cycle(1.0)
        assert clusters.head_of(30, 1) is not None
        check_invariants(state, clusters)

    def test_quiescent_network_is_untouched(self):
        state, clusters, mgr = hierarchy_world()
        before = {lvl: {h: set(m) for h, m in t.items()}
                  for lvl, t in clusters.levels.items()}
        for t in (1.0, 2.0, 3.0):
            mgr.run_cycle(t)
        after = {lvl: {h: set(m) for h, m in t.items()}
                 for lvl, t in clusters.levels.items()}
        assert after == before


class TestSettledCycles:
    """A cycle that writes no record, misses no member and leaves the
    hierarchy epoch, the topology version and the energy counter where
    it found them settles: every later cycle that finds those three
    unchanged only counts that cycle's beacon packets.  The first cycle
    that finds them moved re-stamps every membership at the last
    skipped cycle's time, and then beacons."""

    def test_head_below_theta_w_never_settles(self, monkeypatch):
        # Every weight is below theta_w, so each cycle flags head 1 and its
        # re-election fails.  A static Simulator run cannot show this: its
        # initial election would have failed.
        beaconed = beacon_times(monkeypatch)
        state = clique_state(4)
        clusters = manual_clusters({0: {1: {0, 2, 3}}, 1: {}, 2: {}})
        records = []
        mgr = MaintenanceManager(state, clusters,
                                 make_router(state, clusters),
                                 WeightParams(theta_w=2.0), BeaconConfig(),
                                 trace=record_sink(records))
        for t in (1.0, 2.0, 3.0, 4.0):
            mgr.run_cycle(t)
            assert records[-2:] == [
                {"kind": "maintenance", "t": t, "case": "reelect",
                 "level": 0, "head": 1},
                {"kind": "maintenance", "t": t, "case": "reelect",
                 "level": 0, "error": "election-failed"}]
        assert len(records) == 8
        assert beaconed == [1.0, 2.0, 3.0, 4.0]
        assert set(clusters.last_heard.values()) == {4.0}
        assert mgr.stats["beacon_packets"] == 4 * 4

    def test_merge_settles_at_the_first_silent_cycle(self, monkeypatch):
        # The first cycle merges the two adjacent heads (case 3); the
        # second writes no record and settles the run.
        beaconed = beacon_times(monkeypatch)
        records = []
        mgr = TestHeadMerge()._merging(trace=record_sink(records))
        clusters = mgr.clusters
        mgr.run_cycle(1.0)
        assert {r.get("case") for r in records} == {"3"}
        written = len(records)
        mgr.run_cycle(2.0)
        assert len(records) == written
        # One head and its three members beacon each cycle.
        assert mgr.stats["beacon_packets"] == 4 + 4
        tables = {level: {h: set(m) for h, m in table.items()}
                  for level, table in clusters.levels.items()}
        stamps = dict(clusters.last_heard)
        assert set(stamps.values()) == {2.0}
        for t in (3.0, 4.0, 5.0):
            mgr.run_cycle(t)
        assert len(records) == written
        assert beaconed == [1.0, 2.0]
        assert mgr.stats["beacon_packets"] == 5 * 4
        assert clusters.levels == tables
        assert clusters.last_heard == stamps
        check_invariants(mgr.state, clusters)

    def test_not_frozen_never_settles(self, monkeypatch):
        # The topology moves between cycles, though no link changes, so
        # every cycle beacons and re-stamps every membership.
        beaconed = beacon_times(monkeypatch)
        state, clusters, mgr = hierarchy_world()
        for t in (1.0, 2.0, 3.0):
            mgr.run_cycle(t)
            state.touch()
        assert beaconed == [1.0, 2.0, 3.0]
        assert set(clusters.last_heard.values()) == {3.0}

    @pytest.mark.parametrize("move", [
        lambda state, clusters: state.touch(),
        lambda state, clusters: setattr(state, "energy_version",
                                        state.energy_version + 1),
        lambda state, clusters: (clusters.leave(0, 1, 3),
                                 clusters.join(0, 1, (3,), 3.5)),
    ], ids=["version", "energy_version", "epoch"])
    def test_each_counter_ends_the_settle(self, move, monkeypatch):
        # The first cycle settles and the next two are skipped; once one of
        # the three counters moves, the next cycle beacons again and, quiet,
        # settles anew.
        beaconed = beacon_times(monkeypatch)
        state, clusters, mgr = walkaway_world()
        for t in (1.0, 2.0, 3.0):
            mgr.run_cycle(t)
        assert set(clusters.last_heard.values()) == {1.0}
        move(state, clusters)
        for t in (4.0, 5.0):
            mgr.run_cycle(t)
        assert beaconed == [1.0, 4.0]
        assert set(clusters.last_heard.values()) == {4.0}
        assert mgr.stats["beacon_packets"] == 5 * 4

    def test_resume_restamps_at_the_last_skipped_cycle(self, monkeypatch):
        # The first cycle settles and the next two are skipped; then member
        # 3 walks away.  A skipped cycle would have heard every member, so
        # member 3 was last heard at 3.0 and is stale from 6.0 on (the
        # bound is 3 s), as in a manager that skips nothing.
        beaconed = beacon_times(monkeypatch)
        records = []
        state, clusters, _ = walkaway_world()
        mgr = manager(state, clusters, trace=record_sink(records))
        for t in (1.0, 2.0, 3.0):
            mgr.run_cycle(t)
        state.nodes[3].position = (5000.0, 0.0)
        state.touch()
        mgr.run_cycle(4.0)
        assert clusters.last_heard == {(0, 1, 0): 4.0, (0, 1, 2): 4.0,
                                       (0, 1, 3): 3.0}
        for t in (5.0, 6.0):
            mgr.run_cycle(t)
        assert beaconed == [1.0, 4.0, 5.0, 6.0]
        assert [(r["t"], r["kind"], r["case"]) for r in records] == [
            (6.0, "maintenance", "1.1"), (6.0, "election", "1.2")]
        assert records[0]["node"] == 3


class TestQuietPasses:
    """A manager skips the level-0 orphan cover and the upward
    reconciliation while the hierarchy epoch and the live nodes are what
    they were at the pass's last run that wrote no record."""

    @pytest.fixture
    def runs(self, monkeypatch):
        """The names of the level-0 orphan covers ("cover") and the upward
        reconciliations ("propagate") that run, in order."""
        runs = []

        def counting(name, method):
            def run(self, *args, **kw):
                if name == "propagate" or args[0] == 0:
                    runs.append(name)
                return method(self, *args, **kw)
            return run

        for name, attr in (("cover", "_cover_orphans"),
                           ("propagate", "propagate_hierarchy_change")):
            monkeypatch.setattr(MaintenanceManager, attr, counting(
                name, getattr(MaintenanceManager, attr)))
        return runs

    def test_skipped_while_nothing_moved(self, runs):
        records = []
        state, clusters, mgr = hierarchy_world(trace=record_sink(records))
        mgr.run_cycle(1.0)
        assert runs == ["cover", "propagate"]
        for t in (2.0, 3.0, 4.0):
            mgr.run_cycle(t)
        assert runs == ["cover", "propagate"]
        assert records == []

    def test_run_again_after_a_death_that_writes_no_table(self, runs):
        # Member 11 dies; within the detection bound its loss writes
        # nothing, so only the live nodes moved.
        records = []
        state, clusters, mgr = hierarchy_world(trace=record_sink(records))
        mgr.run_cycle(1.0)
        epoch = clusters.epoch
        state.nodes[11].alive = False
        state.touch()
        mgr.run_cycle(2.0)
        assert records == [] and clusters.epoch == epoch
        assert runs == ["cover", "propagate"] * 2
        mgr.run_cycle(3.0)
        assert runs == ["cover", "propagate"] * 2

    def test_run_again_after_a_failed_election(self, runs):
        # Node 3 is out of every head's range, and alone it weighs 0.25,
        # below theta_w: each cover elects it and fails, which writes only
        # an `election-failed` record and leaves the epoch where it was.
        state = make_state()
        for nid in range(3):
            add_node(state, nid, (5.0 * nid, 0.0))
        add_node(state, 3, (5000.0, 0.0))
        clusters = manual_clusters({0: {1: {0, 2}}, 1: {}, 2: {}})
        records = []
        mgr = MaintenanceManager(state, clusters,
                                 make_router(state, clusters),
                                 WeightParams(theta_w=0.5), BeaconConfig(),
                                 trace=record_sink(records))
        epoch = clusters.epoch
        for t in (1.0, 2.0, 3.0):
            mgr.run_cycle(t)
        assert records == [
            {"kind": "maintenance", "t": t, "case": "1.2", "level": 0,
             "error": "election-failed"} for t in (1.0, 2.0, 3.0)]
        assert clusters.epoch == epoch
        assert runs == ["cover", "propagate", "cover", "cover"]
