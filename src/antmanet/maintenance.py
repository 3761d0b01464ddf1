"""Beacon-driven cluster maintenance across all three hierarchy levels.

Heads beacon their members every interval; members ack.  A pair that has
not heard from each other for miss_threshold intervals is declared
broken, which drives the structural-change cases: member removal, orphan
adoption or re-election, cluster merges when two heads drift into mutual
range, and the upward ripple when level-0/1 headship changes.

The last-heard stamps live in ClusterState with the tables.  Membership
changes only through its writers `join`, `leave` and `dissolve`, which
write or drop the stamps with the memberships; `install` writes every
election's result through them, and a beacon re-stamps the members it
reaches through `refresh`.  A cycle that can only repeat the one before
is skipped, and its re-stamps are caught up later (see
`MaintenanceManager.run_cycle`).
"""

from collections import Counter
from dataclasses import dataclass

from . import clustering
from .errors import ElectionError
from .model import LEVELS

# Trace case code of each structural change, by level.
CASES = {kind: dict(zip(LEVELS, codes, strict=True)) for kind, codes in (
    ("member_left", ("1.1", "4.2", "6.2")),
    ("head_left", ("1.2", "4.1", "6.1")),
    ("member_joined", ("2", "5", "7")),
)}


@dataclass
class MembershipEvent:
    kind: str  # member_left | head_left | member_joined | heads_in_range
    level: int
    head: int = None
    node: int = None
    other: int = None


class MaintenanceManager:
    """Runs one beacon cycle per interval (`run_cycle`) over the
    hierarchy in `clusters`.

    A cycle reads the tables, the topology and the nodes' energies, which
    `ClusterState.epoch`, `NetworkState.version` and
    `NetworkState.energy_version` count, and the clock only through the
    stamps of the members it misses.  So a cycle that writes no record
    (every table write here writes one), misses no member and leaves
    those three counters, its quiet key, where it found them settles:
    every later cycle that finds the same key would be that cycle again.
    Such a later cycle only counts the settled cycle's beacon packets.

    The manager counts the records it writes (its `trace` is wrapped),
    and a repair round skips the level-0 orphan cover and the upward
    reconciliation while the hierarchy epoch and the live nodes are what
    they were at the pass's last run that wrote no record
    (`_unless_quiet`): such a run found nothing to do, and would find
    nothing again."""

    def __init__(self, state, clusters, router, wparams, beacon,
                 trace=lambda record, t=None: None, stats=None,
                 energy_debit=None):
        if beacon.miss_threshold < 1:
            raise ValueError("miss_threshold must be >= 1")
        self.state = state
        self.clusters = clusters
        self.router = router
        self.wparams = wparams
        self.beacon = beacon  # a config.BeaconConfig
        self.stats = Counter() if stats is None else stats
        # fn(nodes), which debits one beacon packet from each of `nodes`
        # in order; None if beacons are free.
        self.energy_debit = energy_debit
        # [quiet key, beacon packets] of the settled cycle and the time of
        # the last cycle skipped since (None before the first); or None.
        self._settled = None
        # The records written so far.
        self._records = 0

        def counted(record):
            self._records += 1
            trace(record)
        self.trace = counted
        # Repair pass -> the (epoch, live nodes) at which it last ran
        # without writing a record (see `_unless_quiet`).
        self._quiet = {}
        self._merge_attempted = set()
        self._recent_joins = []

    # -- beaconing and detection -----------------------------------------

    def beacon_tick(self, level, now):
        """The beacon round of `level`: each live head, in id order,
        re-stamps the members it reaches.  Returns {head: the members it
        missed} for each head that missed any, for `detect_changes`."""
        clusters = self.clusters
        table = clusters.levels.get(level, {})
        state = self.state
        nodes = state.nodes
        debit = self.energy_debit
        missed = {}
        packets = 0
        # A debit can kill a node and touch() the topology, so each head
        # reads its neighbors after its own debit.  A member's debit can
        # kill only that member, which changes no head-to-other-member link,
        # so one lookup serves the head's members.  A dead node has no link,
        # so `near` holds live members only.
        for head in sorted(table):
            if not nodes[head].alive:
                continue
            if debit is not None:
                debit((head,))
            near = state.adjacency(level)[head]
            members = table[head]
            heard = sorted(near & members)
            clusters.refresh(level, head, heard, now)
            if debit is not None:
                debit(heard)
            packets += 1 + len(heard)
            if len(heard) < len(members):
                missed[head] = members - near
        if packets:
            self.stats["beacon_packets"] += packets
        return missed

    def detect_changes(self, now, missed):
        """Stale pairs and head losses, judged purely from beacon history.

        `missed` maps each level to what its `beacon_tick` at `now`
        returned.  Every head's liveness is checked.  Only a member that
        its live head's round missed can hold a stamp older than `now`:
        every other membership was re-stamped by that round or written
        since, at `now`.  So only those members are tested, and only while
        they are still members."""
        events = []
        bound = self.beacon.detection_bound
        last_heard = self.clusters.last_heard
        nodes = self.state.nodes
        for level in sorted(self.clusters.levels):
            table = self.clusters.levels[level]
            level_missed = missed.get(level, {})
            for head in sorted(table):
                if not nodes[head].alive:
                    events.append(MembershipEvent("head_left", level, head=head))
                    continue
                lost = level_missed.get(head)
                if not lost:
                    continue
                members = table[head]
                stale = [m for m in sorted(lost & members)
                         if now - last_heard[(level, head, m)] >= bound]
                if stale and len(stale) == len(members):
                    # Every member lost the head simultaneously: the head
                    # (not the members) is the one that moved away.
                    events.append(MembershipEvent("head_left", level, head=head))
                    continue
                for m in stale:
                    events.append(MembershipEvent(
                        "member_left", level, head=head, node=m))
        return events

    # -- change handling ---------------------------------------------------

    def handle_membership_change(self, event, now):
        """Apply one structural change; returns True if anything changed."""
        level = event.level
        table = self.clusters.levels.get(level, {})
        if event.kind == "member_left":
            if event.node not in table.get(event.head, ()):
                return False
            self.clusters.leave(level, event.head, event.node)
            self.router.purge_node(event.node)
            case = CASES[event.kind][level]
            self.trace({"kind": "maintenance", "t": now, "case": case,
                        "level": level, "head": event.head,
                        "node": event.node})
            if level > 0:
                # The departed member heads a lower-level cluster that must
                # re-elect (it drifted away with or from its own members).
                self._scoped_election(
                    level - 1, self.clusters.cluster(event.node, level - 1),
                    now, case=case)
            return True

        if event.kind == "head_left":
            if event.head not in table:
                return False
            self.clusters.dissolve(level, event.head)
            self.router.purge_node(event.head)
            case = CASES[event.kind][level]
            self.trace({"kind": "maintenance", "t": now, "case": case,
                        "level": level, "head": event.head})
            self._cover_orphans(level, now, case=case)
            return True

        if event.kind == "member_joined":
            node = event.node
            head = self._best_head_in_range(level, node)
            if head is None:
                return False
            self.clusters.join(level, head, (node,), now)
            self.trace({"kind": "maintenance", "t": now,
                        "case": CASES[event.kind][level], "level": level,
                        "head": head, "node": node})
            self._recent_joins.append((level, head, node))
            return True

        if event.kind == "heads_in_range":
            self._merge_attempted.add(frozenset((event.head, event.other)))
            self.trace({"kind": "maintenance", "t": now, "case": "3",
                        "level": level, "head": event.head,
                        "node": event.other})
            self._scoped_election(
                level, (self.clusters.cluster(event.head, level)
                        | self.clusters.cluster(event.other, level)),
                now, case="3")
            return True

        raise ValueError(f"unknown event kind {event.kind}")

    def propagate_hierarchy_change(self, now):
        """Reconcile each level above 0 with the head set of the level below.

        Removes entries whose node is no longer eligible (cases
        4.1/4.2/6.1/6.2) and adopts or elects uncovered eligible heads
        (cases 5 and 7).
        """
        for level in LEVELS[1:]:
            def eligible(node):
                return clustering.eligible(self.state, self.clusters, node,
                                           level)
            table = self.clusters.levels.get(level, {})
            for head in sorted(table):
                if not eligible(head):
                    self.clusters.dissolve(level, head)
                    self.trace({"kind": "maintenance", "t": now,
                                "case": CASES["head_left"][level],
                                "level": level, "head": head})
                    continue
                for m in sorted(m for m in table[head] if not eligible(m)):
                    self.clusters.leave(level, head, m)
                    self.trace({"kind": "maintenance", "t": now,
                                "case": CASES["member_left"][level],
                                "level": level, "head": head, "node": m})
            self._cover_orphans(level, now, case=CASES["member_joined"][level])

    # -- helpers -----------------------------------------------------------

    def _best_head_in_range(self, level, node):
        heads = self.state.neighbors(node, level) & self.clusters.heads(level)
        if not heads:
            return None
        weights = clustering.weight_table(self.state, level, heads | {node},
                                          self.wparams)
        return max(heads, key=lambda h: (weights[h], -h))

    def _cover_orphans(self, level, now, case):
        """Adoption first, election for the remainder, of every eligible
        node the level leaves uncovered."""
        orphans = (clustering.candidates(self.state, self.clusters, level)
                   - self.clusters.participants(level))
        remainder = set()
        for n in sorted(orphans):
            ev = MembershipEvent("member_joined", level, node=n)
            if not self.handle_membership_change(ev, now):
                remainder.add(n)
        if remainder:
            self._scoped_election(level, remainder, now, case=case)

    def _scoped_election(self, level, nodes, now, case):
        """Re-elect the eligible share of `nodes` and install the result."""
        clusters = self.clusters
        nodes = sorted(n for n in nodes
                       if clustering.eligible(self.state, clusters, n, level))
        if not nodes:
            return
        try:
            elected = clustering.select_cluster_heads(
                self.state, level, self.wparams, participants=nodes)
        except ElectionError:
            self.trace({"kind": "maintenance", "t": now, "case": case,
                        "level": level, "error": "election-failed"})
            return
        clusters.install(level, elected, now)
        self.stats[f"elections_l{level}"] += len(elected)
        self.trace({"kind": "election", "t": now, "level": level,
                    "case": case, "heads": sorted(elected)})

    def detect_head_merges(self, now):
        """Case 3: two level-0 heads in mutual transmission range."""
        events = []
        nodes = self.state.nodes
        heads = sorted(h for h in self.clusters.heads(0) if nodes[h].alive)
        head_set = set(heads)
        adj = self.state.adjacency(0)
        # A pair stays on the attempted list only while both remain heads;
        # re-merging an unchanged head pair would loop forever.
        attempted = self._merge_attempted = {
            p for p in self._merge_attempted if p <= head_set}
        for h1 in heads:
            near = adj[h1] & head_set
            for h2 in sorted(near):
                if h2 > h1 and frozenset((h1, h2)) not in attempted:
                    events.append(MembershipEvent(
                        "heads_in_range", 0, head=h1, other=h2))
        return events

    def check_reelection(self, now):
        """Weight-threshold and better-newcomer triggers from the election
        procedure's two reelection cases."""
        flagged = clustering.check_reelection_triggers(
            self.state, self.clusters, self.wparams, joins=self._recent_joins)
        self._recent_joins = []
        for level, head in sorted(flagged):
            self.trace({"kind": "maintenance", "t": now, "case": "reelect",
                        "level": level, "head": head})
            self._scoped_election(level, self.clusters.cluster(head, level),
                                  now, case="reelect")

    # -- the per-interval cycle ---------------------------------------------

    def _unless_quiet(self, repair, *args, **kwargs):
        """Run `repair`, the level-0 orphan cover or the upward
        reconciliation, unless the hierarchy epoch and the live nodes are
        what they were at its last run that wrote no record.

        Both passes act only on orphans and on ineligible table entries,
        and each action writes a record.  Which nodes those are depends
        only on the tables, on liveness (every live node is a level-0
        member) and on the nodes' interfaces, which never change.  So a
        run that wrote no record found nothing to do, and so would every
        run while the epoch and the live nodes stay where they were."""
        key = (self.clusters.epoch, self.state.members(0))
        if self._quiet.get(repair) == key:
            return
        records = self._records
        repair(*args, **kwargs)
        if self._records == records:
            self._quiet[repair] = key

    def _quiet_key(self):
        """The quiet key: the hierarchy epoch, the topology version and the
        energy version, the counters that a beacon cycle reads."""
        state = self.state
        return (self.clusters.epoch, state.version, state.energy_version)

    def run_cycle(self, now, max_rounds=8):
        """One full beacon interval: beacon, detect, process to quiescence.

        A round is quiescent when it leaves the hierarchy epoch where it
        found it: no table changed, since a re-election that re-forms the
        same clusters moves no epoch.  A cycle that is still changing after
        `max_rounds` rounds stops there and counts one ``round_cap_hits``.
        A round skips the level-0 orphan cover and the upward
        reconciliation while neither could act (`_unless_quiet`).

        A cycle that finds the quiet key of the settled cycle (see the
        class docstring) only adds that cycle's count to
        ``beacon_packets``.  It re-stamps no membership, though its beacon
        would have reached every member.  So the first cycle that finds a
        different key first re-stamps every membership at the last skipped
        cycle's time, and only then beacons.
        """
        stats, clusters = self.stats, self.clusters
        key = self._quiet_key()
        if self._settled is not None:
            settled_key, packets, skipped_at = self._settled
            if key == settled_key:
                if packets:
                    stats["beacon_packets"] += packets
                self._settled[2] = now
                return
            self._settled = None
            if skipped_at is not None:
                for level, table in clusters.levels.items():
                    for head, members in table.items():
                        clusters.refresh(level, head, members, skipped_at)
        packets, records = stats["beacon_packets"], self._records
        missed = {level: self.beacon_tick(level, now)
                  for level in sorted(clusters.levels)}
        for _ in range(max_rounds):
            before = self.clusters.epoch
            for ev in self.detect_changes(now, missed):
                self.handle_membership_change(ev, now)
            # Cover newly arrived or orphaned level-0 nodes (case 2 / 1.2).
            self._unless_quiet(self._cover_orphans, 0, now,
                               case=CASES["head_left"][0])
            for ev in self.detect_head_merges(now):
                self.handle_membership_change(ev, now)
            self._unless_quiet(self.propagate_hierarchy_change, now)
            self.check_reelection(now)
            if self.clusters.epoch == before:
                break
        else:
            stats["round_cap_hits"] += 1
            return
        if (self._records == records and not any(missed.values())
                and key == self._quiet_key()):
            self._settled = [key, stats["beacon_packets"] - packets, None]
