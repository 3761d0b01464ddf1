"""Beacon-driven cluster maintenance across all three hierarchy levels.

Heads beacon their members every interval; members ack.  A pair that has
not heard from each other for miss_threshold intervals is declared
broken, which drives the structural-change cases: member removal, orphan
adoption or re-election, cluster merges when two heads drift into mutual
range, and the upward ripple when level-0/1 headship changes.

The last-heard stamps live in ClusterState with the tables.  After the
initial election, membership changes only through its writers `join`,
`leave` and `dissolve`, which write or drop the stamps with the
memberships; a beacon re-stamps the members it reaches through `refresh`.
"""

from collections import Counter
from dataclasses import dataclass

from . import clustering
from .errors import ElectionError

# Trace case code of each structural change, indexed by level.
CASES = {
    "member_left": ("1.1", "4.2", "6.2"),
    "head_left": ("1.2", "4.1", "6.1"),
    "member_joined": ("2", "5", "7"),
}


@dataclass
class MembershipEvent:
    kind: str  # member_left | head_left | member_joined | heads_in_range
    level: int
    head: int = None
    node: int = None
    other: int = None


class MaintenanceManager:
    def __init__(self, state, clusters, router, wparams, rng, beacon,
                 trace=lambda record: None, stats=None,
                 energy_debit=lambda node, action: None):
        if beacon.miss_threshold < 1:
            raise ValueError("miss_threshold must be >= 1")
        self.state = state
        self.clusters = clusters
        self.router = router
        self.wparams = wparams
        self.rng = rng
        self.beacon = beacon  # a config.BeaconConfig
        self.trace = trace
        self.stats = Counter() if stats is None else stats
        self.energy_debit = energy_debit  # fn(node, action)
        self._merge_attempted = set()
        self._recent_joins = []

    # -- beaconing and detection -----------------------------------------

    def beacon_tick(self, head, level, now):
        """One head's beacon round: re-stamp the members it reaches."""
        if not self.state.node(head).alive:
            return
        self.energy_debit(head, "beacon")
        # A member's debit can kill only that member, which changes no
        # head-to-other-member link, so one lookup serves the whole loop.
        # A dead node has no link, so `near` holds live members only.
        near = self.state.neighbors(head, level)
        heard = sorted(near & self.clusters.members_of(head, level))
        self.clusters.refresh(level, head, heard, now)
        for m in heard:
            self.energy_debit(m, "beacon")
        self.stats["beacon_packets"] += 1 + len(heard)

    def detect_changes(self, now):
        """Stale pairs and head losses, judged purely from beacon history."""
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
                        stale.append(m)
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
        """Reconcile levels 1 and 2 with the current lower-level head sets.

        Removes entries whose node is no longer eligible (cases
        4.1/4.2/6.1/6.2) and adopts or elects uncovered eligible heads
        (cases 5 and 7).
        """
        for level in (1, 2):
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
        # `candidates(level)` less the level's participants, testing only
        # the uncovered nodes for eligibility.
        state, clusters = self.state, self.clusters
        covered = clusters.participants(level)
        pool = state.nodes if level == 0 else clusters.levels.get(level - 1, {})
        orphans = sorted(n for n in pool if n not in covered
                         and clustering.eligible(state, clusters, n, level))
        remainder = set()
        for n in orphans:
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
                self.state, clusters, level, self.wparams, self.rng,
                participants=nodes)
        except ElectionError:
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

    def detect_head_merges(self, now):
        """Case 3: two level-0 heads in mutual transmission range."""
        events = []
        heads = sorted(h for h in self.clusters.heads(0)
                       if self.state.node(h).alive)
        head_set = set(heads)
        # A pair stays on the attempted list only while both remain heads;
        # re-merging an unchanged head pair would loop forever.
        self._merge_attempted = {p for p in self._merge_attempted
                                 if p <= head_set}
        for h1 in heads:
            for h2 in sorted(self.state.neighbors(h1, 0) & head_set):
                if h2 > h1 and frozenset((h1, h2)) not in self._merge_attempted:
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

    def run_cycle(self, now, max_rounds=8):
        """One full beacon interval: beacon, detect, process to quiescence.

        A round is quiescent when it leaves every cluster table as it found
        it, re-elections that re-form the same clusters included.  A cycle
        that is still changing after `max_rounds` rounds stops there and
        counts one ``round_cap_hits``.
        """
        for level in sorted(self.clusters.levels):
            for head in sorted(self.clusters.heads(level)):
                self.beacon_tick(head, level, now)
        for _ in range(max_rounds):
            before = {level: {head: set(members)
                              for head, members in table.items()}
                      for level, table in self.clusters.levels.items()}
            for ev in self.detect_changes(now):
                self.handle_membership_change(ev, now)
            # Cover newly arrived or orphaned level-0 nodes (case 2 / 1.2).
            self._cover_orphans(0, now, case=CASES["head_left"][0])
            for ev in self.detect_head_merges(now):
                self.handle_membership_change(ev, now)
            self.propagate_hierarchy_change(now)
            self.check_reelection(now)
            if self.clusters.levels == before:
                break
        else:
            self.stats["round_cap_hits"] += 1
