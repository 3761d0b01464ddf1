"""Beacon-driven cluster maintenance across all three hierarchy levels.

Heads beacon their members every interval; members ack.  A pair that has
not heard from each other for miss_threshold intervals is declared
broken, which drives the structural-change cases: member removal, orphan
adoption or re-election, cluster merges when two heads drift into mutual
range, and the upward ripple when level-0/1 headship changes.
"""

from collections import Counter
from dataclasses import dataclass, field

from . import clustering
from .errors import ElectionError


@dataclass
class BeaconState:
    interval: float
    miss_threshold: int
    last_heard: dict = field(default_factory=dict)  # (level, head, member) -> t

    def __post_init__(self):
        if self.miss_threshold < 1:
            raise ValueError("miss_threshold must be >= 1")

    @property
    def detection_bound(self):
        return self.miss_threshold * self.interval


@dataclass
class MembershipEvent:
    kind: str  # member_left | head_left | member_joined | heads_in_range
    level: int
    head: int = None
    node: int = None
    other: int = None


class MaintenanceManager:
    def __init__(self, state, clusters, router, wparams, rng, beacon,
                 trace=None, stats=None, energy_debit=None):
        self.state = state
        self.clusters = clusters
        self.router = router
        self.wparams = wparams
        self.rng = rng
        self.beacon = beacon
        self.trace = trace
        self.stats = Counter() if stats is None else stats
        self.energy_debit = energy_debit  # fn(node, action) or None
        self._merge_attempted = set()
        self._recent_joins = []

    # -- plumbing --------------------------------------------------------

    def _emit(self, **record):
        if self.trace is not None:
            self.trace(record)

    def _debit(self, node, action):
        if self.energy_debit is not None:
            self.energy_debit(node, action)

    def sync_last_heard(self, now):
        """Mark every current membership as freshly heard (initial state)."""
        for level in self.clusters.levels:
            for head, members in self.clusters.levels[level].items():
                for m in members:
                    self.beacon.last_heard[(level, head, m)] = now

    # -- beaconing and detection -----------------------------------------

    def beacon_tick(self, head, level, now):
        """One head's beacon round: refresh last_heard for reachable members."""
        if not self.state.node(head).alive:
            return []
        self._debit(head, "beacon")
        self.stats["beacon_packets"] += 1
        heard = []
        # A member's debit can kill only that member, which changes no
        # head-to-other-member link, so one lookup serves the whole loop.
        near = self.state.neighbors(head, level)
        for m in sorted(self.clusters.members_of(head, level)):
            if self.state.node(m).alive and m in near:
                self.beacon.last_heard[(level, head, m)] = now
                self._debit(m, "beacon")
                self.stats["beacon_packets"] += 1
                heard.append(m)
        return heard

    def detect_changes(self, now):
        """Stale pairs and head losses, judged purely from beacon history."""
        events = []
        bound = self.beacon.detection_bound
        for level in sorted(self.clusters.levels):
            for head in sorted(self.clusters.heads(level)):
                members = self.clusters.members_of(head, level)
                if not self.state.node(head).alive:
                    events.append(MembershipEvent("head_left", level, head=head))
                    continue
                head_stale_to_all = bool(members)
                for m in sorted(members):
                    t = self.beacon.last_heard.get((level, head, m), now)
                    if now - t >= bound:
                        events.append(MembershipEvent(
                            "member_left", level, head=head, node=m))
                    else:
                        head_stale_to_all = False
                if head_stale_to_all:
                    # Every member lost the head simultaneously: the head
                    # (not the members) is the one that moved away.
                    events = [e for e in events
                              if not (e.kind == "member_left" and e.head == head
                                      and e.level == level)]
                    events.append(MembershipEvent("head_left", level, head=head))
        return events

    # -- change handling ---------------------------------------------------

    def handle_membership_change(self, event, now):
        """Apply one structural change; returns True if anything changed."""
        level = event.level
        table = self.clusters.levels.setdefault(level, {})
        if event.kind == "member_left":
            members = table.get(event.head)
            if members is None or event.node not in members:
                return False
            members.discard(event.node)
            self.beacon.last_heard.pop((level, event.head, event.node), None)
            self.router.purge_node(event.node)
            case = {0: "1.1", 1: "4.2", 2: "6.2"}[level]
            self._emit(kind="maintenance", t=now, case=case, level=level,
                       head=event.head, node=event.node)
            if level > 0:
                # The departed member heads a lower-level cluster that must
                # re-elect (it drifted away with or from its own members).
                self._reelect_cluster(level - 1, event.node, now,
                                      case={1: "4.2", 2: "6.2"}[level])
            return True

        if event.kind == "head_left":
            orphans = table.pop(event.head, None)
            if orphans is None:
                return False
            for m in orphans:
                self.beacon.last_heard.pop((level, event.head, m), None)
            self.router.purge_node(event.head)
            case = {0: "1.2", 1: "4.1", 2: "6.1"}[level]
            self._emit(kind="maintenance", t=now, case=case, level=level,
                       head=event.head)
            self._cover_orphans(level, now, case=case)
            return True

        if event.kind == "member_joined":
            node = event.node
            head = self._best_head_in_range(level, node)
            if head is None:
                return False
            table.setdefault(head, set()).add(node)
            self.beacon.last_heard[(level, head, node)] = now
            case = {0: "2", 1: "5", 2: "7"}[level]
            self._emit(kind="maintenance", t=now, case=case, level=level,
                       head=head, node=node)
            self._recent_joins.append((level, head, node))
            return True

        if event.kind == "heads_in_range":
            pair = frozenset((event.head, event.other))
            if pair in self._merge_attempted:
                return False
            self._merge_attempted.add(pair)
            union = (self._cluster_nodes(level, event.head)
                     | self._cluster_nodes(level, event.other))
            union = {n for n in union if self.state.node(n).alive}
            self._emit(kind="maintenance", t=now, case="3", level=level,
                       head=event.head, node=event.other)
            self._scoped_election(level, union, now, case="3")
            return True

        raise ValueError(f"unknown event kind {event.kind}")

    def propagate_hierarchy_change(self, now):
        """Reconcile levels 1 and 2 with the current lower-level head sets.

        Removes entries whose node no longer heads the level below
        (cases 4.1/4.2/6.1/6.2) and adopts or elects uncovered capable
        heads (cases 5 and 7).
        """
        for level in (1, 2):
            lower_heads = {h for h in self.clusters.heads(level - 1)
                           if self.state.node(h).alive
                           and self.state.node(h).supports(level)}
            table = self.clusters.levels.setdefault(level, {})
            for head in sorted(list(table)):
                if head not in lower_heads:
                    orphans = table.pop(head)
                    for m in orphans:
                        self.beacon.last_heard.pop((level, head, m), None)
                    case = "4.1" if level == 1 else "6.1"
                    self._emit(kind="maintenance", t=now, case=case,
                               level=level, head=head)
                else:
                    for m in sorted(list(table[head])):
                        if m not in lower_heads:
                            table[head].discard(m)
                            self.beacon.last_heard.pop((level, head, m), None)
                            case = "4.2" if level == 1 else "6.2"
                            self._emit(kind="maintenance", t=now, case=case,
                                       level=level, head=head, node=m)
            uncovered = lower_heads - self.clusters.participants(level)
            if uncovered:
                self._cover_orphans(level, now,
                                    case="5" if level == 1 else "7",
                                    orphans=uncovered)

    # -- helpers -----------------------------------------------------------

    def _cluster_nodes(self, level, head):
        return {head} | set(self.clusters.members_of(head, level))

    def _participant_ok(self, level, node):
        attrs = self.state.node(node)
        if not (attrs.alive and attrs.supports(level)):
            return False
        return level == 0 or node in self.clusters.heads(level - 1)

    def _best_head_in_range(self, level, node):
        heads = [h for h in sorted(self.clusters.heads(level))
                 if self.state.node(h).alive
                 and node in self.state.neighbors(h, level)]
        if not heads:
            return None
        participants = sorted(set(heads) | {node})
        weights = clustering.weight_table(self.state, level, participants,
                                          self.wparams)
        return max(heads, key=lambda h: (weights[h], -h))

    def _cover_orphans(self, level, now, case, orphans=None):
        """Adoption first, election for the remainder."""
        if orphans is None:
            covered = self.clusters.participants(level)
            orphans = {n for n in self.state.alive_ids()
                       if self._participant_ok(level, n) and n not in covered}
        remainder = set()
        for n in sorted(orphans):
            if not self._participant_ok(level, n):
                continue
            ev = MembershipEvent("member_joined", level, node=n)
            if not self.handle_membership_change(ev, now):
                remainder.add(n)
        if remainder:
            self._scoped_election(level, remainder, now, case=case)

    def _reelect_cluster(self, level, head, now, case):
        nodes = {n for n in self._cluster_nodes(level, head)
                 if self.state.node(n).alive}
        if nodes:
            self._scoped_election(level, nodes, now, case=case)

    def _scoped_election(self, level, nodes, now, case):
        nodes = sorted(n for n in nodes if self._participant_ok(level, n))
        if not nodes:
            return
        prior = dict(self.clusters.tau.get(level, {}))
        try:
            temp = clustering.select_cluster_heads(
                self.state, level, self.wparams, self.rng,
                participants=nodes, prior_tau=prior)
        except ElectionError:
            self._emit(kind="maintenance", t=now, case=case, level=level,
                       error="election-failed")
            return
        table = self.clusters.levels.setdefault(level, {})
        node_set = set(nodes)
        for h in list(table):
            if h in node_set:
                orphaned = table.pop(h)
                for m in orphaned:
                    self.beacon.last_heard.pop((level, h, m), None)
            else:
                table[h] -= node_set
        for h, members in temp.levels[level].items():
            table[h] = set(members)
            for m in members:
                self.beacon.last_heard[(level, h, m)] = now
        self.clusters.tau.setdefault(level, {}).update(temp.tau[level])
        self.stats[f"elections_l{level}"] += len(temp.levels[level])
        self._emit(kind="election", t=now, level=level, case=case,
                   heads=sorted(temp.levels[level]))

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
            self._emit(kind="maintenance", t=now, case="reelect", level=level,
                       head=head)
            self._reelect_cluster(level, head, now, case="reelect")

    # -- the per-interval cycle ---------------------------------------------

    def run_cycle(self, now, max_rounds=8):
        """One full beacon interval: beacon, detect, process to quiescence.

        A cycle that is still changing after `max_rounds` rounds stops
        there and counts one ``round_cap_hits``.
        """
        for level in sorted(self.clusters.levels):
            for head in sorted(self.clusters.heads(level)):
                self.beacon_tick(head, level, now)
        for _ in range(max_rounds):
            events = self.detect_changes(now)
            changed = False
            for ev in events:
                changed |= self.handle_membership_change(ev, now)
            # Cover newly arrived or orphaned level-0 nodes (case 2 / 1.2).
            before = len(self.clusters.participants(0))
            self._cover_orphans(0, now, case="1.2")
            changed |= len(self.clusters.participants(0)) != before
            for ev in self.detect_head_merges(now):
                changed |= self.handle_membership_change(ev, now)
            self.propagate_hierarchy_change(now)
            self.check_reelection(now)
            if not changed:
                break
        else:
            self.stats["round_cap_hits"] += 1
