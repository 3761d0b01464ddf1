"""Weight-based cluster-head election and hierarchy formation.

Each node gets a combined weight from connectivity, residual energy,
mobility and neighbor distance (mobility counts against it), and the
election is weight-based clustering as in DCA and WCA: walking the
participants from heaviest to lightest (the lower id on a tie), each node
not yet covered heads a cluster, which covers its uncovered neighbors, and
each other node joins its heaviest neighboring head.  A head below
theta_w fails the election.  No random number is drawn.  Level-1 runs the
same procedure among level-0 heads with a second interface, level-2 among
level-1 heads with a third.

`ClusterState` alone stores the memberships, their head index and their
last-heard stamps, and installs the tables `select_cluster_heads` returns.
"""

import math
from dataclasses import dataclass

from .errors import ConfigError, ElectionError
from .model import LEVELS


@dataclass
class WeightParams:
    w1: float = 0.25  # connectivity
    w2: float = 0.25  # residual energy
    w3: float = 0.25  # mobility (penalty)
    w4: float = 0.25  # summed neighbor distance
    # The threshold defaults to disabled; the combined weight can go negative
    # through the mobility term, so 0 would silently reject whole clusters.
    theta_w: float = -math.inf

    def validate(self):
        if abs(self.w1 + self.w2 + self.w3 + self.w4 - 1.0) > 1e-9:
            raise ConfigError("weight coefficients must sum to 1")


def node_weight(c_i, e_i, m_i, d_i, p):
    """Combined weight: w1*c + w2*e - w3*m + w4*d (inputs pre-normalized)."""
    return p.w1 * c_i + p.w2 * e_i - p.w3 * m_i + p.w4 * d_i


def _distance_sum(nodes, node, nbrs):
    """The summed distance from `node` to each of `nbrs`, in id order,
    added left to right from 0.0 as `left_sum` would."""
    x, y = nodes[node].position
    hypot = math.hypot
    total = 0.0
    for m in sorted(nbrs):
        mx, my = nodes[m].position
        total += hypot(x - mx, y - my)
    return total


def weight_table(state, level, participants, p, nodes=None):
    """Alg-1 weights of `nodes` (every participant by default), each input
    divided by its maximum over the participants; {} for no participants.

    Connectivity and distances are computed against other participants
    only, so overlay elections ignore plain members.  The connectivity,
    energy and mobility maxima are plain scans.  The distance-sum maximum
    starts from the weighed nodes' exact sums, then visits the other
    participants in decreasing order of an upper bound on their sum, and
    stops once no bound can beat the best exact sum, so with every
    participant weighed it visits none.  A linked neighbor lies within the
    node's own range, so degree times range bounds the sum; the relative
    1e-9 pads it against the rounding of the distances and of their sum.
    """
    p.validate()
    participants = sorted(participants)
    if not participants:
        return {}
    attrs = state.nodes
    adj = state.adjacency(level)
    pset = set(participants)
    if pset.issuperset(state.members(level)):
        # Every linked peer is a live member, so a participant.
        linked = {n: adj[n] for n in participants}
    else:
        linked = {}
        for n in participants:
            nbrs = adj[n]
            linked[n] = nbrs if nbrs <= pset else nbrs & pset
    weighed = participants if nodes is None else nodes
    sums = {n: _distance_sum(attrs, n, linked[n]) for n in weighed}
    best = max(sums.values(), default=0.0)
    pad = 1.0 + 1e-9
    above = []
    for n in participants:
        bound = len(linked[n]) * attrs[n].tx_range[level] * pad
        if bound > best and n not in sums:
            above.append((bound, n))
    for bound, n in sorted(above, reverse=True):
        if bound <= best:
            break
        best = max(best, _distance_sum(attrs, n, linked[n]))
    maxima = (float(max(len(nbrs) for nbrs in linked.values())),
              max(attrs[n].energy for n in participants),
              max(attrs[n].mobility for n in participants),
              best)
    weights = {}
    for n in weighed:
        raw = (float(len(linked[n])), attrs[n].energy, attrs[n].mobility,
               sums[n])
        # Each input over its maximum, 0 where the maximum is not positive.
        weights[n] = node_weight(*(v / top if top > 0 else 0.0
                                   for v, top in zip(raw, maxima)), p)
    return weights


def eligible(state, clusters, node, level):
    """The participation rule: a node may take part at `level` when it is
    alive, has the level's interface and, above level 0, heads a cluster
    of the level below."""
    attrs = state.node(node)
    return (attrs.alive and attrs.supports(level)
            and (level == 0 or node in clusters.levels.get(level - 1, {})))


def candidates(state, clusters, level):
    """The set of nodes eligible at `level`.  Above level 0 only the lower
    level's heads can qualify, so only they are scanned."""
    if level == 0:
        # Every node has the level-0 interface, so the live ones qualify.
        return set(state.members(0))
    return {n for n in clusters.levels.get(level - 1, {})
            if eligible(state, clusters, n, level)}


class ClusterState:
    """Per-level head -> member tables, and a node -> head index and a
    last-heard stamp per membership kept in step with them.  Only `join`,
    `leave`, `dissolve` and `refresh` (a beacon's re-stamp) write these
    three, so `head_of` is a lookup, `heads` and `participants` are views
    of the tables' and the index's keys, and each membership has one
    stamp.  A view follows later writes, so a caller that keeps one
    across a write, or needs a set it can change, builds a set from it.
    `install`, the one writer of an election's result, writes through
    them, save for founding an empty level.

    ``epoch`` counts the writes that change a table or the index: `join`,
    `leave` and `dissolve` each increment it, `refresh` and an `install`
    of the clusters already held do not.  A value derived from the tables
    holds while ``epoch`` is unchanged.

    The beacon cycles that `maintenance.MaintenanceManager` skips as
    settled re-stamp no ``last_heard``.  A stamp then tells when the
    membership was last heard before the run settled, until the first
    cycle that runs again re-stamps every membership at the last skipped
    cycle's time."""

    def __init__(self):
        self.levels = {}  # level -> {head: set(member ids)}
        self._index = {}  # level -> {node: its head; a head maps to itself}
        self.last_heard = {}  # (level, head, member) -> t
        self.epoch = 0

    # -- the writers -----------------------------------------------------

    def install(self, level, table, now):
        """Make `table` ({head: set of members}), an election's result, the
        clusters of its nodes, every membership heard at `now`.

        Each node of `table` leaves the cluster it was in, and a cluster
        headed by one of them is dissolved with its members, before the
        table's clusters join.  Clusters outside its nodes stay as they
        are.  A level that already holds `table` is only re-stamped, so
        ``epoch`` moves only when a table changes.  The level exists
        afterwards, even for an empty table."""
        held = self.levels.setdefault(level, {})
        self._index.setdefault(level, {})
        if all(held.get(head) == members for head, members in table.items()):
            for head, members in table.items():
                self.refresh(level, head, members, now)
            return
        nodes = set(table).union(*table.values())
        for head in list(held):
            if head in nodes:
                self.dissolve(level, head)
            else:
                for m in held[head] & nodes:
                    self.leave(level, head, m)
        for head, members in table.items():
            self.join(level, head, members, now)

    def join(self, level, head, nodes, now):
        """Add `nodes` to `head`'s cluster, founding it if new; heard now."""
        self.epoch += 1
        nodes = tuple(nodes)
        self.levels.setdefault(level, {}).setdefault(head, set()).update(nodes)
        index = self._index.setdefault(level, {})
        index[head] = head
        index.update(dict.fromkeys(nodes, head))
        self.refresh(level, head, nodes, now)

    def leave(self, level, head, node):
        self.epoch += 1
        self.levels[level][head].discard(node)
        self.last_heard.pop((level, head, node), None)
        if self._index[level].get(node) == head:
            del self._index[level][node]

    def dissolve(self, level, head):
        """Drop `head`'s cluster; returns its former members."""
        self.epoch += 1
        members = self.levels[level].pop(head)
        index = self._index[level]
        for n in (head, *members):
            self.last_heard.pop((level, head, n), None)
            if index.get(n) == head:
                del index[n]
        return members

    def refresh(self, level, head, members, now):
        """Stamp each of `members` of `head`'s cluster as heard at `now`."""
        for m in members:
            self.last_heard[(level, head, m)] = now

    # -- reads -------------------------------------------------------------

    def heads(self, level):
        """The level's heads, as a read-only view of its table's keys."""
        return self.levels.get(level, {}).keys()

    def members_of(self, head, level):
        return self.levels.get(level, {}).get(head, set())

    def cluster(self, head, level):
        """The head plus its members."""
        return {head} | self.members_of(head, level)

    def participants(self, level):
        """Every head and member at `level`, as a read-only view of the
        index's keys."""
        return self._index.get(level, {}).keys()

    def head_of(self, node, level):
        """The head of `node`'s level-`level` cluster (itself if it heads
        one), or None if the level does not cover it."""
        return self._index.get(level, {}).get(node)


def select_cluster_heads(state, level, p, participants):
    """Run one level's election among `participants`; returns its
    {head: set of members} table.

    A greedy walk in (-weight, id) order: each node still uncovered heads
    a cluster and covers its uncovered neighbors, so a node heads one when
    no uncovered neighbor outweighs it.  Each other node then joins its
    heaviest neighboring head, the lower id on a tie."""
    participants = sorted(participants)
    weights = weight_table(state, level, participants, p)
    adj = state.adjacency(level)
    clusters = {}
    covered = set()
    for n in sorted(participants, key=lambda n: (-weights[n], n)):
        if n in covered:
            continue
        if weights[n] < p.theta_w:
            raise ElectionError(f"no level-{level} candidate clears theta_w")
        clusters[n] = set()
        covered |= adj[n]

    head_set = set(clusters)
    for n in participants:
        if n not in head_set:
            best = max(adj[n] & head_set,
                       key=lambda h: (weights[h], -h))
            clusters[best].add(n)
    return clusters


def form_hierarchy(state, p, now=0.0):
    """Elect and install level 0, then level 1 among its multi-interface
    heads, then level 2; returns the new ClusterState."""
    clusters = ClusterState()
    for level in LEVELS:
        table = select_cluster_heads(state, level, p,
                                     candidates(state, clusters, level))
        clusters.install(level, table, now)
    return clusters


def check_reelection_triggers(state, clusters, p, joins=None):
    """Clusters due for re-election.

    Flags heads whose recomputed weight dropped below theta_w, plus
    clusters that gained a node outweighing their head.  `joins` is an
    iterable of (level, head, node) recording recent arrivals.  Returns a
    set of (level, head) pairs.

    Weights are those of a level's `weight_table` over its live
    participants, of the nodes compared only: the joined pairs, and every
    head when theta_w is above -inf.
    """
    joins = list(joins or ())
    nodes = state.nodes
    check_heads = p.theta_w != -math.inf
    flagged = set()
    for level in sorted(clusters.levels):
        level_joins = [(head, node) for jlevel, head, node in joins
                       if jlevel == level]
        # With theta_w at -inf no weight falls below it, so only a join can
        # flag this level, and a level without one needs no weights.
        if not check_heads and not level_joins:
            continue
        live = {n for n in clusters.participants(level) if nodes[n].alive}
        heads = sorted(live & clusters.heads(level)) if check_heads else []
        level_joins = [(head, node) for head, node in level_joins
                       if head in live and node in live]
        compared = set(heads).union(*level_joins)
        if not compared:
            continue
        weights = weight_table(state, level, live, p, compared)
        for head in heads:
            if weights[head] < p.theta_w:
                flagged.add((level, head))
        for head, node in level_joins:
            if weights[node] > weights[head]:
                flagged.add((level, head))
    return flagged

