"""Weighted, pheromone-driven cluster-head election and hierarchy formation.

Each node gets a combined weight from connectivity, residual energy,
mobility and neighbor distance (mobility counts against it).  Election
runs per candidate cluster: repeated probabilistic head draws reinforce
the drawn node's pheromone toward its weight, and the final head is the
eligible node with the best (weight, pheromone) pair.  Level-1 runs the
same procedure among level-0 heads with a second interface, level-2 among
level-1 heads with a third.

`ClusterState` alone stores the memberships, their head index and their
last-heard stamps, and installs the tables `select_cluster_heads` returns.
"""

import math
from dataclasses import dataclass

from .errors import ConfigError, ElectionError
from .model import left_sum


@dataclass
class WeightParams:
    w1: float = 0.25  # connectivity
    w2: float = 0.25  # residual energy
    w3: float = 0.25  # mobility (penalty)
    w4: float = 0.25  # summed neighbor distance
    # Thresholds default to disabled; the combined weight can go negative
    # through the mobility term, so 0 would silently reject whole clusters.
    theta_w: float = -math.inf
    theta_tau: float = -math.inf
    rho: float = 0.5  # pheromone learning/evaporation factor
    n_iter: int = 100  # draw budget per candidate cluster

    def validate(self):
        if abs(self.w1 + self.w2 + self.w3 + self.w4 - 1.0) > 1e-9:
            raise ConfigError("weight coefficients must sum to 1")
        if not (0.0 < self.rho < 1.0):
            raise ConfigError("rho must lie in (0, 1)")
        if self.n_iter < 1:
            raise ConfigError("n_iter must be >= 1")


def node_weight(c_i, e_i, m_i, d_i, p):
    """Combined weight: w1*c + w2*e - w3*m + w4*d (inputs pre-normalized)."""
    p.validate()
    return p.w1 * c_i + p.w2 * e_i - p.w3 * m_i + p.w4 * d_i


def ch_selection_probability(tau):
    """Normalize a pheromone vector into selection probabilities."""
    tau = list(tau)
    total = left_sum(tau)
    if any(t < 0 for t in tau):
        raise ValueError("negative pheromone")
    if total <= 0:
        raise ValueError("no pheromone mass")
    return [t / total for t in tau]


def ch_pheromone_update(tau_i, rho, weight_i):
    """One reinforcement step: convex move of tau toward the node weight."""
    if not (0.0 < rho < 1.0):
        raise ConfigError("rho must lie in (0, 1)")
    return (1.0 - rho) * tau_i + rho * weight_i


def _distance_sum(nodes, node, nbrs):
    """The summed distance from `node` to each of `nbrs`, in set order."""
    x, y = nodes[node].position
    positions = (nodes[m].position for m in nbrs)
    return left_sum(math.hypot(x - mx, y - my) for mx, my in positions)


def _weight(raw, maxima, p):
    """The combined weight of raw inputs (c, e, m, d), each divided by its
    group maximum (0 where the maximum is not positive)."""
    c, e, m, d = (v / top if top > 0 else 0.0 for v, top in zip(raw, maxima))
    return node_weight(c, e, m, d, p)


def weight_table(state, level, participants, p):
    """Alg-1 weights for every participant, inputs rescaled by group maxima.

    Connectivity and distances are computed against other participants
    only, so overlay elections ignore plain members.
    """
    participants = sorted(participants)
    pset = set(participants)
    nodes = state.nodes
    raw = {}
    for n in participants:
        attrs = nodes[n]
        nbrs = state.neighbors(n, level) & pset
        raw[n] = (float(len(nbrs)), attrs.energy, attrs.mobility,
                  _distance_sum(nodes, n, nbrs))
    maxima = [max((inputs[k] for inputs in raw.values()), default=0.0)
              for k in range(4)]
    return {n: _weight(inputs, maxima, p) for n, inputs in raw.items()}


def _weights_of(state, level, participants, nodes_to_weigh, p):
    """`weight_table(state, level, participants, p)` restricted to
    `nodes_to_weigh`, without summing every participant's distances.

    The connectivity, energy and mobility maxima are plain scans.  The
    distance-sum maximum starts from the weighed nodes' exact sums, then
    visits the other participants in decreasing order of an upper bound
    on their sum, and stops once no bound can beat the best exact sum.  A
    linked neighbor lies within the node's own range, so degree times
    range bounds the sum; the relative 1e-9 pads it against the rounding
    of the distances and of their sum.
    """
    nodes = state.nodes
    neighbors = state.neighbors
    participants = sorted(participants)
    pset = set(participants)
    degree = {}
    for n in participants:
        nbrs = neighbors(n, level)
        degree[n] = len(nbrs) if nbrs <= pset else len(nbrs & pset)
    # The sets `weight_table` sums over, built as it builds them.
    sums = {n: _distance_sum(nodes, n, neighbors(n, level) & pset)
            for n in nodes_to_weigh}
    best = max(sums.values())
    pad = 1.0 + 1e-9
    above = []
    for n, deg in degree.items():
        bound = deg * nodes[n].tx_range[level] * pad if deg else 0.0
        if bound > best and n not in sums:
            above.append((bound, n))
    for bound, n in sorted(above, reverse=True):
        if bound <= best:
            break
        best = max(best, _distance_sum(nodes, n, neighbors(n, level) & pset))
    maxima = (float(max(degree.values())),
              max(nodes[n].energy for n in participants),
              max(nodes[n].mobility for n in participants),
              best)
    return {n: _weight((float(degree[n]), nodes[n].energy, nodes[n].mobility,
                        sums[n]), maxima, p)
            for n in nodes_to_weigh}


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
    pool = state.alive_ids() if level == 0 else clusters.levels.get(level - 1, {})
    return {n for n in pool if eligible(state, clusters, n, level)}


class ClusterState:
    """Per-level head -> member tables, a node -> head index and a
    last-heard stamp per membership kept in step with them, and the
    election pheromone vectors.  Only `install`, `join`, `leave`,
    `dissolve` and `refresh` (a beacon's re-stamp) write the first three,
    so `head_of` is a lookup, `participants` a copy, and each membership
    has one stamp."""

    def __init__(self):
        self.levels = {}  # level -> {head: set(member ids)}
        self._index = {}  # level -> {node: its head; a head maps to itself}
        self.last_heard = {}  # (level, head, member) -> t
        self.tau = {}  # level -> {node: pheromone}

    # -- the writers -----------------------------------------------------

    def install(self, level, table, now):
        """Make `table` ({head: set of members}) the level's table, as it
        is, every membership heard at `now`."""
        self.last_heard = {k: t for k, t in self.last_heard.items()
                           if k[0] != level}
        self.levels[level] = table
        index = self._index[level] = {}
        for head, members in table.items():
            index[head] = head
            index.update(dict.fromkeys(members, head))
            self.refresh(level, head, members, now)

    def join(self, level, head, nodes, now):
        """Add `nodes` to `head`'s cluster, founding it if new; heard now."""
        nodes = tuple(nodes)
        self.levels.setdefault(level, {}).setdefault(head, set()).update(nodes)
        index = self._index.setdefault(level, {})
        index[head] = head
        index.update(dict.fromkeys(nodes, head))
        self.refresh(level, head, nodes, now)

    def leave(self, level, head, node):
        self.levels[level][head].discard(node)
        self.last_heard.pop((level, head, node), None)
        if self._index[level].get(node) == head:
            del self._index[level][node]

    def dissolve(self, level, head):
        """Drop `head`'s cluster; returns its former members."""
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
        return set(self.levels.get(level, {}))

    def members_of(self, head, level):
        return self.levels.get(level, {}).get(head, set())

    def cluster(self, head, level):
        """The head plus its members."""
        return {head} | self.members_of(head, level)

    def participants(self, level):
        """Every head and member at `level`."""
        return set(self._index.get(level, ()))

    def head_of(self, node, level):
        """The head of `node`'s level-`level` cluster (itself if it heads
        one), or None if the level does not cover it."""
        return self._index.get(level, {}).get(node)


def _weighted_draw(rng, weights):
    """Index drawn with probability proportional to its weight."""
    total = left_sum(weights)
    x = rng.random() * total
    acc = 0.0
    for k, w in enumerate(weights):
        acc += w
        if x <= acc:
            return k
    return len(weights) - 1


def _elect(state, level, p, rng, participants, tau, weights):
    """Core election loop; returns head -> member-set over participants."""
    uncovered = set(participants)
    pset = set(participants)
    heads = []
    while uncovered:
        seed = rng.choice(sorted(uncovered))
        cand = ({seed} | (state.neighbors(seed, level) & pset)) & uncovered
        order = sorted(cand)
        taus = [tau[n] for n in order]
        if left_sum(taus) > 0:
            for _ in range(p.n_iter):
                k = _weighted_draw(rng, taus)
                taus[k] = ch_pheromone_update(taus[k], p.rho, weights[order[k]])
                tau[order[k]] = taus[k]
        qualified = [n for n in order
                     if weights[n] >= p.theta_w and tau[n] >= p.theta_tau]
        if not qualified:
            raise ElectionError(
                f"no level-{level} candidate clears the thresholds")
        head = max(qualified, key=lambda n: (weights[n], tau[n], -n))
        heads.append(head)
        uncovered -= {head} | (state.neighbors(head, level) & uncovered)

    clusters = {h: set() for h in heads}
    head_set = set(heads)
    for n in participants:
        if n in head_set:
            continue
        # The key is a total order, so the set's iteration order is moot.
        best = max(state.neighbors(n, level) & head_set,
                   key=lambda h: (weights[h], -h))
        clusters[best].add(n)
    return clusters


def select_cluster_heads(state, clusters, level, p, rng, participants=None):
    """Run one level's election; returns its {head: set of members} table.

    `participants` defaults to the level's `candidates` in `clusters`;
    merges and orphan re-elections restrict it.  Pheromone starts from
    `clusters.tau` where it holds a node, else from the node's own weight
    (the cold start), and is written back only once the election succeeds.
    """
    p.validate()
    if participants is None:
        participants = candidates(state, clusters, level)
    participants = sorted(participants)
    weights = weight_table(state, level, participants, p)
    prior = clusters.tau.get(level, {})
    tau = {n: prior.get(n, weights[n]) for n in participants}
    table = _elect(state, level, p, rng, participants, tau, weights)
    clusters.tau.setdefault(level, {}).update(tau)
    return table


def form_hierarchy(state, p, rng, now=0.0):
    """Elect and install level 0, then level 1 among its multi-interface
    heads, then level 2; returns the new ClusterState."""
    clusters = ClusterState()
    for level in (0, 1, 2):
        clusters.install(level, select_cluster_heads(state, clusters, level,
                                                     p, rng), now)
    return clusters


def check_reelection_triggers(state, clusters, p, joins=None):
    """Clusters due for re-election.

    Flags heads whose recomputed weight dropped below theta_w, plus
    clusters that gained a node outweighing their head.  `joins` is an
    iterable of (level, head, node) recording recent arrivals.  Returns a
    set of (level, head) pairs.

    Weights are those of a level's full `weight_table` over its live
    participants, but only the nodes compared are weighed: the joined
    pairs, and every head when theta_w is above -inf.
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
        weights = _weights_of(state, level, live, compared, p)
        for head in heads:
            if weights[head] < p.theta_w:
                flagged.add((level, head))
        for head, node in level_joins:
            if weights[node] > weights[head]:
                flagged.add((level, head))
    return flagged


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
            alive = set(state.alive_ids())
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
