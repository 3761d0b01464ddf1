"""Weighted, pheromone-driven cluster-head election and hierarchy formation.

Each node gets a combined weight from connectivity, residual energy,
mobility and neighbor distance (mobility counts against it).  Election
runs per candidate cluster: repeated probabilistic head draws reinforce
the drawn node's pheromone toward its weight, and the final head is the
eligible node with the best (weight, pheromone) pair.  Level-1 runs the
same procedure among level-0 heads with a second interface, level-2 among
level-1 heads with a third.
"""

import math
from dataclasses import dataclass

from .errors import ConfigError, ElectionError
from .model import distance


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
    total = sum(tau)
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


def weight_table(state, level, participants, p):
    """Alg-1 weights for every participant, inputs rescaled by group maxima.

    Connectivity and distances are computed against other participants
    only, so overlay elections ignore plain members.
    """
    participants = sorted(participants)
    pset = set(participants)
    raw = {}
    for n in participants:
        attrs = state.node(n)
        nbrs = state.neighbors(n, level) & pset
        d = sum(distance(attrs.position, state.node(m).position) for m in nbrs)
        raw[n] = (float(len(nbrs)), attrs.energy, attrs.mobility, d)
    maxima = [max((raw[n][k] for n in participants), default=0.0) for k in range(4)]
    weights = {}
    for n in participants:
        c, e, m, d = (raw[n][k] / maxima[k] if maxima[k] > 0 else 0.0 for k in range(4))
        weights[n] = node_weight(c, e, m, d, p)
    return weights


class ClusterState:
    """Per-level head -> member tables plus the election pheromone vectors."""

    def __init__(self):
        self.levels = {}  # level -> {head: set(member ids)}
        self.tau = {}  # level -> {node: pheromone}

    def heads(self, level):
        return set(self.levels.get(level, {}))

    def members_of(self, head, level):
        return self.levels.get(level, {}).get(head, set())

    def participants(self, level):
        out = set()
        for head, members in self.levels.get(level, {}).items():
            out.add(head)
            out.update(members)
        return out

    def head_of(self, node, level):
        table = self.levels.get(level, {})
        if node in table:
            return node
        for head, members in table.items():
            if node in members:
                return head
        return None

    def remove_node(self, node):
        """Drop a node from every role at every level."""
        for level in list(self.levels):
            table = self.levels[level]
            table.pop(node, None)
            for members in table.values():
                members.discard(node)
            self.tau.get(level, {}).pop(node, None)


def _weighted_draw(rng, weights):
    """Index drawn with probability proportional to its weight."""
    total = sum(weights)
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
        if sum(taus) > 0:
            for _ in range(p.n_iter):
                k = _weighted_draw(rng, taus)
                taus[k] = ch_pheromone_update(taus[k], p.rho, weights[order[k]])
                tau[order[k]] = taus[k]
        eligible = [n for n in order
                    if weights[n] >= p.theta_w and tau[n] >= p.theta_tau]
        if not eligible:
            raise ElectionError(
                f"no level-{level} candidate clears the thresholds")
        head = max(eligible, key=lambda n: (weights[n], tau[n], -n))
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


def select_cluster_heads(state, level, p, rng, participants=None,
                         prior_tau=None, into=None):
    """Run one level's election and return the updated ClusterState.

    `participants` restricts the election (hierarchy levels, merges,
    orphan re-elections); `prior_tau` seeds pheromone from a previous
    state instead of the cold-start value (the node's own weight).
    """
    p.validate()
    if participants is None:
        participants = [n for n in state.alive_ids() if state.node(n).supports(level)]
    participants = sorted(participants)
    clusters = into if into is not None else ClusterState()
    weights = weight_table(state, level, participants, p)
    tau = {n: (prior_tau[n] if prior_tau and n in prior_tau else weights[n])
           for n in participants}
    assignment = _elect(state, level, p, rng, participants, tau, weights)
    clusters.levels[level] = assignment
    clusters.tau.setdefault(level, {}).update(tau)
    return clusters


def form_hierarchy(state, clusters, p, rng):
    """Elect level-1 among multi-interface level-0 heads, then level-2."""
    l1_nodes = [h for h in clusters.heads(0)
                if state.node(h).alive and state.node(h).supports(1)]
    select_cluster_heads(state, 1, p, rng, participants=l1_nodes, into=clusters)
    l2_nodes = [h for h in clusters.heads(1)
                if state.node(h).alive and state.node(h).supports(2)]
    select_cluster_heads(state, 2, p, rng, participants=l2_nodes, into=clusters)
    return clusters


def check_reelection_triggers(state, clusters, p, joins=None):
    """Clusters due for re-election.

    Flags heads whose recomputed weight dropped below theta_w, plus
    clusters that gained a node outweighing their head.  `joins` is an
    iterable of (level, head, node) recording recent arrivals.  Returns a
    set of (level, head) pairs.
    """
    joins = list(joins or ())
    flagged = set()
    for level in sorted(clusters.levels):
        level_joins = [(head, node) for jlevel, head, node in joins
                       if jlevel == level]
        # With theta_w at -inf no weight falls below it, so only a join can
        # flag this level, and a level without one needs no weight table.
        if p.theta_w == -math.inf and not level_joins:
            continue
        participants = clusters.participants(level)
        participants = [n for n in participants if state.node(n).alive]
        if not participants:
            continue
        weights = weight_table(state, level, participants, p)
        for head in clusters.heads(level):
            if head in weights and weights[head] < p.theta_w:
                flagged.add((level, head))
        for head, node in level_joins:
            if head in weights and node in weights:
                if weights[node] > weights[head]:
                    flagged.add((level, head))
    return flagged


def check_invariants(state, clusters):
    """Raise AssertionError if any structural invariant is violated."""
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
        overlap = set(table) & set(seen)
        assert not overlap, f"heads also listed as members at level {level}: {overlap}"
        if level == 0:
            covered = set(table) | set(seen)
            alive = set(state.alive_ids())
            assert alive <= covered, \
                f"uncovered nodes at level 0: {alive - covered}"
    # Level containment: every higher-level participant heads the level below.
    for upper in (1, 2):
        lower_heads = clusters.heads(upper - 1)
        for n in clusters.participants(upper):
            assert n in lower_heads, \
                f"level-{upper} participant {n} is not a level-{upper - 1} head"
