"""Ant-based route discovery over the three-level cluster hierarchy.

Five ant kinds drive discovery: a Route ant asks a cluster head whether
the destination is one of its members; Knave request/reply ants explore
inside one cluster; King request/reply ants explore the head overlay.
Request ants fan out loop-free collecting link/node QoS values; at the
destination each surviving copy is converted to a reply that retraces the
visited stack in reverse.  Ants exist only as trace records: one
``route_ant`` per Route ant and one ``reply_knave_ant``/``reply_king_ant``
per reply; the delay-ordered flood stands in for the request ants.
Every node scores the candidate next hops with the multiplicative
preference rule (pheromone x 1/delay x 1/hops x bandwidth x energy x
expiry, each under a tunable exponent) and the best admissible path
wins, gets a pheromone deposit, and is cached.
"""

import heapq
import math
from collections import Counter, defaultdict
from dataclasses import dataclass

from .errors import (BrokenPathError, ConfigError, NoAdmissibleRouteError,
                     NoRouteError, RoutingLoopError)
from .qos import PathMetrics, path_metrics, pheromone_deposit

# Flood limits per discovery segment: replies collected, expansions per
# node, and heap pops in total.
MAX_REPLIES = 10
FANOUT_CAP = 10
FLOOD_BUDGET = 20000


# --------------------------------------------------------------------------
# Per-node routing state

class PheromoneTable:
    """tau[(next hop, destination)] with multiplicative evaporation."""

    def __init__(self, q, initial):
        if not (0.0 < q <= 1.0):
            raise ConfigError("q must lie in (0, 1]")
        self.q = q
        self.initial = initial
        self.entries = {}

    def get(self, j, d):
        return self.entries.get((j, d), self.initial)

    def deposit(self, j, d, dtau):
        if dtau < 0:
            raise ConfigError("deposit must be >= 0")
        tau = self.entries.get((j, d), self.initial)
        self.entries[(j, d)] = (1.0 - self.q) * tau + dtau

    def evaporate(self):
        for key in self.entries:
            self.entries[key] *= (1.0 - self.q)

    def purge_node(self, node):
        self.entries = {k: v for k, v in self.entries.items()
                        if node not in k}


@dataclass
class QosRequirement:
    min_bandwidth: float = 0.0
    min_energy: float = 0.0
    min_let: float = 0.0
    max_delay: float = math.inf

    def admits(self, m):
        return (m.bandwidth >= self.min_bandwidth and m.energy >= self.min_energy
                and m.let >= self.min_let and m.delay <= self.max_delay)


@dataclass
class RouteCacheEntry:
    destination: int
    path: tuple
    levels: tuple
    metrics: PathMetrics
    preference: float
    expires_at: float


class RouteCache:
    def __init__(self, capacity):
        self.capacity = capacity
        self.entries = []

    def insert(self, entry):
        if len(self.entries) >= self.capacity:
            victim = min(self.entries, key=lambda e: e.expires_at)
            self.entries.remove(victim)
        self.entries.append(entry)

    def lookup(self, dst, now, qos=None):
        """Best unexpired admissible entry toward dst, or None."""
        best = None
        for e in self.entries:
            if e.destination != dst or e.expires_at < now:
                continue
            if qos is not None and not qos.admits(e.metrics):
                continue
            if best is None or e.preference > best.preference:
                best = e
        return best

    def purge_node(self, node):
        self.entries = [e for e in self.entries if node not in e.path]


# --------------------------------------------------------------------------
# Path preference probability

@dataclass
class PreferenceParams:
    alpha1: float = 1.0  # pheromone
    alpha2: float = 1.0  # delay (benefit-transformed as 1/D)
    alpha3: float = 1.0  # hop visibility (1/HC)
    alpha4: float = 1.0  # bandwidth
    alpha5: float = 1.0  # energy
    alpha6: float = 1.0  # link expiration time
    let_cap: float = 1e6
    theta_p: float = 0.0  # minimum acceptable preference


def _preference_score(m, tau, p):
    if m.delay <= 0 or m.hop_count <= 0:
        raise ConfigError("delay and hop count must be positive")
    return (tau ** p.alpha1
            * (1.0 / m.delay) ** p.alpha2
            * m.hop_visibility ** p.alpha3
            * m.bandwidth ** p.alpha4
            * m.energy ** p.alpha5
            * min(m.let, p.let_cap) ** p.alpha6)


def path_preference_probability(candidates, p=None):
    """Normalized preference per candidate next hop.

    `candidates` is an iterable of (j, PathMetrics, tau_ij); returns a dict
    j -> probability summing to 1.
    """
    p = p or PreferenceParams()
    candidates = list(candidates)
    if not candidates:
        raise NoRouteError("empty candidate set")
    scores = {j: _preference_score(m, tau, p) for j, m, tau in candidates}
    total = sum(scores.values())
    if total <= 0:
        raise NoAdmissibleRouteError("all candidates degenerate")
    return {j: s / total for j, s in scores.items()}


# --------------------------------------------------------------------------
# Router

class Router:
    """Owns every node's pheromone tables and route caches.

    Pheromone planes are kept separate per hierarchy level: level 0 holds
    member-to-member trails, levels 1 and 2 hold head-overlay trails.
    """

    def __init__(self, state, clusters, pref=None, deposit=None, *, q,
                 tau_initial, cache_capacity, cache_max_age, trace=None,
                 stats=None):
        self.state = state
        self.clusters = clusters
        self.pref = pref or PreferenceParams()
        self.deposit_params = deposit
        self.q = q
        self.tau_initial = tau_initial
        self.cache_max_age = cache_max_age
        self.trace = trace
        self.tables = defaultdict(
            lambda: PheromoneTable(q=self.q, initial=self.tau_initial))
        self.caches = defaultdict(lambda: RouteCache(cache_capacity))
        self.stats = Counter() if stats is None else stats
        self.max_deposit = 0.0

    def table(self, level, node):
        return self.tables[(level, node)]

    def evaporate_all(self):
        for t in self.tables.values():
            t.evaporate()

    def purge_node(self, node):
        for t in self.tables.values():
            t.purge_node(node)
        for c in self.caches.values():
            c.purge_node(node)

    def _emit(self, record):
        if self.trace is not None:
            self.trace(record)

    # -- ant flood -----------------------------------------------------

    def _flood(self, scope, level, src, dst, now, kind="knave"):
        """Loop-free delay-ordered expansion.

        Returns (path, PathMetrics) pairs in arrival order.  Models
        concurrent request ants: the priority queue key is the accumulated
        path delay, so the first path to reach the destination is the
        minimum-delay one.
        """
        scope = set(scope)
        start = self.state.node(src).node_delay
        heap = [(start, 0, (src,))]
        seq = 1
        pops = 0
        found = []
        expansions = {}
        while heap and len(found) < MAX_REPLIES and pops < FLOOD_BUDGET:
            cum, _, path = heapq.heappop(heap)
            pops += 1
            node = path[-1]
            if node == dst:
                found.append(path)
                continue
            n = expansions.get(node, 0)
            if n >= FANOUT_CAP:
                continue
            expansions[node] = n + 1
            for nb in sorted(self.state.neighbors(node, level)):
                if nb not in scope or nb in path:
                    continue
                link = self.state.link(node, nb, level)
                nd = self.state.node(nb).node_delay
                heapq.heappush(heap, (cum + link.delay + nd, seq, path + (nb,)))
                seq += 1
                self.stats["request_forwards"] += 1
        if not found:
            raise NoRouteError(
                f"no level-{level} path from {src} to {dst} within scope")
        # Each delivered request ant turns into a reply that retraces its
        # visited stack in reverse, carrying the path's QoS values.
        ends = (("src_member", "dst_member") if kind == "knave"
                else ("src_head", "dst_head"))
        replies = []
        for path in found:
            m = path_metrics(path, self.state, levels=(level,) * (len(path) - 1))
            replies.append((path, m))
            self.stats["reply_packets"] += 1
            self.stats["reply_hops"] += len(path) - 1
            self._emit({"kind": f"reply_{kind}_ant", "t": now, "packet": {
                "hop_count": m.hop_count, "delay": m.delay, "energy": m.energy,
                "let": m.let, "bandwidth": m.bandwidth, ends[0]: src, ends[1]: dst,
                "to_visit": list(reversed(path))}})
        return replies

    def _choose(self, replies, level, src, dst, pher_dst, qos):
        """Pick the best admissible path by preference probability.

        `replies` holds the (path, PathMetrics) pairs that `_flood` returns.
        """
        best_per_hop = {}
        had_any = False
        for path, m in replies:
            had_any = True
            if qos is not None and not qos.admits(m):
                continue
            j = path[1] if len(path) > 1 else path[0]
            tau = self.table(level, src).get(j, pher_dst)
            score = _preference_score(m, tau, self.pref)
            prev = best_per_hop.get(j)
            if prev is None or score > prev[0]:
                best_per_hop[j] = (score, path, m, tau)
        if not best_per_hop:
            if had_any:
                raise NoAdmissibleRouteError(
                    f"no admissible route from {src} to {dst} under the QoS floors")
            raise NoRouteError(f"no route from {src} to {dst}")
        probs = path_preference_probability(
            [(j, v[2], v[3]) for j, v in best_per_hop.items()], self.pref)
        if abs(sum(probs.values()) - 1.0) > 1e-9:
            raise AssertionError("preference probabilities do not normalize")
        best_j = max(sorted(probs), key=lambda j: probs[j])
        if probs[best_j] < self.pref.theta_p:
            raise NoAdmissibleRouteError(
                f"best preference {probs[best_j]:.3g} below threshold")
        _, path, m, _ = best_per_hop[best_j]
        return path, m, probs[best_j]

    def _segment(self, scope, level, src, dst, pher_dst, qos, now, kind):
        if src == dst:
            # Trivial segment (a head routing to itself); no ants needed.
            return (src,), path_metrics((src,), self.state), 1.0
        replies = self._flood(scope, level, src, dst, now, kind=kind)
        return self._choose(replies, level, src, dst, pher_dst, qos)

    # -- discovery cascade ----------------------------------------------

    def _route_ant(self, src, dst, now, flag=0):
        """Record one Route ant; `flag` is 1 once a head confirms the
        destination in its tables."""
        self.stats["route_ants"] += 1
        self._emit({"kind": "route_ant", "t": now,
                    "packet": {"src": src, "dst": dst, "flag": flag}})

    def _finalize(self, src, dst, path, levels, qos, now):
        try:
            m = path_metrics(path, self.state, levels=levels)
        except BrokenPathError as exc:
            # A stitched member-head hop can go stale between beacon cycles;
            # treat the assembled route as undiscoverable this attempt.
            raise NoRouteError(str(exc)) from None
        if qos is not None and not qos.admits(m):
            raise NoAdmissibleRouteError(
                f"assembled route from {src} to {dst} misses the QoS floors")
        if self.deposit_params is not None:
            dtau = pheromone_deposit(m, self.deposit_params)
            self.max_deposit = max(self.max_deposit, dtau)
            for (i, j), level in zip(zip(path, path[1:]), levels):
                self.table(level, i).deposit(j, dst, dtau)
        entry = RouteCacheEntry(
            destination=dst, path=tuple(path), levels=tuple(levels),
            metrics=m, preference=1.0,
            expires_at=now + min(m.let, self.cache_max_age))
        self.caches[src].insert(entry)
        # Intermediate nodes remember the suffix toward the destination.
        for idx in range(1, len(path) - 1):
            suffix = tuple(path[idx:])
            sm = path_metrics(suffix, self.state, levels=levels[idx:])
            self.caches[path[idx]].insert(RouteCacheEntry(
                destination=dst, path=suffix, levels=tuple(levels[idx:]),
                metrics=sm, preference=1.0,
                expires_at=now + min(sm.let, self.cache_max_age)))
        self._emit({"kind": "route_selected", "t": now, "src": src, "dst": dst,
                    "path": list(path), "levels": list(levels),
                    "delay": m.delay, "bandwidth": m.bandwidth,
                    "energy": m.energy, "let": m.let, "hops": m.hop_count})
        return list(path), m

    def _cache_valid(self, entry):
        for (a, b), level in zip(zip(entry.path, entry.path[1:]), entry.levels):
            if self.state.link(a, b, level) is None:
                return False
        return True

    def discover_route(self, src, dst, qos=None, now=0.0, use_cache=True):
        """Full hierarchical route discovery; returns (path, PathMetrics)."""
        state = self.state
        if not state.node(src).alive or not state.node(dst).alive:
            raise NoRouteError(f"endpoint dead: {src} -> {dst}")
        if src == dst:
            raise NoRouteError("source equals destination")

        # Direct neighbor: deliver without emitting any ants.
        level = state.link_level(src, dst)
        if level is not None:
            return self._finalize(src, dst, (src, dst), (level,), qos, now)

        if use_cache:
            hit = self.caches[src].lookup(dst, now, qos)
            if hit is not None and self._cache_valid(hit):
                self.stats["cache_hits"] += 1
                return list(hit.path), hit.metrics

        h_s = self.clusters.head_of(src, 0)
        h_d = self.clusters.head_of(dst, 0)
        if h_s is None or h_d is None:
            raise NoRouteError(f"unclustered endpoint: {src} -> {dst}")

        # Ask the cluster head whether the destination is local.
        self._route_ant(src, h_s, now)
        scope = self.clusters.cluster(h_s, 0)
        if dst in scope:
            self._route_ant(h_s, src, now, flag=1)
            path, m, _ = self._segment(scope, 0, src, dst, dst, qos, now, "knave")
            return self._finalize(src, dst, path, (0,) * (len(path) - 1), qos, now)

        # Escalate to the level-1 head of the region.
        h1_s = self.clusters.head_of(h_s, 1)
        h1_d = self.clusters.head_of(h_d, 1)
        if h1_s is None or h1_d is None:
            raise NoRouteError(
                f"no level-1 coverage between {src} and {dst}")
        self._route_ant(h_s, h1_s, now)

        if h1_d == h1_s:
            # Same region: head-overlay discovery from CH(S) to CH(D).
            self._route_ant(h1_s, h_s, now, flag=1)
            seg, _, _ = self._segment(self.clusters.cluster(h1_s, 1), 1, h_s,
                                      h_d, dst, qos, now, "king")
            path, levels = _stitch([((src,), 0), (seg, 1), ((dst,), 0)])
            return self._finalize(src, dst, path, levels, qos, now)

        # Cross region: escalate to the level-2 head and relay over one
        # level-2 hop between the two regions' level-1 heads.
        h2_s = self.clusters.head_of(h1_s, 2)
        h2_d = self.clusters.head_of(h1_d, 2)
        if h2_s is None or h2_d is None or h2_s != h2_d:
            raise NoRouteError(
                f"regions of {src} and {dst} share no level-2 head")
        self._route_ant(h1_s, h2_s, now)
        self._route_ant(h2_s, h1_s, now, flag=1)

        cluster = self.clusters.cluster
        seg_s, _, _ = self._segment(cluster(h1_s, 1), 1, h_s, h1_s, dst, qos,
                                    now, "king")
        seg_2, _, _ = self._segment(cluster(h2_s, 2), 2, h1_s, h1_d, dst, qos,
                                    now, "king")
        seg_d, _, _ = self._segment(cluster(h1_d, 1), 1, h1_d, h_d, dst, qos,
                                    now, "king")
        path, levels = _stitch([((src,), 0), (seg_s, 1), (seg_2, 2),
                                (seg_d, 1), ((dst,), 0)])
        return self._finalize(src, dst, path, levels, qos, now)


def _stitch(segments):
    """Join path segments into one (path, hop-levels) pair.

    Segments sharing an endpoint are merged; a hop bridging two disjoint
    segments (member to head, head to member) runs at the lower of the
    two segment levels.
    """
    nodes = []
    levels = []
    prev_level = None
    for seg, level in segments:
        seg = list(seg)
        if not nodes:
            nodes.extend(seg)
            levels.extend([level] * (len(seg) - 1))
        else:
            if nodes[-1] == seg[0]:
                seg = seg[1:]
                if seg:
                    levels.extend([level] * len(seg))
                    nodes.extend(seg)
            elif seg:
                levels.append(min(prev_level, level))
                nodes.append(seg[0])
                levels.extend([level] * (len(seg) - 1))
                nodes.extend(seg[1:])
        prev_level = level
    if len(set(nodes)) != len(nodes):
        raise RoutingLoopError(f"stitched route revisits a node: {nodes}")
    return tuple(nodes), tuple(levels)
