"""Ant-based route discovery over the three-level cluster hierarchy.

Five ant kinds drive discovery: a Route ant asks a cluster head whether
the destination is one of its members; Knave request/reply ants explore
inside one cluster; King request/reply ants explore the head overlay.
Request ants fan out loop-free collecting link/node QoS values; at the
destination each surviving copy is converted to a reply that retraces the
visited stack in reverse.  Ants exist only as trace records: one
``route_ant`` per Route ant and one ``reply_knave_ant``/``reply_king_ant``
per reply; the delay-ordered flood stands in for the request ants.
Every node scores each admissible reply once with the multiplicative
``preference_score`` (pheromone x 1/delay x 1/hops x bandwidth x energy x
expiry, each under a tunable exponent) and the best admissible path
wins, gets a pheromone deposit, and is cached if it has two hops or more.

Discovery re-derives much from the topology, the cluster tables and the
energies, so the router memoizes it under one stamp: the topology
version (``NetworkState.version``), the hierarchy epoch
(``ClusterState.epoch``) and the energy counter
(``NetworkState.energy_version``).  The memo is emptied whenever the
stamp moves, and read once per discovery.  Per endpoint pair it holds
the discovery plan: their link level, or the climb's route ants (one
`Line` each) and its failure or its legs, each leg's scope frozen, and
per tuple of segment choices what a send of the assembled route
repeats: path, levels, metrics, cache age, pheromone keys, deposit, each
relay's suffix with its metrics and cache age, and the `route_selected`
`Line`.  Per flood it holds each path's reply (next hop, path, metrics,
`Line` and, once scored, its QoS score factors) and, per
`QosRequirement`, which replies it admits.  A failure, the climb's or a
route's revisited node or missing link, is kept as (error class,
message) and raised afresh at each replay.  A send adds only the time:
each memoized record reaches the trace sink as ``sink(line, t)``.  Every
call still reads the endpoints' liveness, the route cache, pheromone and
the time afresh, and emits the same records and counters as a call with
an empty memo.
"""

import heapq
import math
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from .errors import (BrokenPathError, ConfigError, NoAdmissibleRouteError,
                     NoRouteError, RoutingLoopError, UnknownNodeError)
from .model import LEVELS, left_sum
# path_metrics is bound here though unused: bench/test_bench.py checks
# the profiler's wrapping of from-imported names through it.
from .qos import (PathMetrics, link_metrics, path_links,  # noqa: F401
                  path_metrics, pheromone_deposit)

# Flood limits per discovery segment: replies collected, expansions per
# node, and heap pops in total.
MAX_REPLIES = 10
FANOUT_CAP = 10
FLOOD_BUDGET = 20000


# --------------------------------------------------------------------------
# Routing state of every node

class PheromoneTable:
    """tau[(level, node, next hop, destination)] with multiplicative
    evaporation.  Each hierarchy level keeps its own plane: level 0 holds
    member-to-member trails, levels 1 and 2 head-overlay trails."""

    def __init__(self, q, initial):
        if not (0.0 < q <= 1.0):
            raise ConfigError("q must lie in (0, 1]")
        self.q = q
        self.initial = initial
        self.entries = {}

    def get(self, level, i, j, d):
        return self.entries.get((level, i, j, d), self.initial)

    @staticmethod
    def keys(path, levels, d):
        """The keys of `path`'s hops toward d, hop i on plane levels[i]."""
        return [(level, i, j, d) for i, j, level in zip(path, path[1:], levels)]

    def deposit_on(self, keys, dtau):
        """Deposit dtau on each of `keys`: tau becomes (1 - q) * tau + dtau."""
        if dtau < 0:
            raise ConfigError("deposit must be >= 0")
        entries, initial, keep = self.entries, self.initial, 1.0 - self.q
        for key in keys:
            entries[key] = keep * entries.get(key, initial) + dtau

    def evaporate(self):
        for key in self.entries:
            self.entries[key] *= (1.0 - self.q)

    def purge_node(self, node):
        """Drop the trails whose next hop or destination is `node`; the
        node's own trails stay."""
        self.entries = {k: v for k, v in self.entries.items()
                        if node != k[2] and node != k[3]}


@dataclass(frozen=True)
class QosRequirement:
    """A flow's QoS floors; the defaults admit every path."""
    min_bandwidth: float = 0.0
    min_energy: float = 0.0
    min_let: float = 0.0
    max_delay: float = math.inf

    def admits(self, m):
        return (m.bandwidth >= self.min_bandwidth and m.energy >= self.min_energy
                and m.let >= self.min_let and m.delay <= self.max_delay)


class Route(NamedTuple):
    """A discovered route: its nodes, the level of each hop, its QoS
    metrics, and the time its cached copy expires."""
    destination: int
    path: tuple
    levels: tuple
    metrics: PathMetrics
    expires_at: float


class RouteCache:
    """Every node's latest route per destination.

    ``routes[node, destination]`` is the Route last inserted for the pair;
    an insert replaces it.  A lookup that finds it expired drops it.
    """

    def __init__(self):
        self.routes = {}

    def insert(self, node, route):
        self.routes[node, route.destination] = route

    def lookup(self, node, dst, now):
        """The pair's unexpired route, or None."""
        route = self.routes.get((node, dst))
        if route is not None and route.expires_at < now:
            del self.routes[node, dst]
            return None
        return route

    def purge_node(self, node):
        self.routes = {key: r for key, r in self.routes.items()
                       if node not in r.path}


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


def score_factors(m, p):
    """The QoS terms of a path with metrics `m`, each under its exponent in
    `p`: 1/delay, 1/hops, bandwidth, energy and the capped expiry."""
    if m.delay <= 0 or m.hop_count <= 0:
        raise ConfigError("delay and hop count must be positive")
    return ((1.0 / m.delay) ** p.alpha2,
            m.hop_visibility ** p.alpha3,
            m.bandwidth ** p.alpha4,
            m.energy ** p.alpha5,
            min(m.let, p.let_cap) ** p.alpha6)


def preference_score(m, tau, p):
    """The preference of a path with metrics `m` and pheromone `tau`: the
    pheromone under its exponent times the `score_factors`, multiplied
    from left to right.  A flood reply multiplies its memoized factors in
    the same order, so its score is the same float."""
    f_delay, f_hops, f_bandwidth, f_energy, f_let = score_factors(m, p)
    return (tau ** p.alpha1 * f_delay * f_hops * f_bandwidth * f_energy
            * f_let)


def path_preference_probability(scores):
    """Each next hop's share of the summed scores: `scores` maps j to its
    preference_score; returns j -> probability summing to 1."""
    if not scores:
        raise NoRouteError("empty candidate set")
    total = left_sum(scores.values())
    if total <= 0:
        raise NoAdmissibleRouteError("all candidates degenerate")
    return {j: s / total for j, s in scores.items()}


class Line:
    """A trace record that recurs apart from its time "t": `fields`, the
    record without "t", which no one mutates, and `head`, the record's
    line up to the value of "t" once a writer has encoded it (None
    before).  A sink receives it as ``sink(line, t)``; see
    `engine.TraceWriter`.  Lines compare and hash by identity."""

    __slots__ = ("fields", "head")

    def __init__(self, fields):
        self.fields = fields
        self.head = None


def _route_ant(sender, target, flag):
    """A Route ant's `Line`."""
    return Line({"kind": "route_ant",
                 "packet": {"src": sender, "dst": target, "flag": flag}})


def _reply(level, src, dst, path, m):
    """The reply that retraces `path`, a level-`level` segment path from
    src to dst with metrics `m`, as `_segment` replays it: [next hop, path,
    metrics, `Line`, score factors].  The factors are None until the reply
    is first scored.  Level 0 segments run inside one cluster (Knave ants),
    the rest across the head overlay (King ants)."""
    kind, ends = (("reply_king_ant", ("src_head", "dst_head")) if level
                  else ("reply_knave_ant", ("src_member", "dst_member")))
    packet = {"hop_count": m.hop_count, "delay": m.delay, "energy": m.energy,
              "let": m.let, "bandwidth": m.bandwidth, ends[0]: src,
              ends[1]: dst, "to_visit": list(reversed(path))}
    return [path[1], path, m, Line({"kind": kind, "packet": packet}), None]


# --------------------------------------------------------------------------
# Router

class Router:
    """Owns the pheromone table and the route cache of every node."""

    def __init__(self, state, clusters, pref=None, deposit=None, *, q,
                 tau_initial, cache_max_age,
                 trace=lambda record, t=None: None, stats=None):
        self.state = state
        self.clusters = clusters
        self.pref = pref or PreferenceParams()
        self.deposit_params = deposit
        self.cache_max_age = cache_max_age
        self.trace = trace
        self.pheromone = PheromoneTable(q, tau_initial)
        self.cache = RouteCache()
        self.stats = Counter() if stats is None else stats
        # What discovery derives from the topology, the cluster tables and
        # the energies, valid while _stamp is (state.version,
        # clusters.epoch, state.energy_version).  The key shapes tell its
        # entries apart: (src, dst) -> _plan's plan, whose route table
        # holds each route's _route_entry per tuple of segment choices;
        # and (level, src, dst, scope) -> _expand's flood, with each
        # QosRequirement's admissible replies.  Each record that a replay
        # repeats is kept as a Line: a route ant's, a reply's, a route's
        # route_selected.
        self._memo = {}
        self._stamp = ()

    def evaporate_all(self):
        self.pheromone.evaporate()

    def purge_node(self, node):
        self.pheromone.purge_node(node)
        self.cache.purge_node(node)

    def _current_memo(self):
        """The memo, emptied first if its stamp moved."""
        state = self.state
        stamp = (state.version, self.clusters.epoch, state.energy_version)
        if stamp != self._stamp:
            self._memo.clear()
            self._stamp = stamp
        return self._memo

    # -- discovery segment ---------------------------------------------

    def _expand(self, scope, level, src, dst):
        """Loop-free delay-ordered expansion from src toward dst.

        Models concurrent request ants: the priority queue key is the
        accumulated path delay, so the first path to reach the destination
        is the minimum-delay one.

        Each delivered request ant turns into a reply that retraces its
        visited stack in reverse, carrying the path's QoS values.  Returns
        (each found path's `_reply` in arrival order, number of request
        forwards, summed hops of the paths).
        """
        state = self.state
        adj = state.adjacency(level)
        heap = [(state.node(src).node_delay, 0, (src,))]
        seq = 1
        pops = 0
        forwards = 0
        found = []
        expansions = {}
        while heap and len(found) < MAX_REPLIES and pops < FLOOD_BUDGET:
            cum, _, path = heapq.heappop(heap)
            pops += 1
            node = path[-1]
            if node == dst:
                links = path_links(path, state, (level,) * (len(path) - 1))
                nodes = [state.node(n) for n in path]
                found.append(_reply(level, src, dst, path,
                                    link_metrics(links, nodes)))
                continue
            n = expansions.get(node, 0)
            if n >= FANOUT_CAP:
                continue
            expansions[node] = n + 1
            for nb in sorted(adj[node]):
                if nb not in scope or nb in path:
                    continue
                link = state.link(node, nb, level)
                nd = state.node(nb).node_delay
                heapq.heappush(heap, (cum + link.delay + nd, seq, path + (nb,)))
                seq += 1
                forwards += 1
        return found, forwards, sum(len(r[1]) - 1 for r in found)

    def _segment(self, scope, level, src, dst, pher_dst, qos, now, memo):
        """Replay the request ants of one discovery segment, confined to the
        frozenset `scope`, and return the chosen path.

        Emits one reply record per path the flood finds, and scores each
        admissible reply right after its record.  The flood comes from
        `memo`, the current memo, with each `QosRequirement`'s
        admissible replies, and each of its `_reply` entries keeps its
        `score_factors` from its first scoring on: a reply scores as tau
        under its exponent times those factors, as `preference_score`
        multiplies them.  Per next hop the first best-scoring admissible
        reply is kept; the next hop with the highest preference
        probability (ties to the lower id) wins unless it is below
        `theta_p`.
        """
        if src == dst:
            # Trivial segment (a head routing to itself); no ants needed.
            return (src,)
        key = (level, src, dst, scope)
        flood = memo.get(key)
        if flood is None:
            flood = memo[key] = (*self._expand(scope, level, src, dst), {})
        replies, forwards, reply_hops, admitted = flood
        self.stats["request_forwards"] += forwards
        if not replies:
            raise NoRouteError(
                f"no level-{level} path from {src} to {dst} within scope")
        self.stats["reply_packets"] += len(replies)
        self.stats["reply_hops"] += reply_hops
        admits = admitted.get(qos)
        if admits is None:
            admits = admitted[qos] = [qos.admits(r[2]) for r in replies]
        trace, pref = self.trace, self.pref
        taus, initial = self.pheromone.entries, self.pheromone.initial
        scores, paths = {}, {}
        for reply, admissible in zip(replies, admits):
            j, path, m, line, factors = reply
            trace(line, now)
            if not admissible:
                continue
            if factors is None:
                factors = reply[4] = score_factors(m, pref)
            f_delay, f_hops, f_bandwidth, f_energy, f_let = factors
            score = (taus.get((level, src, j, pher_dst), initial) ** pref.alpha1
                     * f_delay * f_hops * f_bandwidth * f_energy * f_let)
            prev = scores.get(j)
            if prev is None or score > prev:
                scores[j], paths[j] = score, path
        if not scores:
            raise NoAdmissibleRouteError(
                f"no admissible route from {src} to {dst} under the QoS floors")
        probs = path_preference_probability(scores)
        if abs(left_sum(probs.values()) - 1.0) > 1e-9:
            raise AssertionError("preference probabilities do not normalize")
        best_j = max(sorted(probs), key=probs.__getitem__)
        if probs[best_j] < self.pref.theta_p:
            raise NoAdmissibleRouteError(
                f"best preference {probs[best_j]:.3g} below threshold")
        return paths[best_j]

    # -- discovery -------------------------------------------------------

    def _plan(self, src, dst):
        """How discovery from src to dst proceeds under this topology and
        hierarchy: (link level, route ants, failure, legs, routes).

        Linked endpoints get their lowest link level, and their direct
        route's `_route_entry` under () in the route table `routes`.
        Otherwise a climb up both endpoints' head chains gives the Route
        ants to record, each as `_route_ant`'s `Line`, then either
        its failure (NoRouteError, message) or its legs (scope, level,
        from, to), whose segment choices key the routes they assemble.
        """
        level = self.state.link_level(src, dst)
        if level is not None:
            return (level, (), None, (),
                    {(): self._route_entry((src, dst), (level,))})
        # Climb both endpoints' head chains until they meet: up[i + 1] is
        # the level-i head of up[i], and down likewise from dst.  At each
        # level a Route ant asks the source chain's new head, unless that
        # head is the asker; the top level has no heads above it, so there
        # the two heads must be one.  Once a head confirms the destination in its
        # tables, a Route ant with flag 1 answers back down.
        clusters = self.clusters
        ants = []
        up, down = [src], [dst]
        for level in LEVELS:
            for chain in (up, down):
                head = clusters.head_of(chain[-1], level)
                if head is None:
                    return (None, ants, (NoRouteError, f"node {chain[-1]} "
                                         f"has no level-{level} head"), (), {})
                chain.append(head)
            if level == LEVELS[-1] and up[-1] != down[-1]:
                return (None, ants, (NoRouteError, f"level-2 heads {up[-1]} "
                                     f"and {down[-1]} differ"), (), {})
            if up[-2] != up[-1]:
                ants.append(_route_ant(up[-2], up[-1], 0))
            if up[-1] == down[-1]:
                break
        if up[-1] != up[-2]:
            ants.append(_route_ant(up[-1], up[-2], 1))

        # The chains meet at `level`.  Legs run up the source's chain,
        # across the meeting head's cluster and down the destination's
        # chain, each within its scope head's cluster; consecutive legs
        # share end nodes.
        legs = ([(up[i + 1], i, up[i], up[i + 1]) for i in range(1, level)]
                + [(up[level + 1], level, up[level], down[level])]
                + [(down[i + 1], i, down[i + 1], down[i])
                   for i in reversed(range(1, level))])
        return None, ants, None, tuple(
            (frozenset(clusters.cluster(head, lvl)), lvl, a, b)
            for head, lvl, a, b in legs), {}

    def _route_entry(self, path, levels):
        """What every send of the route `path` (hop i on level levels[i])
        repeats under one stamp: [path, levels, metrics, cache age,
        pheromone keys, deposit (None until first needed), relays,
        `route_selected` `Line`], each relay (node, path,
        levels, metrics, cache age) of a suffix of two hops or more; or the
        failure of a revisited node or missing link (a member-head hop at
        either end can go stale between beacon cycles)."""
        if len(set(path)) != len(path):
            return (RoutingLoopError,
                    f"assembled route revisits a node: {list(path)}")
        try:
            links = path_links(path, self.state, levels)
        except BrokenPathError as exc:
            return NoRouteError, str(exc)
        nodes = [self.state.node(n) for n in path]
        src, dst, max_age = path[0], path[-1], self.cache_max_age
        m, *suffixes = [link_metrics(links[i:], nodes[i:])
                        for i in range(max(1, len(links) - 1))]
        return [path, levels, m, min(m.let, max_age),
                self.pheromone.keys(path, levels, dst), None,
                [(path[i], path[i:], levels[i:], sm, min(sm.let, max_age))
                 for i, sm in enumerate(suffixes, 1)],
                Line({"kind": "route_selected", "src": src, "dst": dst,
                      "path": list(path), "levels": list(levels),
                      "delay": m.delay, "bandwidth": m.bandwidth,
                      "energy": m.energy, "let": m.let,
                      "hops": m.hop_count})]

    def _finalize(self, entry, src, dst, qos, now):
        """Score, reward and cache the route of its `_route_entry` `entry`
        and its relays' suffixes, adding only the time; returns its Route.
        A failure, the tuple (error class, message), raises afresh."""
        if isinstance(entry, tuple):
            raise entry[0](entry[1])
        path, levels, m, age, keys, dtau, relays, line = entry
        if not qos.admits(m):
            raise NoAdmissibleRouteError(
                f"assembled route from {src} to {dst} misses the QoS floors")
        if self.deposit_params is not None:
            if dtau is None:
                dtau = entry[5] = pheromone_deposit(m, self.deposit_params)
            self.pheromone.deposit_on(keys, dtau)
        route = Route(dst, path, levels, m, now + age)
        # Only routes of two hops or more are cached: a linked pair gets its
        # direct route before discover_route reads the cache.
        insert = self.cache.insert
        if len(path) > 2:
            insert(src, route)
        for node, s_path, s_levels, sm, s_age in relays:
            insert(node, Route(dst, s_path, s_levels, sm, now + s_age))
        self.trace(line, now)
        return route

    def discover_route(self, src, dst, qos=QosRequirement(), now=0.0):
        """Full hierarchical route discovery; returns the Route.

        Linked endpoints get their direct route.  Otherwise the source's
        cached route is returned as it is if it meets the QoS floors and
        every hop's link exists; failing that, a climb up both endpoints'
        head chains discovers a new one, which replaces it in the cache.
        A cached route that fails the check is kept, not dropped, until
        a new discovery replaces it or it expires: the link can come back.
        """
        state = self.state
        nodes = state.nodes
        try:
            alive = nodes[src].alive and nodes[dst].alive
        except KeyError as exc:
            raise UnknownNodeError(f"unknown node id {exc.args[0]}") from None
        if not alive:
            raise NoRouteError(f"endpoint dead: {src} -> {dst}")
        if src == dst:
            raise NoRouteError("source equals destination")
        memo = self._current_memo()
        plan = memo.get((src, dst))
        if plan is None:
            plan = memo[src, dst] = self._plan(src, dst)
        level, ants, failure, legs, routes = plan

        # Direct neighbor: deliver without emitting any ants.
        if level is not None:
            return self._finalize(routes[()], src, dst, qos, now)

        hit = self.cache.lookup(src, dst, now)
        if (hit is not None and qos.admits(hit.metrics)
                and all(state.link(a, b, lvl) is not None for a, b, lvl
                        in zip(hit.path, hit.path[1:], hit.levels))):
            self.stats["cache_hits"] += 1
            return hit

        for line in ants:
            self.trace(line, now)
        self.stats["route_ants"] += len(ants)
        if failure is not None:
            raise failure[0](failure[1])
        segs = tuple([self._segment(scope, lvl, a, b, dst, qos, now, memo)
                      for scope, lvl, a, b in legs])
        entry = routes.get(segs)
        if entry is None:
            path, levels = [src], []
            for (_, lvl, a, _), seg in zip(legs, segs):
                if path[-1] != a:
                    # The member-to-head hop onto the first leg.
                    path.append(a)
                    levels.append(0)
                path += seg[1:]
                levels += [lvl] * (len(seg) - 1)
            if path[-1] != dst:
                path.append(dst)
                levels.append(0)
            entry = routes[segs] = self._route_entry(tuple(path),
                                                     tuple(levels))
        return self._finalize(entry, src, dst, qos, now)
