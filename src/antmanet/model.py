"""Heterogeneous node/link world model.

Nodes live on a 2-D plane and carry up to three radio interfaces (levels
0..2).  A node with max_level L supports every level <= L; transmission
range grows strictly with the level.  Links are derived from positions,
velocities, ranges and liveness.  ``NetworkState`` caches them per
topology version: a per-level adjacency, and the attributes of every link
looked up.  ``moved(longest)`` starts a new version after a mobility tick
that moved no node farther than `longest`; ``touch()`` starts one after
any other change.  ``version`` counts them.

A level's adjacency is carried across mobility ticks, as a neighbor list
with a skin (Verlet, Phys. Rev. 159, 1967).  A full grid build keeps every
pair within its range plus the skin, sorted by how far it is from
flipping, and a travel bound that each tick's `longest` raises.  While
twice that bound stays below the skin, a new version re-tests only the
pairs that the movement could have flipped.  ``touch()`` drops every
level's build, so the next read rebuilds.  Every build keeps the skin, so
a mobile run's first builds serve its first ticks, and a static run,
which reports no tick, builds each level once and never refreshes.
"""

import math
import random
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from functools import reduce
from itertools import chain
from operator import add, itemgetter

from .errors import ConfigError, UnknownNodeError


def left_sum(values):
    """The float sum of `values`, added strictly left to right from 0.0.

    Since CPython 3.12 ``sum()`` compensates float rounding, which moves
    the last bit of some sums against 3.10 and 3.11.  Every sum that
    reaches a trace byte or a decision goes through here instead, or
    through the one other left-to-right sum, the plain loop of
    ``clustering._distance_sum``; none through the builtin ``sum``.  So
    the trace does not depend on the interpreter.
    """
    return reduce(add, values, 0.0)


# The hierarchy's levels, lowest first: every per-level loop, map and
# scenario key is derived from this tuple.
LEVELS = (0, 1, 2)

# Transmission ranges by max_level: one entry per supported level.
DEFAULT_TX_RANGE = {0: (100.0,), 1: (100.0, 250.0), 2: (100.0, 250.0, 600.0)}


@dataclass
class NodeAttributes:
    position: tuple
    velocity: tuple = (0.0, 0.0)
    energy: float = 100.0
    mobility: float = 0.0  # running-average speed, m/s
    max_level: int = 0
    tx_range: tuple = DEFAULT_TX_RANGE[0]  # one entry per level, increasing
    node_delay: float = 0.001  # processing + queuing delay, seconds
    alive: bool = True

    def __post_init__(self):
        self.position = tuple(map(float, self.position))
        self.velocity = tuple(map(float, self.velocity))
        self.tx_range = tuple(map(float, self.tx_range))
        # A float, and 0.0 for -0.0, so that an energy traces as one text
        # however it was given: JSON tells 100 from 100.0 and -0.0 from 0.0.
        self.energy = float(self.energy) + 0.0
        if self.energy < 0:
            raise ConfigError("energy must be >= 0")
        if len(self.tx_range) != self.max_level + 1:
            raise ConfigError(
                f"tx_range needs {self.max_level + 1} entries, got {len(self.tx_range)}"
            )
        for lo, hi in zip(self.tx_range, self.tx_range[1:]):
            if hi <= lo:
                raise ConfigError("tx_range must increase strictly with level")


@dataclass(frozen=True)
class LinkAttributes:
    delay: float  # transmission + propagation, seconds
    bandwidth: float  # available, bits/second
    let: float  # link expiration time, seconds


def link_expiration_time(a, b, range_m):
    """Time until two nodes moving at constant velocity drift out of range.

    Solves |dp + t*dv| = range_m for the positive root; returns +inf when
    the relative velocity is zero.  The pair must currently be in range, to
    within a relative 1e-9 of range_m**2: a pair that `hypot` puts in range
    can have a squared distance a few ulps of range_m**2 beyond it.
    """
    dpx = a.position[0] - b.position[0]
    dpy = a.position[1] - b.position[1]
    dvx = a.velocity[0] - b.velocity[0]
    dvy = a.velocity[1] - b.velocity[1]
    r2 = range_m * range_m
    c = dpx * dpx + dpy * dpy - r2
    if c > 1e-9 * r2:
        raise ValueError("nodes are not currently within range")
    a2 = dvx * dvx + dvy * dvy
    if a2 == 0.0:
        return math.inf
    bq = 2.0 * (dpx * dvx + dpy * dvy)
    disc = bq * bq - 4.0 * a2 * c
    t = (-bq + math.sqrt(max(disc, 0.0))) / (2.0 * a2)
    return max(t, 0.0)


# Per-level channel defaults; scenarios override these.
DEFAULT_LINK_DELAY = {0: 0.002, 1: 0.0015, 2: 0.001}
DEFAULT_LINK_BANDWIDTH = {0: 2e6, 1: 5e6, 2: 10e6}


# A level's skin, as a fraction of its largest range.  A wider skin
# rebuilds less often but keeps, and re-tests, more pairs.  Median untraced
# `bench/run.py` wall_s at seed 1, 10 alternating runs each (2-vCPU x86-64,
# Python 3.11):
#
#   SKIN    0.2     0.3     0.4     0.5
#   soak    0.1511  0.1489  0.1486  0.1487
#   dense   0.0314  0.0309  0.0302  0.0307
SKIN = 0.4


class _Reference:
    """A level's last full build, against which later versions refresh.

    ``pairs`` holds (a, b, m, linked) for every member pair within ``skin``
    of its range m, the smaller of the two ranges, on either side, in the
    order of ``slack``, the pair's distance from m; a and b are the two
    nodes' attributes.  ``near`` holds the same pairs as (slack, i, j, m,
    linked), i and j being the nodes' indices in ``ids``.  A linked pair
    deeper than the skin is left out: the refresh re-tests only the pairs
    whose slack is within its bound, and it rebuilds instead once the
    bound reaches the skin, so such a pair cannot flip before the next
    build.
    ``flipped`` holds the indices of the pairs whose link differs from the
    build in ``adj``, the adjacency of the latest version.

    ``travel`` bounds how far any member has moved since the build: each
    ``moved(longest)`` adds `longest` times ``STRETCH``, plus ``creep``.
    ``creep`` is 2**-50 of the sum of the reach and a bound on the
    members' coordinates at the build.  While the refresh holds, travel
    stays below the reach, so a member's coordinates stay within that sum,
    and rounding its new ones adds at most a quarter of ``creep`` (see
    ``moved``); the rest covers the rounding of the sum itself.  ``margin``
    covers the rounding of a distance.
    """

    __slots__ = ("ids", "skin", "margin", "creep", "travel", "near",
                 "slack", "pairs", "flipped", "adj")

    def __init__(self, ids, attrs, skin, margin, creep, near, adj):
        near.sort(key=itemgetter(0))
        self.ids = ids
        self.skin, self.margin, self.creep = skin, margin, creep
        self.travel = 0.0
        self.near = near
        self.slack = list(map(itemgetter(0), near))
        self.pairs = [(attrs[i], attrs[j], m, linked)
                      for _, i, j, m, linked in near]
        self.flipped = set()
        self.adj = adj


# Stretches each tick's `longest` in ``moved``: 2**-48 covers the 2**-50
# that ``moved`` allows a caller, and the rounding of the product and sum.
STRETCH = 1.0 + 2.0 ** -48


class NetworkState:
    """World state: nodes plus a cached snapshot of the level-scoped links.

    Each topology version caches, per level, the neighbor set of every
    node (empty for a dead node or one without the level's interface), and
    the ``LinkAttributes`` of every (pair, level) looked up.  Links depend
    on positions, velocities (through the link expiration time), ranges
    and liveness, so a change to any of these must be followed by a new
    version.  A mobility tick that changes only positions and velocities
    reports how far nodes moved through ``moved(longest)``; every other
    change (a node added, a death, a range edit) is followed by
    ``touch()``, which means that anything may have changed.  A node's
    ``node_delay``, like its range and liveness, changes only with a
    ``touch()``.  Energy does not enter a link, so energy changes need no
    new version.

    ``version`` counts the topology versions: ``moved``, ``touch()`` and
    ``set_link_params`` each increment it.  A value derived from the
    adjacency, the link attributes and the node delays holds while
    ``version`` is unchanged.  ``energy_version`` counts energy writes:
    whoever changes a node's energy increments it, so a value derived
    from energies too holds while both counters are unchanged.

    The first lookup at a level in a new version refreshes the level's
    previous adjacency when it can (``_refresh``) and builds it from
    scratch otherwise (``_build_adjacency``).  Both give the same sets.

    Two level views serve passes that read a whole level and cannot touch
    the topology: ``adjacency(level)``, the version's neighbor map, and
    ``members(level)``, the live nodes with the level's interface, which
    the build lists.
    """

    def __init__(self, link_delay=None, link_bandwidth=None, link_jitter=0.0, seed=0):
        self.nodes = {}
        self.link_delay = dict(link_delay or DEFAULT_LINK_DELAY)
        self.link_bandwidth = dict(link_bandwidth or DEFAULT_LINK_BANDWIDTH)
        self.link_jitter = float(link_jitter)
        self.seed = seed
        self._overrides = {}  # (lo, hi, level) -> (delay, bandwidth)
        self._jitter_cache = {}
        self._adjacency = {}  # level -> {nid: frozenset of linked peers}
        self._references = {}  # level -> _Reference of the last full build
        self._links = {}  # (lo, hi, level) -> LinkAttributes, or None if unlinked
        self.version = 0
        self.energy_version = 0

    def add_node(self, nid, attrs):
        nid = int(nid)
        if nid in self.nodes:
            raise ConfigError(f"duplicate node id {nid}")
        self.nodes[nid] = attrs
        self.touch()

    def node(self, nid):
        try:
            return self.nodes[nid]
        except KeyError:
            raise UnknownNodeError(f"unknown node id {nid}") from None

    def touch(self):
        """Start a new topology version after any change: drop the cached
        adjacency and links, and every level's build."""
        self._adjacency.clear()
        self._links.clear()
        self._references.clear()
        self.version += 1

    def moved(self, longest):
        """Start a new topology version after a mobility tick that changed
        only positions and velocities, and moved no node farther than
        `longest`, up to rounding: a node may have moved up to 2**-50 of
        `longest` farther, and 2**-52 of its largest new coordinate, which
        the rounding of new coordinates can add.  Drops the cached
        adjacency and links, and raises every level's travel bound."""
        self._adjacency.clear()
        self._links.clear()
        self.version += 1
        for ref in self._references.values():
            ref.travel += longest * STRETCH + ref.creep

    def set_link_params(self, a, b, level, delay=None, bandwidth=None):
        """Pin explicit delay/bandwidth for one link (crafted scenarios)."""
        lo, hi = (a, b) if a < b else (b, a)
        self._overrides[(lo, hi, level)] = (delay, bandwidth)
        self._links.pop((lo, hi, level), None)
        self.version += 1

    def _build_adjacency(self, level):
        """Neighbor sets of every node at `level`, in one grid pass.

        Live nodes supporting `level` are bucketed into square cells a
        little wider than the level's largest range plus its skin, so every
        pair within that reach lies in the same or an adjacent cell.  The
        margin absorbs rounding in the cell index; it holds for coordinates
        within about 10**6 ranges of the origin.  The build becomes the
        level's reference for ``_refresh``.
        """
        members = []
        for nid, attrs in self.nodes.items():
            if attrs.alive and attrs.max_level >= level:
                x, y = attrs.position
                if not (math.isfinite(x) and math.isfinite(y)):
                    raise ValueError(f"non-finite coordinate on node {nid}")
                members.append((nid, x, y, attrs.tx_range[level], attrs))
        largest = max((m[3] for m in members), default=0.0)
        skin = largest * SKIN
        reach = largest + skin
        cell = reach * (1.0 + 1e-9)
        if not cell > 0.0:
            cell = 1.0
        grid = defaultdict(list)
        for i, (_, x, y, r, _) in enumerate(members):
            grid[(math.floor(x / cell), math.floor(y / cell))].append(
                (i, x, y, r))
        hypot = math.hypot
        found = [[] for _ in members]
        near = []  # (slack, i, j, m, linked) for each pair within the skin
        for (cx, cy), here in grid.items():
            # Test each pair once: within this cell, and against the four
            # adjacent cells that come after it in x, then y.
            candidates = here + [
                entry for key in ((cx, cy + 1), (cx + 1, cy - 1),
                                  (cx + 1, cy), (cx + 1, cy + 1))
                for entry in grid.get(key, ())]
            for k, (i, ax, ay, ra) in enumerate(here, 1):
                for j, bx, by, rb in candidates[k:]:
                    d = hypot(ax - bx, ay - by)
                    # m + skin is min(ra + skin, rb + skin): rounding is
                    # monotone.
                    m = ra if ra < rb else rb
                    if d <= m:
                        found[i].append(j)
                        found[j].append(i)
                        if m - d <= skin:
                            near.append((m - d, i, j, m, True))
                    elif d <= m + skin:
                        near.append((d - m, i, j, m, False))
        ids = [m[0] for m in members]
        adj = dict.fromkeys(self.nodes, frozenset())
        for nid, found_i in zip(ids, found):
            adj[nid] = frozenset(map(ids.__getitem__, found_i))
        creep = 0.0
        if skin:
            # No member is farther from the origin, on either axis, than
            # two cells beyond its cell's index.
            far = (max(map(abs, chain.from_iterable(grid))) + 2) * cell
            creep = 2.0 ** -50 * (far + reach)
        self._references[level] = _Reference(
            ids, [m[4] for m in members], skin, reach * 1e-9, creep, near,
            adj)
        return adj

    def _refresh(self, ref):
        """The level's adjacency, updated from its reference build.

        Each member has moved at most ``ref.travel`` since the build, so no
        pair's distance has moved by more than twice that, and only the
        pairs whose slack is within that (plus a float margin) are
        re-tested.  Returns None when the bound reaches the skin.  A level
        with no members keeps its empty map.
        """
        if not ref.ids:
            return ref.adj
        bound = 2.0 * ref.travel + ref.margin
        if not bound < ref.skin:
            return None
        # dist(p, q) is hypot(px - qx, py - qy) to the bit, as the build
        # computes it.
        dist = math.dist
        flipped = {k for k, (a, b, m, linked) in enumerate(
                       ref.pairs[:bisect_right(ref.slack, bound)])
                   if (dist(a.position, b.position) <= m) != linked}
        adj, ids, near = ref.adj, ref.ids, ref.near
        for k in flipped ^ ref.flipped:
            _, i, j, _, _ = near[k]
            a, b = ids[i], ids[j]
            adj[a] = adj[a] ^ {b}
            adj[b] = adj[b] ^ {a}
        ref.flipped = flipped
        return adj

    def adjacency(self, level):
        """The level's neighbor map in this topology version: {nid: frozenset
        of linked peers} for every node, as ``neighbors`` reads it.

        Read-only, and valid only until the next ``touch()``: a later
        version may update the same map in place, or replace it.  A pass
        that cannot touch the topology fetches it once instead of calling
        ``neighbors`` per node."""
        adj = self._adjacency.get(level)
        if adj is None:
            ref = self._references.get(level)
            if ref is not None:
                adj = self._refresh(ref)
            if adj is None:
                adj = self._build_adjacency(level)
            self._adjacency[level] = adj
        return adj

    def members(self, level):
        """The ids of the live nodes with the level's interface, in the
        order of ``nodes``, as a read-only list; valid until the next
        ``touch()``."""
        self.adjacency(level)
        return self._references[level].ids

    def neighbors(self, nid, level):
        """All peers linked to `nid` at `level`; empty if dead or unsupported."""
        adj = self.adjacency(level)
        try:
            return adj[nid]
        except KeyError:
            raise UnknownNodeError(f"unknown node id {nid}") from None

    def linked(self, a, b, level):
        adj = self.adjacency(level)
        for nid in (a, b):
            if nid not in adj:
                raise UnknownNodeError(f"unknown node id {nid}")
        if a == b:
            attrs = self.nodes[a]
            return attrs.alive and attrs.max_level >= level
        return b in adj[a]

    def link_level(self, a, b):
        """Lowest level at which a and b are currently linked, else None."""
        for level in LEVELS:
            if self.linked(a, b, level):
                return level
        return None

    def _jitter(self, a, b, level, tag):
        if not self.link_jitter:
            return 1.0
        key = (min(a, b), max(a, b), level, tag)
        u = self._jitter_cache.get(key)
        if u is None:
            u = random.Random(f"{self.seed}:{key}").uniform(-1.0, 1.0)
            self._jitter_cache[key] = u
        return 1.0 + self.link_jitter * u

    def link(self, a, b, level):
        """LinkAttributes for the level-`level` (a, b) link, or None if no
        such link.

        The result is shared by every lookup of the link in this topology
        version; link expiration time is symmetric, so (a, b) and (b, a)
        give the same attributes.
        """
        lo, hi = (a, b) if a < b else (b, a)
        key = (lo, hi, level)
        if key in self._links:
            return self._links[key]
        attrs = None
        if self.linked(a, b, level):
            delay, bandwidth = self._overrides.get(key, (None, None))
            if delay is None:
                delay = self.link_delay[level] * self._jitter(a, b, level, "d")
            if bandwidth is None:
                bandwidth = self.link_bandwidth[level] * self._jitter(a, b, level, "b")
            na, nb = self.node(a), self.node(b)
            rng = min(na.tx_range[level], nb.tx_range[level])
            attrs = LinkAttributes(delay=delay, bandwidth=bandwidth,
                                   let=link_expiration_time(na, nb, rng))
        self._links[key] = attrs
        return attrs
