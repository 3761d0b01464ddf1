"""Deterministic discrete-event core.

A single heap-ordered event queue drives elections, beacons, mobility,
pheromone evaporation and traffic.  It holds only the next event of each
stream (beacons, evaporation, mobility, each flow's sends) and each
packet's next hop.  All randomness comes from one seed,
forked by fixed labels into the mobility and topology streams (and the
per-link jitter), so adding draws to one never perturbs the others;
elections draw none.  Given (config, seed) the trace byte stream is
identical across runs.
"""

import heapq
import json
import math
import random
from collections import Counter

from . import clustering
from .config import Placement
from .errors import NoAdmissibleRouteError, RoutingError
from .maintenance import MaintenanceManager
from .model import LEVELS, NetworkState, NodeAttributes
from .routing import Line, Router


def energy_debit(attrs, cost):
    """New energy after a radio action that costs `cost`; clamps at zero
    (node death)."""
    return max(0.0, attrs.energy - cost)


class RandomWaypoint:
    """Classic random-waypoint model over a rectangular arena."""

    def __init__(self, arena, speed_min, speed_max, pause, window, rng):
        self.arena = arena
        self.speed_min = speed_min
        self.speed_max = speed_max
        self.pause = pause
        self.window = window
        self.rng = rng
        self.targets = {}  # nid -> (waypoint, speed, pause_until)

    def _draw(self, now):
        wp = (self.rng.uniform(0.0, self.arena[0]),
              self.rng.uniform(0.0, self.arena[1]))
        speed = self.rng.uniform(self.speed_min, self.speed_max)
        return wp, speed, now

    def step(self, nodes, now, dt):
        """Move every live node of `nodes` ({id: attributes}) for dt
        seconds, in id order, so that the draws keep their order.

        A node draws its first waypoint when first moved.  A moving node
        advances toward its waypoint at its speed and, on reaching it,
        snaps to it and draws the next, which it leaves after `pause`; a
        paused node keeps its position.  Each node's running average
        speed moves toward its current speed (0 while paused) by
        min(dt / window, 1) of the gap.

        Returns `longest` for ``NetworkState.moved``: the largest step
        taken, or distance to a waypoint snapped to.  A node's move exceeds
        it by no more than that call allows.  With u = 2**-53, rounding
        f = step / dist, dx * f and hypot stretches a step by under 5u, and
        rounding dx and hypot the snapped distance by under 4u; rounding
        px + dx * f adds at most u of each new coordinate."""
        window = self.window
        frac = min(dt / window, 1.0) if window > 0 else 1.0
        targets = self.targets
        hypot = math.hypot
        longest = 0.0
        for nid in sorted(nodes):
            attrs = nodes[nid]
            if not attrs.alive:
                continue
            entry = targets.get(nid)
            if entry is None:
                entry = targets[nid] = self._draw(now)
            (wx, wy), speed, pause_until = entry
            if now < pause_until:
                attrs.mobility -= frac * attrs.mobility
                attrs.velocity = (0.0, 0.0)
                continue
            attrs.mobility += frac * (speed - attrs.mobility)
            px, py = attrs.position
            dx, dy = wx - px, wy - py
            dist = hypot(dx, dy)
            step = speed * dt
            if dist > 0:
                attrs.velocity = (dx / dist * speed, dy / dist * speed)
            else:
                attrs.velocity = (0.0, 0.0)
            if dist > step:
                f = step / dist
                attrs.position = (px + dx * f, py + dy * f)
                if step > longest:
                    longest = step
            else:
                attrs.position = (wx, wy)
                wp, sp, _ = self._draw(now)
                targets[nid] = (wp, sp, now + dt + self.pause)
                if dist > longest:
                    longest = dist
        return longest


# One encoder for every record: json.dumps with these arguments would build
# a new JSONEncoder per call.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def format_record(record):
    """The canonical one-line encoding of a trace record, as
    ``json.dumps(record, sort_keys=True, separators=(",", ":"))`` writes
    it: sorted keys, no spaces, ASCII only.  `TraceWriter` encodes each
    line of a trace through here, a `Line`'s fields only once."""
    return _ENCODER.encode(record)


def TraceWriter(write):
    """The trace sink that writes each record as one line, `format_record`
    of it and a newline, through `write`.

    A sink is called as ``sink(record)`` for a record written once, or as
    ``sink(line, t)`` for a `routing.Line`, the record ``{**line.fields,
    "t": t}`` of a record that recurs.  Every field of a Line sorts before
    "t", and t is a float (not a subclass) that is finite.  So the line's
    text up to the value of "t", its head, is encoded once, when a writer
    first meets the Line, and kept on it; each write is that head and
    ``repr(t)``.  A Line's fields must not change once it is written.

    The sink is a closure, not an instance: the last "t" is its local
    cell, so a record costs one plain call.
    """
    # The last "t" seen and the text that ends its lines.  The records of
    # one event share the clock's float object, so it recurs.
    last_t = object()
    t_end = None

    def sink(record, t=None):
        nonlocal last_t, t_end
        if t is None:
            write(format_record(record) + "\n")
            return
        head = record.head
        if head is None:
            fields = record.fields
            if max(fields, default="") >= "t":
                raise ValueError(
                    f'"t" would not be the largest key of {fields!r}')
            head = record.head = (format_record(fields)[:-1]
                                  + (',"t":' if fields else '"t":'))
        if t is not last_t:
            # json writes a finite float as repr does, but not an int, a
            # non-finite float or a float subclass with its own repr.
            if not (type(t) is float and math.isfinite(t)):
                raise ValueError(f'"t" {t!r} of {record.fields!r} is not a '
                                 "finite float")
            last_t, t_end = t, repr(t) + "}\n"
        write(head + t_end)

    return sink


# Stream numbers, the tie-break between events queued for one instant:
# the periodic streams first, then flow i as FLOWS + i.  A stream has at
# most one event queued, its next, so one number per stream orders ties as
# a block of numbers per stream, one per event, would.  Runtime events (a
# packet's next hop) are numbered after every stream, in the order they
# are scheduled.
BEACON, EVAPORATE, MOBILITY, FLOWS = range(4)


class Simulator:
    def __init__(self, config, trace=None):
        self.config = config
        # The record sink shared with the router and the maintenance
        # manager, called as trace(record) or trace(line, t); see
        # TraceWriter.
        self.trace = (trace if trace is not None
                      else (lambda record, t=None: None))
        seed = config.seed
        self.rng_mobility = random.Random(f"{seed}:mobility")
        self.rng_topology = random.Random(f"{seed}:topology")
        self.now = 0.0
        self._queue = []
        self._seq = FLOWS + len(config.flows)
        self._ran = False
        # The run's one counter store, shared with the router and the
        # maintenance manager.
        self.stats = Counter()
        self._flow_stats = []
        self.state = self._build_state()
        self.clusters = None
        self.router = None
        self.manager = None
        mob = config.mobility
        self.waypoints = RandomWaypoint(
            (config.arena.width, config.arena.height),
            mob.speed_min, mob.speed_max, mob.pause, mob.window,
            self.rng_mobility) if mob.enabled else None
        self.state.mobile = mob.enabled  # its first builds keep the skin

    # -- construction ----------------------------------------------------

    def _build_state(self):
        cfg = self.config
        state = NetworkState(link_delay=cfg.link.delay,
                             link_bandwidth=cfg.link.bandwidth,
                             link_jitter=cfg.link.jitter, seed=cfg.seed)
        for nid, s in cfg.nodes():
            if isinstance(s, Placement):
                position, velocity = s.position, s.velocity
            else:
                # A group's node is placed uniformly at random, at rest.
                position = (self.rng_topology.uniform(0.0, cfg.arena.width),
                            self.rng_topology.uniform(0.0, cfg.arena.height))
                velocity = NodeAttributes.velocity
            state.add_node(nid, NodeAttributes(
                position=position, velocity=velocity, energy=s.energy,
                max_level=s.max_level, tx_range=s.tx_range,
                node_delay=s.node_delay))
        for lk in cfg.links:
            state.set_link_params(lk.a, lk.b, lk.level, lk.delay,
                                  lk.bandwidth)
        return state

    # -- infrastructure ----------------------------------------------------

    def schedule(self, t, handler, payload=None):
        """Queue a runtime event: handler(payload) at time t."""
        heapq.heappush(self._queue, (t, self._seq, handler, payload))
        self._seq += 1

    def _queue_next(self, stream, t, handler, payload):
        """Queue the next event of `stream` at time t, unless t is past the
        run's end.  Each stream's handler calls this for its successor."""
        if t <= self.config.duration:
            heapq.heappush(self._queue, (t, stream, handler, payload))

    def _queue_streams(self):
        """Queue the first event of every stream: each periodic stream's
        first tick, one interval in, and each flow's first send."""
        cfg = self.config
        periodic = [(BEACON, self._handle_beacon, cfg.beacon.interval),
                    (EVAPORATE, self._handle_evaporate,
                     cfg.pheromone.evaporation_interval)]
        if self.waypoints is not None:
            periodic.append((MOBILITY, self._handle_mobility,
                             cfg.mobility.update_interval))
        for stream, handler, interval in periodic:
            self._queue_next(stream, interval, handler, interval)
        for i, flow in enumerate(cfg.flows):
            if flow.packets > 0:
                self._queue_next(FLOWS + i, flow.start,
                                 self._handle_packet_send, (i, 0))

    def _apply_energy(self, nid, cost):
        attrs = self.state.node(nid)
        if not attrs.alive:
            return
        # Links do not depend on energy, so only a death changes the topology.
        attrs.energy = energy_debit(attrs, cost)
        self.state.energy_version += 1
        if attrs.energy == 0.0:
            attrs.alive = False
            self.state.touch()
            self.stats["deaths"] += 1
            self.router.purge_node(nid)
            self.trace({"kind": "node_death", "t": self.now, "node": nid})

    # -- handlers -----------------------------------------------------------
    #
    # A periodic handler's payload is its interval.  The next tick comes
    # one interval after this one, so tick k falls at the running sum of k
    # intervals.

    def _handle_beacon(self, interval):
        self._queue_next(BEACON, self.now + interval, self._handle_beacon,
                         interval)
        self.manager.run_cycle(self.now)

    def _handle_mobility(self, dt):
        self._queue_next(MOBILITY, self.now + dt, self._handle_mobility, dt)
        self.state.moved(self.waypoints.step(self.state.nodes, self.now, dt))

    def _handle_evaporate(self, interval):
        self._queue_next(EVAPORATE, self.now + interval,
                         self._handle_evaporate, interval)
        self.router.evaporate_all()

    def _handle_packet_send(self, payload):
        """Send packet k of the flow, for payload (flow, k), and queue the
        flow's next send: packet k + 1 at start + (k + 1) * interval."""
        flow_idx, k = payload
        flow = self.config.flows[flow_idx]
        if k + 1 < flow.packets:
            self._queue_next(FLOWS + flow_idx,
                             flow.start + (k + 1) * flow.interval,
                             self._handle_packet_send, (flow_idx, k + 1))
        fstats = self._flow_stats[flow_idx]
        try:
            route = self.router.discover_route(flow.src, flow.dst, flow.qos,
                                               now=self.now)
        except NoAdmissibleRouteError:
            fstats["rejected"] += 1
            self.trace({"kind": "admission_rejected", "t": self.now,
                        "flow": flow_idx})
            return
        except RoutingError:
            fstats["failed"] += 1
            self.trace(self._no_route[flow_idx], self.now)
            return
        fstats["sent"] += 1
        self.schedule(self.now, self._handle_packet_at,
                      (flow_idx, route.path, route.levels, 0, self.now))

    def _handle_packet_at(self, payload):
        """Deliver, or forward on the level discovery chose, the packet
        (flow, path, levels, idx, sent_at) at ``path[idx]``; drop it at a
        dead destination or before a missing link (a dead relay has none)."""
        flow_idx, path, levels, idx, sent_at = payload
        a = path[idx]
        state = self.state
        if idx == len(path) - 1:
            if not state.nodes[a].alive:
                self._drop(flow_idx, at=a)
                return
            delay = self.now - sent_at
            self.stats["total_delay"] += delay
            self._flow_stats[flow_idx]["delivered"] += 1
            # delay is now - sent_at with now >= sent_at: finite and never
            # -0.0, so deliveries with equal keys have equal text.
            key = (flow_idx, a, delay)
            line = self._delivered.get(key)
            if line is None:
                line = self._delivered[key] = Line({
                    "kind": "delivered", "flow": flow_idx, "dst": a,
                    "delay": delay})
            self.trace(line, self.now)
            return
        b = path[idx + 1]
        link = state.link(a, b, levels[idx])
        if link is None:
            self._drop(flow_idx, at=a, next=b)
            return
        if self._tx_cost or self._rx_cost:
            self._apply_energy(a, self._tx_cost)
            self._apply_energy(b, self._rx_cost)
        arrival = self.now + link.delay + state.nodes[b].node_delay
        self.schedule(arrival, self._handle_packet_at,
                      (flow_idx, path, levels, idx + 1, sent_at))

    def _drop(self, flow_idx, **where):
        self._flow_stats[flow_idx]["dropped"] += 1
        self.trace({"kind": "dropped", "t": self.now, "flow": flow_idx,
                    **where})

    # -- run -----------------------------------------------------------------

    def run(self):
        """Run the scenario once and return its summary.

        The queue starts with the first event of each stream; each event
        of a stream queues the stream's next, and each hop of a packet its
        next hop.  Events at one instant run in stream order (beacon,
        evaporation, mobility, the flows in order), then runtime events in
        the order they were scheduled.  A simulator runs once: a second
        call raises RuntimeError before it writes any record.
        """
        if self._ran:
            raise RuntimeError(
                "Simulator.run called twice: a simulator runs its scenario "
                "once; build a new Simulator to run it again")
        self._ran = True
        cfg = self.config
        self.trace({"kind": "scenario", "seed": cfg.seed,
                    "duration": cfg.duration,
                    "nodes": len(self.state.nodes), "version": cfg.version})
        self.clusters = clustering.form_hierarchy(self.state, cfg.weights,
                                                  self.now)
        for level in sorted(self.clusters.levels):
            heads = sorted(self.clusters.levels[level])
            self.stats[f"elections_l{level}"] += len(heads)
            self.trace({"kind": "election", "t": self.now, "level": level,
                        "case": "initial", "heads": heads})
        # Each radio action's cost, worked out once.  Costs are >= 0 and a
        # live node's energy is > 0, so a debit of 0 changes no energy and
        # kills no node: a run skips its hop debits if both hop costs are
        # 0, and its beacon debits if the beacon is free.
        costs = cfg.energy_costs
        bits = cfg.packet_size_bits
        self._tx_cost = costs.tx_packet + costs.tx_bit * bits
        self._rx_cost = costs.rx_packet + costs.rx_bit * bits
        debit = None
        if costs.beacon:
            apply, beacon = self._apply_energy, costs.beacon
            state, nodes = self.state, self.state.nodes

            def debit(nids):
                # A live node whose energy stays above 0 only loses the
                # cost; a death, or a dead node, goes through apply.
                state.energy_version += 1
                for nid in nids:
                    attrs = nodes[nid]
                    if attrs.alive and attrs.energy > beacon:
                        attrs.energy -= beacon
                    else:
                        apply(nid, beacon)
        self.router = Router(
            self.state, self.clusters, pref=cfg.preference,
            deposit=cfg.deposit, q=cfg.pheromone.q,
            tau_initial=cfg.pheromone.initial,
            cache_max_age=cfg.cache.max_age, trace=self.trace,
            stats=self.stats)
        self.manager = MaintenanceManager(
            self.state, self.clusters, self.router, cfg.weights, cfg.beacon,
            trace=self.trace, stats=self.stats, energy_debit=debit)

        for i, flow in enumerate(cfg.flows):
            self._flow_stats.append({
                "flow": i, "src": flow.src, "dst": flow.dst,
                "sent": 0, "delivered": 0, "dropped": 0,
                "rejected": 0, "failed": 0})
        # The records that recur apart from their time, as Lines: each
        # flow's no_route, and each (flow, destination, delay)'s delivered.
        self._no_route = [Line({"kind": "no_route", "flow": i})
                          for i in range(len(cfg.flows))]
        self._delivered = {}
        self._queue_streams()

        queue, pop, duration = self._queue, heapq.heappop, cfg.duration
        while queue:
            t, _, handler, payload = pop(queue)
            if t > duration:
                break
            assert t >= self.now, "clock moved backwards"
            self.now = t
            handler(payload)

        summary = self.summary()
        self.trace({"kind": "summary", "t": cfg.duration, **summary})
        return summary

    def summary(self):
        """The run's summary, built from `stats` and the per-flow rows."""
        stats, flows = self.stats, self._flow_stats
        sent, delivered, dropped, rejected, failed = (
            sum(f[key] for f in flows)
            for key in ("sent", "delivered", "dropped", "rejected", "failed"))
        return {
            "packets_sent": sent,
            "packets_delivered": delivered,
            "packets_dropped": dropped,
            "packets_in_flight": sent - delivered - dropped,
            "mean_delay": (stats["total_delay"] / delivered if delivered
                           else 0.0),
            "control_packets": (stats["route_ants"] + stats["request_forwards"]
                                + stats["reply_hops"]
                                + stats["beacon_packets"]),
            "elections": {str(level): stats[f"elections_l{level}"]
                          for level in LEVELS},
            "discovery_failures": failed,
            "admission_rejections": rejected,
            "deaths": stats["deaths"],
            "cache_hits": stats["cache_hits"],
            "flows": flows,
        }
