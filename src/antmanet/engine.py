"""Deterministic discrete-event core.

A single heap-ordered event queue drives elections, beacons, mobility,
pheromone evaporation and traffic.  All randomness comes from one seed,
forked per subsystem by fixed labels so adding draws to one subsystem
never perturbs the others.  Given (config, seed) the trace byte stream is
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
from .model import NetworkState, NodeAttributes
from .routing import Router


def energy_debit(attrs, action, size_bits, costs):
    """New energy after one radio action; clamps at zero (node death).

    `costs` is a ``config.EnergyCosts``.
    """
    if action == "tx":
        cost = costs.tx_packet + costs.tx_bit * size_bits
    elif action == "rx":
        cost = costs.rx_packet + costs.rx_bit * size_bits
    elif action == "beacon":
        cost = costs.beacon
    else:
        raise ValueError(f"unknown action {action}")
    return max(0.0, attrs.energy - cost)


def mobility_update(attrs, waypoint, speed, dt, window):
    """Advance toward the waypoint at constant speed for dt seconds.

    Returns (new_position, arrived) and refreshes the node's running
    average speed over the configured window.
    """
    px, py = attrs.position
    wx, wy = waypoint
    dist = math.hypot(wx - px, wy - py)
    step = speed * dt
    if dist <= step or dist == 0.0:
        new_pos = (wx, wy)
        arrived = True
    else:
        f = step / dist
        new_pos = (px + (wx - px) * f, py + (wy - py) * f)
        arrived = False
    frac = min(dt / window, 1.0) if window > 0 else 1.0
    attrs.mobility += frac * (speed - attrs.mobility)
    attrs.position = new_pos
    if dist > 0:
        attrs.velocity = ((wx - px) / dist * speed, (wy - py) / dist * speed)
    else:
        attrs.velocity = (0.0, 0.0)
    return new_pos, arrived


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

    def step(self, nid, attrs, now, dt):
        entry = self.targets.get(nid)
        if entry is None:
            entry = self._draw(now)
            self.targets[nid] = entry
        waypoint, speed, pause_until = entry
        if now < pause_until:
            mobility_update(attrs, attrs.position, 0.0, dt, self.window)
            return
        _, arrived = mobility_update(attrs, waypoint, speed, dt, self.window)
        if arrived:
            wp, sp, _ = self._draw(now)
            self.targets[nid] = (wp, sp, now + dt + self.pause)


# One encoder for every record: json.dumps with these arguments would build
# a new JSONEncoder per call.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _c_encoder():
    """The C encoder `_ENCODER.encode` builds on every call (circular
    checks, ASCII output), built once; None without the C module."""
    make = json.encoder.c_make_encoder
    if make is None:
        return None
    e = _ENCODER
    return make({}, e.default, json.encoder.encode_basestring_ascii,
                e.indent, e.key_separator, e.item_separator, e.sort_keys,
                e.skipkeys, e.allow_nan)


_iterencode = _c_encoder()


def format_record(record):
    """Canonical one-line encoding used for golden-trace comparisons."""
    global _iterencode
    if _iterencode is None:
        return _ENCODER.encode(record)
    try:
        return "".join(_iterencode(record, 0))
    except BaseException:
        # A failed encode leaves the ids of the containers it was inside in
        # the encoder's circular-reference markers; encoding any of them
        # again would raise "Circular reference detected".
        _iterencode = _c_encoder()
        raise


class Simulator:
    def __init__(self, config, trace=None):
        self.config = config
        # The record sink shared with the router and the maintenance manager.
        self.trace = trace if trace is not None else (lambda record: None)
        seed = config.seed
        self.rng_election = random.Random(f"{seed}:election")
        self.rng_mobility = random.Random(f"{seed}:mobility")
        self.rng_topology = random.Random(f"{seed}:topology")
        self.now = 0.0
        self._seq = 0
        self._queue = []
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

    def schedule(self, t, kind, **payload):
        heapq.heappush(self._queue, (t, self._seq, kind, payload))
        self._seq += 1

    def _apply_energy(self, nid, action, bits=0):
        attrs = self.state.node(nid)
        if not attrs.alive:
            return
        # Links do not depend on energy, so only a death changes the topology.
        attrs.energy = energy_debit(attrs, action, bits, self.config.energy_costs)
        if attrs.energy == 0.0:
            attrs.alive = False
            self.state.touch()
            self.stats["deaths"] += 1
            self.router.purge_node(nid)
            self.trace({"kind": "node_death", "t": self.now, "node": nid})

    # -- handlers -----------------------------------------------------------

    def _handle_beacon(self, payload):
        self.manager.run_cycle(self.now)

    def _handle_mobility(self, payload):
        dt = self.config.mobility.update_interval
        for nid in sorted(self.state.nodes):
            attrs = self.state.nodes[nid]
            if attrs.alive:
                self.waypoints.step(nid, attrs, self.now, dt)
        self.state.touch()

    def _handle_evaporate(self, payload):
        self.router.evaporate_all()

    def _handle_packet_send(self, payload):
        flow_idx = payload["flow"]
        flow = self.config.flows[flow_idx]
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
            self.trace({"kind": "no_route", "t": self.now, "flow": flow_idx})
            return
        fstats["sent"] += 1
        self.schedule(self.now, "packet_at", flow=flow_idx, path=route.path,
                      levels=route.levels, idx=0, sent_at=self.now)

    def _handle_packet_at(self, payload):
        """Deliver, or forward one hop on the level discovery chose."""
        path = payload["path"]
        idx = payload["idx"]
        flow_idx = payload["flow"]
        bits = self.config.packet_size_bits
        if idx == len(path) - 1:
            delay = self.now - payload["sent_at"]
            self.stats["total_delay"] += delay
            self._flow_stats[flow_idx]["delivered"] += 1
            self.trace({"kind": "delivered", "t": self.now, "flow": flow_idx,
                        "dst": path[idx], "delay": delay})
            return
        a, b = path[idx], path[idx + 1]
        link = self.state.link(a, b, payload["levels"][idx])
        if link is None:
            self._flow_stats[flow_idx]["dropped"] += 1
            self.trace({"kind": "dropped", "t": self.now, "flow": flow_idx,
                        "at": a, "next": b})
            return
        self._apply_energy(a, "tx", bits)
        self._apply_energy(b, "rx", bits)
        arrival = self.now + link.delay + self.state.node(b).node_delay
        self.schedule(arrival, "packet_at", flow=flow_idx, path=path,
                      levels=payload["levels"], idx=idx + 1,
                      sent_at=payload["sent_at"])

    # -- run -----------------------------------------------------------------

    def run(self):
        cfg = self.config
        self.trace({"kind": "scenario", "seed": cfg.seed,
                    "duration": cfg.duration,
                    "nodes": len(self.state.nodes), "version": cfg.version})
        self.clusters = clustering.form_hierarchy(
            self.state, cfg.weights, self.rng_election, self.now)
        for level in sorted(self.clusters.levels):
            heads = sorted(self.clusters.levels[level])
            self.stats[f"elections_l{level}"] += len(heads)
            self.trace({"kind": "election", "t": self.now, "level": level,
                        "case": "initial", "heads": heads})
        self.router = Router(
            self.state, self.clusters, pref=cfg.preference,
            deposit=cfg.deposit, q=cfg.pheromone.q,
            tau_initial=cfg.pheromone.initial,
            cache_max_age=cfg.cache.max_age, trace=self.trace,
            stats=self.stats)
        self.manager = MaintenanceManager(
            self.state, self.clusters, self.router, cfg.weights,
            self.rng_election, cfg.beacon, trace=self.trace, stats=self.stats,
            energy_debit=self._apply_energy)

        periodic = [("beacon", cfg.beacon.interval),
                    ("evaporate", cfg.pheromone.evaporation_interval)]
        if self.waypoints is not None:
            periodic.append(("mobility", cfg.mobility.update_interval))
        for kind, interval in periodic:
            t = interval
            while t <= cfg.duration:
                self.schedule(t, kind)
                t += interval
        for i, flow in enumerate(cfg.flows):
            self._flow_stats.append({
                "flow": i, "src": flow.src, "dst": flow.dst,
                "sent": 0, "delivered": 0, "dropped": 0,
                "rejected": 0, "failed": 0})
            for k in range(flow.packets):
                st = flow.start + k * flow.interval
                if st > cfg.duration:  # so is every later send
                    break
                self.schedule(st, "packet_send", flow=i)

        handlers = {"beacon": self._handle_beacon,
                    "mobility": self._handle_mobility,
                    "evaporate": self._handle_evaporate,
                    "packet_send": self._handle_packet_send,
                    "packet_at": self._handle_packet_at}
        last_t = 0.0
        while self._queue:
            t, _, kind, payload = heapq.heappop(self._queue)
            if t > cfg.duration:
                break
            assert t >= last_t, "clock moved backwards"
            last_t = t
            self.now = t
            handlers[kind](payload)

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
                          for level in (0, 1, 2)},
            "discovery_failures": failed,
            "admission_rejections": rejected,
            "deaths": stats["deaths"],
            "cache_hits": stats["cache_hits"],
            "flows": flows,
        }
