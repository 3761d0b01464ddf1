import dataclasses
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from antmanet import engine
from antmanet.config import (Arena, CacheConfig, EnergyCosts, FlowConfig,
                             LinkOverride, MobilityConfig, NodeGroup,
                             Placement, ScenarioConfig, load_scenario,
                             parse_scenario)
from antmanet.engine import (RandomWaypoint, Simulator, TraceWriter,
                             energy_debit, format_record)
from antmanet.model import NodeAttributes

from helpers import as_record, beacon_times, record_sink
from reference import assert_matches_references


def attrs(pos=(0.0, 0.0), energy=100.0):
    return NodeAttributes(position=pos, energy=energy)


class TestEnergyDebit:
    """Each action's cost, debited over a run of `two_node_config`: node 0
    sends three 8,192-bit packets straight to node 1, and head and member
    each beacon once a second for 10 s.  The costs are powers of two, so
    each node's energy is exact."""

    def final_energies(self, **costs):
        sim = Simulator(two_node_config(energy_costs=EnergyCosts(**costs)))
        assert sim.run()["packets_delivered"] == 3
        return [sim.state.nodes[n].energy for n in (0, 1)]

    def test_tx_cost(self):
        # Each send costs 1 + 8192 / 1024 = 9.
        assert self.final_energies(tx_packet=1.0, tx_bit=2.0 ** -10) == [
            100.0 - 3 * 9.0, 100.0]

    def test_rx_cost(self):
        # Each receipt costs 0.5 + 8192 / 4096 = 2.5.
        assert self.final_energies(rx_packet=0.5, rx_bit=2.0 ** -12) == [
            100.0, 100.0 - 3 * 2.5]

    def test_beacon_cost(self):
        assert self.final_energies(beacon=0.25) == [100.0 - 10 * 0.25] * 2

    def test_clamped_at_zero(self):
        assert energy_debit(attrs(energy=10.0), 50.0) == 0.0

    def beacon_run(self, energies):
        """A run of `two_node_config` where only beacons cost energy, 0.25
        each, and nodes 0 and 1 start with `energies`."""
        cfg = two_node_config(energy_costs=EnergyCosts(beacon=0.25))
        cfg.placements = [dataclasses.replace(p, energy=e)
                          for p, e in zip(cfg.placements, energies)]
        records = []
        sim = Simulator(cfg, trace=record_sink(records))
        sim.run()
        return sim, [(r["t"], r["node"]) for r in records
                     if r["kind"] == "node_death"]

    @pytest.mark.parametrize("energies, deaths, final", [
        # Head 0 empties itself at its 8th beacon; member 1, unheard at
        # t = 8 and elected head then, empties itself at its 1st.
        ((2.0, 2.0), [(8.0, 0), (9.0, 1)], [0.0, 0.0]),
        # Member 0 empties itself at its 8th ack of head 1.
        ((2.0, 100.0), [(8.0, 0)], [0.0, 100.0 - 10 * 0.25])],
        ids=["head", "member"])
    def test_beacon_debit_to_exactly_zero_kills(self, energies, deaths,
                                                final):
        sim, seen = self.beacon_run(energies)
        assert seen == deaths
        assert [sim.state.nodes[n].energy for n in (0, 1)] == final
        assert sim.stats["deaths"] == len(deaths)

    def test_beacon_debit_leaves_a_dead_node_alone(self):
        # Whatever its energy: the node's death is not the debit's to count.
        sim, _ = self.beacon_run((2.0, 100.0))
        node = sim.state.nodes[1]
        node.alive = False
        version = sim.state.version
        sim.manager.energy_debit((1,))
        assert node.energy == 100.0 - 10 * 0.25
        assert sim.stats["deaths"] == 1
        assert sim.state.version == version


def waypoints(pause=0.0, seed=3):
    return RandomWaypoint((100.0, 60.0), 0.5, 2.0, pause=pause, window=10.0,
                          rng=random.Random(seed))


class TestMobilityUpdate:
    """`RandomWaypoint.step`, one tick of every live node's movement."""

    def test_partial_step_toward_waypoint(self):
        wp = waypoints()
        wp.targets[0] = ((10.0, 0.0), 2.0, 0.0)
        a = attrs(pos=(0.0, 0.0))
        wp.step({0: a}, 1.0, 1.0)
        assert a.position == pytest.approx((2.0, 0.0))
        assert a.velocity == pytest.approx((2.0, 0.0))
        assert wp.targets[0] == ((10.0, 0.0), 2.0, 0.0)

    def test_arrival_snaps_to_waypoint(self):
        wp = waypoints(pause=4.0)
        wp.targets[0] = ((1.0, 0.0), 2.0, 0.0)
        a = attrs(pos=(0.0, 0.0))
        wp.step({0: a}, 1.0, 1.0)
        assert a.position == (1.0, 0.0)
        # The next waypoint and speed are drawn at arrival, and the node
        # leaves for them after the pause.
        rng = random.Random(3)
        assert wp.targets[0] == ((rng.uniform(0.0, 100.0),
                                  rng.uniform(0.0, 60.0)),
                                 rng.uniform(0.5, 2.0), 1.0 + 1.0 + 4.0)

    def test_mobility_average_tracks_speed(self):
        wp = waypoints()
        wp.targets[0] = ((1e6, 0.0), 3.0, 0.0)
        a = attrs(pos=(0.0, 0.0))
        for t in range(200):
            wp.step({0: a}, float(t), 1.0)
        assert a.mobility == pytest.approx(3.0, abs=1e-6)

    def test_paused_node_keeps_position(self):
        wp = waypoints()
        wp.targets[0] = ((10.0, 0.0), 2.0, 5.0)
        a = attrs(pos=(3.0, 4.0))
        a.velocity, a.mobility = (1.0, 1.0), 2.0
        wp.step({0: a}, 1.0, 1.0)
        assert a.position == (3.0, 4.0)
        assert a.velocity == (0.0, 0.0)
        # Paused, the average decays toward 0 by dt / window of itself.
        assert a.mobility == pytest.approx(1.8)
        assert wp.targets[0] == ((10.0, 0.0), 2.0, 5.0)

    def test_dead_node_neither_moves_nor_draws(self):
        wp = waypoints()
        dead = attrs(pos=(5.0, 5.0))
        dead.alive = False
        wp.step({2: attrs(), 0: dead, 1: attrs()}, 1.0, 1.0)
        assert dead.position == (5.0, 5.0)
        assert sorted(wp.targets) == [1, 2]
        # Nodes draw in id order: node 1's waypoint is the stream's first.
        rng = random.Random(3)
        assert wp.targets[1][0] == (rng.uniform(0.0, 100.0),
                                    rng.uniform(0.0, 60.0))

    def test_returned_bound_covers_every_move(self):
        # In exact rationals: each node's move is within what
        # NetworkState.moved allows of the tick's bound, 2**-50 of it plus
        # 2**-52 of the node's largest new coordinate.  The slowest steps
        # at the largest coordinates are below an ulp.
        rng = random.Random(11)
        for scale in (1.0, 1e3, 1e6, 1e8):
            wp = RandomWaypoint((scale, scale), 1e-9, 3.0, pause=0.5,
                                window=10.0, rng=random.Random(5))
            nodes = {n: attrs(pos=(rng.uniform(-scale, scale),
                                   rng.uniform(-scale, scale)))
                     for n in range(20)}
            for t in range(30):
                before = {n: a.position for n, a in nodes.items()}
                longest = wp.step(nodes, float(t), rng.choice((0.1, 1.0, 7.0)))
                stretched = Fraction(longest) * (1 + Fraction(2) ** -50)
                for n, a in nodes.items():
                    px, py = map(Fraction, before[n])
                    x, y = map(Fraction, a.position)
                    allowed = stretched + Fraction(2) ** -52 * max(abs(x),
                                                                   abs(y))
                    assert (x - px) ** 2 + (y - py) ** 2 <= allowed ** 2

    def test_waypoints_stay_inside_arena(self):
        wp = waypoints()
        a = attrs(pos=(50.0, 30.0))
        for t in range(500):
            wp.step({0: a}, float(t), 1.0)
            x, y = a.position
            assert 0.0 <= x <= 100.0 and 0.0 <= y <= 60.0


def two_node_config(**kw):
    return ScenarioConfig(
        seed=1, duration=10.0, arena=Arena(200, 200),
        placements=[Placement(id=0, position=(0.0, 0.0)),
                    Placement(id=1, position=(50.0, 0.0))],
        flows=[FlowConfig(src=0, dst=1, start=1.0, packets=3, interval=1.0)],
        **kw)


def relay_config(packets):
    """Source 0 and destination 3 reach each other through relay 1 or 2;
    flow 0 sends every 0.2 s from t = 0.5 s."""
    return ScenarioConfig(
        seed=1, duration=2.0, arena=Arena(300, 300),
        placements=[Placement(id=0, position=(0.0, 0.0)),
                    Placement(id=1, position=(60.0, 0.0)),
                    Placement(id=2, position=(60.0, 30.0)),
                    Placement(id=3, position=(120.0, 0.0))],
        flows=[FlowConfig(src=0, dst=3, start=0.5, packets=packets,
                          interval=0.2)])


class RelayProbe(Simulator):
    """Records the selected routes and each packet's first hop, and moves
    the first route's relay out of everyone's range once, at the first
    send after that route was selected: its cached route stays unexpired
    but goes stale."""

    def __init__(self, cfg):
        self.selected, self.sends = [], []
        super().__init__(cfg, trace=self.record)

    def record(self, rec, t=None):
        rec = as_record(rec, t)
        if rec["kind"] == "route_selected":
            self.selected.append(rec)

    def schedule(self, t, handler, payload=None):
        if handler == self._handle_packet_at and payload[3] == 0:
            self.sends.append(payload)
        super().schedule(t, handler, payload)

    def _handle_packet_send(self, payload):
        if len(self.selected) == 1:
            relay = self.selected[0]["path"][1]
            self.state.nodes[relay].position = (60.0, 280.0)
            self.state.touch()
        super()._handle_packet_send(payload)


class TestSimulator:
    def test_idle_network_runs_elections_only(self):
        cfg = ScenarioConfig(seed=2, duration=5.0, arena=Arena(300, 300),
                             groups=[NodeGroup(count=10)])
        sim = Simulator(cfg)
        summary = sim.run()
        assert summary["packets_sent"] == 0
        assert summary["packets_delivered"] == 0
        assert summary["elections"].get("0", 0) >= len(sim.clusters.levels[0])
        assert len(sim.clusters.levels[0]) >= 1

    def test_two_node_delay_hand_computed(self):
        summary = Simulator(two_node_config()).run()
        assert summary["packets_sent"] == 3
        assert summary["packets_delivered"] == 3
        # One hop: default level-0 link delay plus receiver processing.
        assert summary["mean_delay"] == pytest.approx(0.002 + 0.001, abs=1e-12)

    def test_packet_travels_on_rediscovered_route(self):
        """After the cached route goes stale, the next packet travels on the
        path and hop levels of the route discovery chose instead."""
        sim = RelayProbe(relay_config(packets=2))
        summary = sim.run()
        assert summary["packets_delivered"] == 2
        first, second = sim.selected
        assert first["path"] != second["path"]
        for (_, path, levels, _, _), route in zip(sim.sends, sim.selected,
                                                  strict=True):
            assert path == tuple(route["path"])
            assert levels == tuple(route["levels"])

    def test_stale_cached_route_does_not_shadow_a_newer_one(self):
        """A cached route with a missing link is skipped, not returned:
        after one rediscovery, later packets ride the newer cached route
        although the stale one has not expired."""
        sim = RelayProbe(relay_config(packets=6))
        summary = sim.run()
        assert summary["packets_delivered"] == 6
        assert [rec["path"] for rec in sim.selected] == [[0, 1, 3], [0, 2, 3]]
        assert summary["cache_hits"] == 4

    def test_conservation(self):
        summary = Simulator(two_node_config()).run()
        assert summary["packets_sent"] == (summary["packets_delivered"]
                                           + summary["packets_dropped"]
                                           + summary["packets_in_flight"])

    def test_energy_depletion_single_death(self):
        cfg = two_node_config(energy_costs=EnergyCosts(tx_packet=40.0))
        cfg.flows = [FlowConfig(src=0, dst=1, start=1.0, packets=5,
                                interval=1.0)]
        sim = Simulator(cfg)
        summary = sim.run()
        assert summary["deaths"] == 1
        assert not sim.state.nodes[0].alive
        assert all(n.energy >= 0.0 for n in sim.state.nodes.values())
        # Sender died mid-run, so later sends fail to find a route.
        assert summary["discovery_failures"] >= 1
        assert summary["packets_sent"] == (summary["packets_delivered"]
                                           + summary["packets_dropped"]
                                           + summary["packets_in_flight"])

    def test_destination_killed_on_receipt_is_not_delivered(self):
        # The receive debit of the one packet empties the destination.
        cfg = two_node_config(energy_costs=EnergyCosts(rx_packet=500.0))
        cfg.flows = [FlowConfig(src=0, dst=1, start=1.0)]
        records = []
        sim = Simulator(cfg, trace=record_sink(records))
        summary = sim.run()
        assert (summary["packets_sent"], summary["packets_delivered"],
                summary["packets_dropped"], summary["deaths"]) == (1, 0, 1, 1)
        assert not sim.state.nodes[1].alive
        [dropped] = [r for r in records if r["kind"] == "dropped"]
        assert dropped == {"kind": "dropped", "t": 1.003, "flow": 0, "at": 1}

    def test_packet_in_flight_at_duration_is_not_delivered(self):
        # Sent at the last instant: its one hop lands 3 ms after the end.
        cfg = two_node_config()
        cfg.flows = [FlowConfig(src=0, dst=1, start=cfg.duration)]
        records = []
        summary = Simulator(cfg, trace=record_sink(records)).run()
        assert (summary["packets_sent"], summary["packets_in_flight"],
                summary["packets_delivered"]) == (1, 1, 0)
        assert not [r for r in records if r["kind"] == "delivered"]

    def test_sends_past_duration_cost_nothing(self, tmp_path):
        # In a subprocess, so that a loop over all 10**12 packets of the
        # flow is stopped by the timeout instead of running for ever.
        path = tmp_path / "long.yaml"
        path.write_text(
            "duration: 5\n"
            "placements: [{id: 0, position: [0, 0]},"
            " {id: 1, position: [50, 0]}]\n"
            "flows: [{src: 0, dst: 1, start: 0, packets: 1000000000000}]\n",
            encoding="utf-8")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(engine.__file__).resolve().parents[1]))
        subprocess.run([sys.executable, "-m", "antmanet.cli", "run",
                        str(path), "--out", str(tmp_path)],
                       env=env, check=True, capture_output=True, timeout=60)
        summary = json.loads((tmp_path / "long.summary.json").read_text())
        assert summary["packets_sent"] == 6

    def test_debiting_a_dead_node_counts_no_second_death(self):
        # The source's first send kills it; debit it once more afterwards.
        sim = Simulator(two_node_config(
            energy_costs=EnergyCosts(tx_packet=500.0)))
        assert sim.run()["deaths"] == 1
        assert not sim.state.nodes[0].alive
        version = sim.state.version
        sim._apply_energy(0, 500.0)
        assert sim.stats["deaths"] == 1
        assert sim.state.version == version

    def _mobile_config(self, seed):
        return ScenarioConfig(
            seed=seed, duration=20.0, arena=Arena(250, 250),
            groups=[NodeGroup(count=12, max_level=1)],
            mobility=MobilityConfig(enabled=True, speed_min=1.0,
                                    speed_max=5.0, pause=1.0),
            flows=[FlowConfig(src=0, dst=11, start=2.0, packets=8,
                              interval=2.0)])

    def test_byte_identical_traces(self):
        def run_once():
            lines = []
            Simulator(self._mobile_config(9),
                      trace=TraceWriter(lines.append)).run()
            return "".join(lines)

        t1, t2 = run_once(), run_once()
        assert t1 == t2
        assert t1.count("\n") > 5

    def test_seed_changes_trace(self):
        def run_once(seed):
            lines = []
            Simulator(self._mobile_config(seed),
                      trace=TraceWriter(lines.append)).run()
            return "".join(lines)

        assert run_once(9) != run_once(10)

    def test_trace_records_are_json_lines(self):
        import json
        lines = []
        Simulator(two_node_config(), trace=TraceWriter(lines.append)).run()
        for line in lines:
            rec = json.loads(line)
            assert "kind" in rec
            assert line.endswith("\n")
            assert "\n" not in line[:-1]

    def test_integer_energy_traces_as_a_float(self):
        # The first route is selected at t = 0, before any beacon debits
        # energy; the later ones repeat its trace key.
        cfg = two_node_config()
        cfg.placements = [dataclasses.replace(p, energy=100)
                          for p in cfg.placements]
        cfg.flows = [FlowConfig(src=0, dst=1, start=0.0, packets=3,
                                interval=1.0)]
        lines = []
        Simulator(cfg, trace=TraceWriter(lines.append)).run()
        selected = [json.loads(line) for line in lines
                    if '"kind":"route_selected"' in line]
        assert [r["t"] for r in selected] == [0.0, 1.0, 2.0]
        for line in lines:
            if '"kind":"route_selected"' in line:
                assert '"energy":100.0,' in line


# Node 1 relays flow 0 and heads the cluster {0, 1, 2}.  Its energy lasts
# for two relayed packets: the second send is a cache hit, the third kills
# node 1 on receipt and is dropped, the two after it find no route, and the
# head's loss triggers a re-election at t = 4.  Flow 1's bandwidth floor
# rejects both its sends, and flow 2's destination is out of everyone's
# range.
PIN_SCENARIO = """
seed: 3
duration: 8
placements:
  - {id: 0, position: [0, 0]}
  - {id: 1, position: [80, 0], energy: 0.045}
  - {id: 2, position: [160, 0]}
  - {id: 3, position: [900, 900]}
energy_costs: {tx_packet: 0.01, rx_packet: 0.01}
flows:
  - {src: 0, dst: 2, start: 1, packets: 5, interval: 1}
  - {src: 0, dst: 1, start: 1.5, packets: 2,
     qos: {min_bandwidth: 1000000000000}}
  - {src: 2, dst: 3, start: 2.5}
"""

PIN_SUMMARY = {
    "packets_sent": 3, "packets_delivered": 2, "packets_dropped": 1,
    "packets_in_flight": 0, "mean_delay": 0.005999999999999561,
    "control_packets": 32, "elections": {"0": 4, "1": 0, "2": 0},
    "discovery_failures": 3, "admission_rejections": 2, "deaths": 1,
    "cache_hits": 2,
    "flows": [
        {"flow": 0, "src": 0, "dst": 2, "sent": 3, "delivered": 2,
         "dropped": 1, "rejected": 0, "failed": 2},
        {"flow": 1, "src": 0, "dst": 1, "sent": 0, "delivered": 0,
         "dropped": 0, "rejected": 2, "failed": 0},
        {"flow": 2, "src": 2, "dst": 3, "sent": 0, "delivered": 0,
         "dropped": 0, "rejected": 0, "failed": 1}],
}


class TestSummary:
    def _run(self):
        records = []
        sim = Simulator(parse_scenario(PIN_SCENARIO),
                        trace=record_sink(records))
        result = sim.run()
        return sim, result, records

    def test_every_counter_pinned(self):
        _, summary, records = self._run()
        assert summary == PIN_SUMMARY
        assert [r["t"] for r in records if r["kind"] == "election"
                and r["case"] != "initial"] == [4.0]

    def test_trace_record_is_the_returned_summary(self):
        _, summary, records = self._run()
        assert records[-1] == {"kind": "summary", "t": 8.0, **summary}

    def test_one_counter_store(self):
        sim, _, _ = self._run()
        assert sim.stats is sim.router.stats is sim.manager.stats


DIGEST = Path(__file__).resolve().parent / "data" / "digest"


def flood_layout():
    """A generated static 100-node layout at flood's density with a 40/40/20
    interface mix, every cost 0 and a 0.5 s cache, so each 1 packet/s flow
    rediscovers its route over an unchanging topology."""
    rng = random.Random("fixed-energy-flood")
    flows = []
    for _ in range(60):
        src, dst = rng.sample(range(100), 2)
        flows.append(FlowConfig(src=src, dst=dst,
                                start=round(rng.uniform(0.0, 2.0), 3),
                                packets=8, interval=1.0))
    return ScenarioConfig(
        seed=7, duration=10.0, arena=Arena(850.0, 850.0),
        groups=[NodeGroup(count=40, max_level=0),
                NodeGroup(count=40, max_level=1),
                NodeGroup(count=20, max_level=2)],
        cache=CacheConfig(max_age=0.5), flows=flows)


class TestFixedEnergy:
    """With every energy cost 0 a run debits nothing, so its energy counter
    never moves: routing replays each flood's replies and each route's
    metrics from the memo.  These runs are static too, so their beacon
    cycles settle.  The result must be the reference run's, which
    re-derives everything on every discovery and runs every beacon cycle
    in full."""

    @pytest.mark.parametrize("cfg", [
        pytest.param(lambda: load_scenario(DIGEST / "static-cache.yaml"),
                     id="static-cache"),
        pytest.param(lambda: load_scenario(DIGEST / "link-override.yaml"),
                     id="link-override"),
        pytest.param(flood_layout, id="flood-layout")])
    def test_matches_the_reference_run(self, cfg, monkeypatch):
        # The fast run fails on any debit.
        beaconed = beacon_times(monkeypatch)
        _, summary, sim = assert_matches_references(cfg())
        assert sim.manager.energy_debit is None
        assert sim.state.energy_version == 0
        assert summary["packets_delivered"] > 0
        # The initial election leaves nothing to repair, so the first
        # cycle writes no record and settles the run: every later cycle
        # beacons no level and re-stamps no membership.
        interval = sim.config.beacon.interval
        assert beaconed == [interval]
        assert set(sim.clusters.last_heard.values()) == {interval}

    @pytest.mark.parametrize(
        "field", [f.name for f in dataclasses.fields(EnergyCosts)])
    def test_one_nonzero_cost_debits(self, field):
        cfg = two_node_config(energy_costs=EnergyCosts(**{field: 1e-6}))
        sim = Simulator(cfg)
        sim.run()
        assert sim.state.energy_version > 0
        start = NodeAttributes.energy
        assert min(a.energy for a in sim.state.nodes.values()) < start


class TestFrozenRun:
    """Only a run in which nothing moves between beacon cycles skips
    them: a beacon that costs energy moves the energy counter in every
    cycle, and mobility moves the topology between cycles, so such runs
    beacon in every cycle.  A static run without costs settles at its
    first cycle."""

    @pytest.mark.parametrize("cfg", [
        pytest.param(lambda: two_node_config(
            energy_costs=EnergyCosts(beacon=1e-6)), id="static-beacon-cost"),
        pytest.param(lambda: two_node_config(
            mobility=MobilityConfig(enabled=True, speed_min=0.1,
                                    speed_max=0.2)), id="mobile-zero-cost")])
    def test_never_settles(self, cfg, monkeypatch):
        beaconed = beacon_times(monkeypatch)
        sim = Simulator(cfg())
        summary = sim.run()
        assert beaconed == [float(t) for t in range(1, 11)]
        assert set(sim.clusters.last_heard.values()) == {10.0}
        # Each of the 10 cycles beacons head and member.
        assert sim.stats["beacon_packets"] == 20
        assert summary["packets_delivered"] == 3

    def test_settled_cycles_count_their_beacons(self, monkeypatch):
        beaconed = beacon_times(monkeypatch)
        sim = Simulator(two_node_config())
        sim.run()
        assert beaconed == [1.0]
        assert sim.stats["beacon_packets"] == 20
        # The settled cycles re-stamp nothing.
        assert set(sim.clusters.last_heard.values()) == {1.0}


def tie_config():
    """Flows 0 and 1 send four packets each, every 0.5 s from t = 1, the
    instant of the first beacon, evaporation and mobility tick; the ticks
    at t = 2 and 3 land on sends and deliveries too.  Each packet's one
    hop takes 0.25 s on the link plus 0.25 s at the receiver, so it lands
    exactly on its flow's next send.  The nodes move, so a send's route
    records the expiry of the positions the instant's mobility tick
    left."""
    return ScenarioConfig(
        seed=4, duration=3.0, arena=Arena(200, 200),
        placements=[Placement(id=0, position=(0.0, 0.0), node_delay=0.25),
                    Placement(id=1, position=(50.0, 0.0), node_delay=0.25)],
        links=[LinkOverride(a=0, b=1, level=0, delay=0.25)],
        mobility=MobilityConfig(enabled=True, speed_min=0.1, speed_max=0.2,
                                pause=0.5),
        flows=[FlowConfig(src=0, dst=1, start=1.0, packets=4, interval=0.5),
               FlowConfig(src=1, dst=0, start=1.0, packets=4, interval=0.5)])


class QueueProbe(Simulator):
    """Checks after every push that the queue holds at most one event per
    stream (beacon, evaporation, mobility and each flow) and one hop per
    packet in flight."""

    def _check(self):
        in_flight = sum(f["sent"] - f["delivered"] - f["dropped"]
                        for f in self._flow_stats)
        assert len(self._queue) <= 3 + len(self.config.flows) + in_flight

    def schedule(self, t, handler, payload=None):
        super().schedule(t, handler, payload)
        self._check()

    def _queue_next(self, stream, t, handler, payload):
        super()._queue_next(stream, t, handler, payload)
        self._check()


class TestEventQueue:
    def test_ties_run_in_the_eager_queue_order(self):
        # Streams before runtime events, and streams in order: at each
        # instant both sends select their routes before either packet is
        # delivered, and from t = 2 they see the tick's new positions.
        trace, summary, _ = assert_matches_references(tie_config())
        records = [json.loads(line) for line in trace.splitlines()]
        at = [(r["kind"], r.get("src", r.get("flow")))
              for r in records if r.get("t") == 1.5]
        assert at == [("route_selected", 0), ("route_selected", 1),
                      ("delivered", 0), ("delivered", 1)]
        lets = [r["let"] for r in records if r["kind"] == "route_selected"]
        assert lets[0] == lets[2] != lets[4] == lets[6]
        assert summary["packets_sent"] == summary["packets_delivered"] == 8

    @pytest.mark.parametrize("cfg", [tie_config, flood_layout],
                             ids=["ties", "flood-layout"])
    def test_one_event_per_stream_and_packet_in_flight(self, cfg):
        sim = QueueProbe(cfg())
        summary = sim.run()
        assert summary["packets_sent"] > 0

    def test_a_second_run_raises_before_any_record(self):
        root = Path(__file__).resolve().parents[1]
        records = []
        sim = Simulator(load_scenario(root / "scenarios" / "reference.yaml"),
                        trace=record_sink(records))
        summary = sim.run()
        before = list(records)
        with pytest.raises(RuntimeError,
                           match=r"^Simulator\.run called twice: "):
            sim.run()
        assert records == before
        assert sim.summary() == summary


def dumps(record):
    """The canonical encoding spelled out with json.dumps."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


class TestFormatRecord:
    @pytest.mark.parametrize("record", [
        {"kind": "deliver", "t": 1.5, "node": 3, "path": [0, 2, 3]},
        {"z": {"b": [1, {"y": None, "x": True}], "a": False}, "a": [[], {}]},
        {"inf": math.inf, "ninf": -math.inf, "nan": math.nan,
         "floats": [0.1 + 0.2, -0.0, 1e300, 5e-324]},
        {"name": "n\u0153ud \u00e9t\u00e9", "ant": "\U0001f41c",
         "ctl": "a\tb\n\"c\"\\"},
        {"elections": {2: 1, 10: 3}, "big": 2 ** 70, "tuple": (1, 2)},
        "a bare string",
        [1, "two", None],
    ], ids=["flat", "nested", "non-finite", "non-ascii", "int-keys",
            "string", "list"])
    def test_matches_json_dumps(self, record):
        assert format_record(record) == dumps(record)

    @pytest.mark.parametrize("record", [
        {"x": object()}, {"k": {1, 2}}, {(1, 2): "tuple key"}])
    def test_unencodable_raises_like_json_dumps(self, record):
        with pytest.raises(TypeError):
            dumps(record)
        with pytest.raises(TypeError):
            format_record(record)

    def test_circular_record_raises(self):
        record = {"a": []}
        record["a"].append(record)
        with pytest.raises(ValueError):
            format_record(record)
        record["a"].pop()
        assert format_record(record) == dumps(record)

    def test_encodes_again_after_a_failure(self):
        """A failed encode leaves nothing behind: the same containers,
        mended in place, encode as json.dumps does."""
        record = {"a": {"b": object()}}
        with pytest.raises(TypeError):
            format_record(record)
        record["a"]["b"] = 1
        assert format_record(record) == dumps(record)

    def test_reference_trace_matches_json_dumps(self):
        root = Path(__file__).resolve().parents[1]
        records = []
        Simulator(load_scenario(root / "scenarios" / "reference.yaml"),
                  trace=record_sink(records)).run()
        pairs = [(format_record(r), dumps(r)) for r in records]
        golden = (root / "tests" / "data" / "reference.trace").read_text(
            encoding="utf-8").splitlines()
        assert len(pairs) == len(golden)
        for ours, reference in pairs:
            assert ours == reference
