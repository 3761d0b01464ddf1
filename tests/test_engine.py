import json
import math
import random
from pathlib import Path

import pytest

from antmanet.config import (Arena, EnergyCosts, FlowConfig, MobilityConfig,
                             NodeGroup, Placement, ScenarioConfig,
                             load_scenario, parse_scenario)
from antmanet.engine import (RandomWaypoint, Simulator, energy_debit,
                             format_record, mobility_update, run_scenario)
from antmanet.model import NodeAttributes

from helpers import DEFAULTS


def attrs(pos=(0.0, 0.0), energy=100.0):
    return NodeAttributes(position=pos, energy=energy)


class TestEnergyDebit:
    def test_tx_cost(self):
        c = EnergyCosts(tx_packet=1.0, tx_bit=0.001)
        assert energy_debit(attrs(energy=10.0), "tx", 1000, c) == \
            pytest.approx(8.0)

    def test_rx_cost(self):
        c = EnergyCosts(rx_packet=0.5, rx_bit=0.0005)
        assert energy_debit(attrs(energy=10.0), "rx", 1000, c) == \
            pytest.approx(9.0)

    def test_beacon_cost(self):
        c = EnergyCosts(beacon=0.25)
        assert energy_debit(attrs(energy=1.0), "beacon", 0, c) == 0.75

    def test_clamped_at_zero(self):
        c = EnergyCosts(tx_packet=50.0)
        assert energy_debit(attrs(energy=10.0), "tx", 0, c) == 0.0

    def test_unknown_action(self):
        with pytest.raises(ValueError):
            energy_debit(attrs(), "sleep", 0, EnergyCosts())


class TestMobilityUpdate:
    def test_partial_step_toward_waypoint(self):
        a = attrs(pos=(0.0, 0.0))
        pos, arrived = mobility_update(a, (10.0, 0.0), speed=2.0, dt=1.0,
                                       window=DEFAULTS.mobility.window)
        assert pos == pytest.approx((2.0, 0.0))
        assert not arrived
        assert a.velocity == pytest.approx((2.0, 0.0))

    def test_arrival_snaps_to_waypoint(self):
        a = attrs(pos=(0.0, 0.0))
        pos, arrived = mobility_update(a, (1.0, 0.0), speed=2.0, dt=1.0,
                                       window=DEFAULTS.mobility.window)
        assert pos == (1.0, 0.0)
        assert arrived

    def test_mobility_average_tracks_speed(self):
        a = attrs(pos=(0.0, 0.0))
        for _ in range(200):
            mobility_update(a, (1e6, 0.0), speed=3.0, dt=1.0,
                            window=DEFAULTS.mobility.window)
        assert a.mobility == pytest.approx(3.0, abs=1e-6)

    def test_waypoints_stay_inside_arena(self):
        wp = RandomWaypoint((100.0, 60.0), 0.5, 2.0, pause=0.0, window=10.0,
                            rng=random.Random(3))
        a = attrs(pos=(50.0, 30.0))
        for t in range(500):
            wp.step(0, a, float(t), 1.0)
            x, y = a.position
            assert 0.0 <= x <= 100.0 and 0.0 <= y <= 60.0


def two_node_config(**kw):
    return ScenarioConfig(
        seed=1, duration=10.0, arena=Arena(200, 200),
        placements=[Placement(id=0, position=(0.0, 0.0)),
                    Placement(id=1, position=(50.0, 0.0))],
        flows=[FlowConfig(src=0, dst=1, start=1.0, packets=3, interval=1.0)],
        **kw)


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
        summary = run_scenario(two_node_config())
        assert summary["packets_sent"] == 3
        assert summary["packets_delivered"] == 3
        # One hop: default level-0 link delay plus receiver processing.
        assert summary["mean_delay"] == pytest.approx(0.002 + 0.001, abs=1e-12)

    def test_conservation(self):
        summary = run_scenario(two_node_config())
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
            run_scenario(self._mobile_config(9),
                         trace=lambda r: lines.append(format_record(r)))
            return "\n".join(lines)

        t1, t2 = run_once(), run_once()
        assert t1 == t2
        assert t1.count("\n") > 5

    def test_seed_changes_trace(self):
        def run_once(seed):
            lines = []
            run_scenario(self._mobile_config(seed),
                         trace=lambda r: lines.append(format_record(r)))
            return "\n".join(lines)

        assert run_once(9) != run_once(10)

    def test_trace_records_are_json_lines(self):
        import json
        lines = []
        run_scenario(two_node_config(),
                     trace=lambda r: lines.append(format_record(r)))
        for line in lines:
            rec = json.loads(line)
            assert "kind" in rec
            assert "\n" not in line


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
    "control_packets": 34, "elections": {"0": 4, "1": 0, "2": 0},
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
        sim = Simulator(parse_scenario(PIN_SCENARIO), trace=records.append)
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

    def test_reference_trace_matches_json_dumps(self):
        root = Path(__file__).resolve().parents[1]
        pairs = []
        Simulator(load_scenario(root / "scenarios" / "reference.yaml"),
                  trace=lambda r: pairs.append((format_record(r), dumps(r)))).run()
        golden = (root / "tests" / "data" / "reference.trace").read_text(
            encoding="utf-8").splitlines()
        assert len(pairs) == len(golden)
        for ours, reference in pairs:
            assert ours == reference
