"""Every fast path against every reference, on generated scenarios.

``reference.assert_matches_references`` runs each drawn scenario with the
fast paths and under ``reference.use_references``.  The fixed scenarios
that the comparison also runs are parameters of their own tests:
``test_route_memo.py`` (the golden and digest scenarios),
``test_cycle_equivalence.py`` (``reference.MOBILE``),
``test_topology_snapshot.py`` and ``test_engine.py`` (every cost 0).
``DRAINED_HEADS``, a drawn scenario's pitfall made fixed, and
``QUIET_MOBILE`` have their own tests here, since a generated draw is not
stable across changes to the strategy.  CI runs this file under several
hash seeds."""

import dataclasses
import json
import math

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from antmanet.clustering import WeightParams
from antmanet.config import (Arena, CacheConfig, EnergyCosts, FlowConfig,
                             LinkConfig, LinkOverride, MobilityConfig,
                             NodeGroup, ScenarioConfig)
from antmanet.errors import ElectionError
from antmanet.routing import QosRequirement

from digests import run
from helpers import beacon_times
from reference import KILLING, MOBILE, assert_matches_references

# No level-0 node clears this threshold: the initial election fails.
UNELECTABLE = dataclasses.replace(MOBILE, weights=WeightParams(theta_w=0.9))

# A finite threshold among moving nodes: late in some repair rounds the
# upward ripple and the re-elections rewrite or dissolve clusters, and a
# quiescence test that misses such a change ends the cycle a round early.
RIPPLE = ScenarioConfig(
    seed=30, duration=15.0, arena=Arena(300, 300),
    groups=[NodeGroup(count=20, max_level=0, energy=1.0),
            NodeGroup(count=6, max_level=1, energy=1.0),
            NodeGroup(count=5, max_level=2, energy=5.0)],
    weights=WeightParams(theta_w=0.1),
    mobility=MobilityConfig(enabled=True, speed_min=1.0, speed_max=3.0,
                            pause=1.0))

# Five level-0 nodes, all in one another's range, with energy for two
# beacon packets each and no flows: from t = 3 on, each cycle's head dies
# of its own beacon debit, before its members are heard, and the others
# elect the next head.  A beacon round that looked the heads' neighbors
# up before the head's debit would have the dead head reach its members.
DRAINED_HEADS = ScenarioConfig(
    seed=3, duration=12.0, arena=Arena(60, 60),
    groups=[NodeGroup(count=5, max_level=0, energy=0.001)],
    energy_costs=EnergyCosts(beacon=0.0004))

# MOBILE without energy costs, its nodes moving every 4 s: after a quiet
# cycle, the beacon cycles before the next move find nothing changed and
# are skipped, and the first cycle after it must re-stamp every membership
# as those cycles would have, or a member missed later goes stale early.
QUIET_MOBILE = dataclasses.replace(
    MOBILE, energy_costs=EnergyCosts(),
    mobility=dataclasses.replace(MOBILE.mobility, update_interval=4.0))


QOS = [QosRequirement(), QosRequirement(min_bandwidth=1e6),
       QosRequirement(max_delay=0.01), QosRequirement(min_let=5.0),
       QosRequirement(min_energy=1.0)]

MOBILITY = [MobilityConfig(),
            MobilityConfig(enabled=True, speed_min=1.0, speed_max=3.0,
                           pause=1.0),
            MobilityConfig(enabled=True, speed_min=1.0, speed_max=8.0,
                           pause=1.0, update_interval=2.0)]


@st.composite
def scenarios(draw):
    n = draw(st.integers(5, 40))
    top = draw(st.integers(1, max(1, n // 4)))
    middle = draw(st.integers(1, (n - top) // 2))
    killing = draw(st.booleans())
    energies = [0.01, 0.05, 2.0] if killing else [100.0]
    groups = [NodeGroup(count=count, max_level=level,
                        energy=draw(st.sampled_from(energies)))
              for level, count in enumerate((n - middle - top, middle, top))]
    side = math.sqrt(n) * draw(st.sampled_from([55.0, 75.0, 110.0]))
    pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    links = {}
    for _ in range(draw(st.integers(0, 4))):
        a, b = draw(pair)
        level = draw(st.integers(0, 2))
        delay, bandwidth = draw(st.sampled_from(
            [(0.02, None), (None, 2e5), (0.0005, 2e7)]))
        links[min(a, b), max(a, b), level] = LinkOverride(
            a=a, b=b, level=level, delay=delay, bandwidth=bandwidth)
    flows = []
    for _ in range(draw(st.integers(1, 6))):
        src, dst = draw(pair)
        flows.append(FlowConfig(
            src=src, dst=dst, start=draw(st.integers(0, 30)) / 10,
            packets=draw(st.integers(1, 15)),
            interval=draw(st.sampled_from([0.5, 1.0, 3.0])),
            qos=draw(st.sampled_from(QOS))))
    return ScenarioConfig(
        seed=draw(st.integers(0, 2**16)), duration=30.0,
        arena=Arena(side, side), groups=groups, links=list(links.values()),
        link=LinkConfig(jitter=draw(st.sampled_from([0.0, 0.3]))),
        weights=WeightParams(theta_w=draw(st.sampled_from(
            [-math.inf, -0.2, 0.0, 0.1, 0.3]))),
        mobility=draw(st.sampled_from(MOBILITY)),
        cache=CacheConfig(max_age=draw(st.sampled_from([0.5, 2.0, 30.0]))),
        energy_costs=(dataclasses.replace(KILLING, beacon=draw(
            st.sampled_from([0.0002, 0.002]))) if killing else EnergyCosts()),
        flows=flows)


@settings(max_examples=25, deadline=None, derandomize=True, database=None,
          phases=[p for p in Phase if p is not Phase.shrink])
@given(scenario=scenarios())
@example(scenario=UNELECTABLE)
@example(scenario=RIPPLE)
def test_fast_paths_change_no_trace_byte(scenario):
    assert_matches_references(scenario)


def test_head_killed_by_its_own_beacon_debit():
    text, summary, _ = assert_matches_references(DRAINED_HEADS)
    records = [json.loads(line) for line in text.splitlines()]
    deaths = {(r["t"], r["node"]) for r in records
              if r["kind"] == "node_death"}
    lost = {(r["t"], r["head"]) for r in records
            if r["kind"] == "maintenance" and r["case"] == "1.2"}
    # Beacons are the only cost and every node is level-0 only, so a node
    # that dies heading a cluster died of its own debit: here every one.
    assert deaths == lost
    assert summary["deaths"] == 5


def test_skipped_cycles_of_a_mobile_run(monkeypatch):
    beaconed = beacon_times(monkeypatch)
    _, summary, sim = assert_matches_references(QUIET_MOBILE)
    cycles = int(QUIET_MOBILE.duration / QUIET_MOBILE.beacon.interval)
    assert 0 < len(beaconed) < cycles
    assert summary["packets_delivered"] > 0


def test_unelectable_example_fails_its_initial_election():
    with pytest.raises(ElectionError):
        run(UNELECTABLE)
