"""Hierarchy invariants after every beacon cycle of generated mobile runs.

After each cycle, ``check_invariants`` must hold, except that a membership
may stay out of range for less than the beacon detection bound: that is
how long maintenance takes to notice it.  No cycle may stop at the round
cap.  ``check_invariants`` also checks that the last-heard stamps cover
exactly the current memberships.  Election thresholds stay at their defaults: a finite
``theta_w`` may leave nodes uncovered on purpose (``election-failed``).
"""

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from antmanet import clustering
from antmanet.config import (Arena, EnergyCosts, FlowConfig, MobilityConfig,
                             NodeGroup, ScenarioConfig)
from antmanet.engine import Simulator


class StrayTolerantState:
    """The network state, with each tolerated out-of-range membership
    counted as a link from its head."""

    def __init__(self, state, stray):
        self.state = state
        self.stray = stray

    def node(self, nid):
        return self.state.node(nid)

    def alive_ids(self):
        return self.state.alive_ids()

    def neighbors(self, nid, level):
        return self.state.neighbors(nid, level) | {
            m for lvl, head, m in self.stray if (lvl, head) == (level, nid)}


class CheckedSimulator(Simulator):
    """Checks the hierarchy after every beacon cycle."""

    def __init__(self, config):
        super().__init__(config)
        # (level, head, member) -> the first cycle that found it out of range
        self.stray_since = {}

    def _handle_beacon(self, payload):
        super()._handle_beacon(payload)
        mgr, state = self.manager, self.state
        memberships = {(level, head, m)
                       for level, table in self.clusters.levels.items()
                       for head, members in table.items() for m in members}
        stray = {(level, head, m) for level, head, m in memberships
                 if m not in state.neighbors(head, level)}
        self.stray_since = {k: self.stray_since.get(k, self.now)
                            for k in stray}
        for key, since in self.stray_since.items():
            assert self.now - since < mgr.beacon.detection_bound, (
                f"t={self.now}: membership {key} out of range since {since}")
        try:
            clustering.check_invariants(StrayTolerantState(state, stray),
                                        self.clusters)
        except AssertionError as exc:
            raise AssertionError(f"t={self.now}: {exc}") from None
        assert self.stats["round_cap_hits"] == 0, f"t={self.now}: round cap"


# No shrink phase: shrinking re-runs whole 120-s simulations, which turns a
# 6-s pass into minutes before a failure is reported.  The first falsifying
# example is still printed.
@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          phases=[p for p in Phase if p is not Phase.shrink])
@given(seed=st.integers(0, 2**16), nodes=st.integers(10, 80),
       mix=st.sampled_from([(0.7, 0.22), (0.4, 0.4), (0.2, 0.3), (0.9, 0.1)]),
       speed=st.sampled_from([1.0, 3.0, 8.0]),
       beacon_cost=st.sampled_from([0.0, 0.0002, 0.5, 1.5]),
       tx_cost=st.sampled_from([0.0, 0.002, 0.5]))
def test_invariants_hold_after_every_cycle(seed, nodes, mix, speed,
                                           beacon_cost, tx_cost):
    n0 = round(nodes * mix[0])
    n1 = round(nodes * mix[1])
    groups = [NodeGroup(count=count, max_level=level)
              for level, count in enumerate((n0, n1, nodes - n0 - n1))
              if count > 0]
    side = 600.0 * (nodes / 50) ** 0.5
    config = ScenarioConfig(
        seed=seed, duration=120.0, arena=Arena(side, side), groups=groups,
        mobility=MobilityConfig(enabled=True, speed_min=0.5,
                                speed_max=speed, pause=2.0),
        energy_costs=EnergyCosts(tx_packet=tx_cost, rx_packet=tx_cost / 2,
                                 beacon=beacon_cost),
        flows=[FlowConfig(src=i, dst=nodes - 1 - i, start=1.0 + i,
                          packets=20, interval=5.0)
               for i in range(min(6, nodes // 2))])
    CheckedSimulator(config).run()
