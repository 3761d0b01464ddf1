import math
import random

import pytest

from antmanet.errors import BrokenPathError, DegenerateRouteError
from antmanet.qos import (DepositParams, PathMetrics, path_metrics,
                          pheromone_deposit)

from helpers import add_node, line_state, make_state


def pinned_line(delays, bandwidths, node_delay=1.0, energies=None):
    """Line topology with explicit per-link delay/bandwidth."""
    n = len(delays) + 1
    s = line_state(n, node_delay=node_delay)
    if energies:
        for i, e in enumerate(energies):
            s.nodes[i].energy = e
    for i, (d, b) in enumerate(zip(delays, bandwidths)):
        s.set_link_params(i, i + 1, 0, delay=d, bandwidth=b)
    return s


def level0(route, state):
    """path_metrics of `route` with every hop at level 0."""
    return path_metrics(route, state, levels=(0,) * (len(route) - 1))


class TestPathDelay:
    def test_single_node(self):
        s = make_state()
        add_node(s, 0, (0, 0), node_delay=0.5)
        assert level0([0], s).delay == 0.5

    def test_three_node_sum(self):
        s = pinned_line([2.0, 3.0], [1e6, 1e6], node_delay=1.0)
        assert level0([0, 1, 2], s).delay == pytest.approx(8.0)

    def test_random_path_matches_fold(self):
        rng = random.Random(5)
        delays = [rng.uniform(0.1, 2.0) for _ in range(6)]
        s = pinned_line(delays, [1e6] * 6, node_delay=0.25)
        route = list(range(7))
        expected = sum(delays) + 0.25 * 7
        assert level0(route, s).delay == pytest.approx(expected, abs=1e-12)

    def test_delay_sums_left_to_right(self):
        """Ten 0.1 s links sum to the left-to-right float total on every
        interpreter; CPython 3.12's compensated sum() would give 1.0."""
        s = pinned_line([0.1] * 10, [1e6] * 10, node_delay=0.0)
        expected = 0.0
        for _ in range(10):
            expected += 0.1
        assert expected != 1.0
        assert level0(list(range(11)), s).delay == expected

    def test_broken_path_names_link(self):
        s = line_state(4)
        with pytest.raises(BrokenPathError, match="0 and 2"):
            level0([0, 2, 3], s)


class TestBottleneckMetrics:
    def test_bandwidth_constant_min(self):
        s = pinned_line([1, 1, 1], [5e6, 5e6, 5e6])
        assert level0([0, 1, 2, 3], s).bandwidth == 5e6

    def test_bandwidth_min_fold(self):
        s = pinned_line([1, 1, 1], [10e6, 2e6, 7e6])
        assert level0([0, 1, 2, 3], s).bandwidth == 2e6

    def test_bandwidth_random_matches_enumeration(self):
        rng = random.Random(8)
        bws = [rng.uniform(1e5, 1e7) for _ in range(5)]
        s = pinned_line([1] * 5, bws)
        assert level0(list(range(6)), s).bandwidth == min(bws)

    def test_bandwidth_zero_hop_unbounded(self):
        # A single-node route has no link to bound bandwidth or LET.
        m = level0([0], line_state(2))
        assert m.bandwidth == math.inf and m.let == math.inf

    def test_energy_constant_min(self):
        s = pinned_line([1, 1], [1e6, 1e6], energies=[3.0, 3.0, 3.0])
        assert level0([0, 1, 2], s).energy == 3.0

    def test_energy_min_fold(self):
        s = pinned_line([1, 1], [1e6, 1e6], energies=[5.0, 2.0, 9.0])
        assert level0([0, 1, 2], s).energy == 2.0

    def test_let_min_fold(self):
        s = make_state()
        # Node 1 drifts away from 0 slowly and from 2 faster.
        add_node(s, 0, (0, 0), tx_range=(10.0,))
        add_node(s, 1, (0, 0), vel=(1.0, 0.0), tx_range=(10.0,))
        add_node(s, 2, (0, 0), vel=(3.5, 0.0), tx_range=(10.0,))
        lets = [s.link(0, 1, 0).let, s.link(1, 2, 0).let]
        assert level0([0, 1, 2], s).let == min(lets)

    def test_hop_count_is_node_count(self):
        s = line_state(10, spacing=10.0)
        assert level0([4, 5, 6, 7], s).hop_count == 4
        with pytest.raises(BrokenPathError):
            level0([], s)


class TestPathMetrics:
    def test_broken_path_raises(self):
        s = line_state(4)
        with pytest.raises(BrokenPathError, match="0 and 2"):
            level0([0, 2, 3], s)

    def test_hop_runs_on_its_level(self):
        # Two level-1 heads 200 m apart: linked at level 1 only.
        s = make_state()
        add_node(s, 0, (0, 0), level=1)
        add_node(s, 1, (200, 0), level=1)
        m = path_metrics([0, 1], s, levels=(1,))
        assert m.delay == s.link(0, 1, 1).delay + 2 * 0.001
        with pytest.raises(BrokenPathError, match="0 and 1"):
            path_metrics([0, 1], s, levels=(0,))


class TestPheromoneDeposit:
    def test_direct_substitution(self):
        m = PathMetrics(delay=4, bandwidth=2, energy=3, let=5, hop_count=1)
        assert pheromone_deposit(m, DepositParams()) == pytest.approx(2.0)

    def test_zero_numerator(self):
        m = PathMetrics(delay=1, bandwidth=0, energy=0, let=0, hop_count=2)
        assert pheromone_deposit(m, DepositParams()) == 0.0

    def test_zero_denominator_rejected(self):
        m = PathMetrics(delay=0, bandwidth=1, energy=1, let=1, hop_count=0)
        with pytest.raises(DegenerateRouteError):
            pheromone_deposit(m, DepositParams())

    def test_random_matches_arithmetic_oracle(self):
        rng = random.Random(13)
        for _ in range(100):
            m = PathMetrics(delay=rng.uniform(0.1, 10),
                            bandwidth=rng.uniform(0.1, 10),
                            energy=rng.uniform(0.1, 10),
                            let=rng.uniform(0.1, 10),
                            hop_count=rng.randint(1, 9))
            p = DepositParams(lambda_b=rng.uniform(0.5, 2),
                              lambda_e=rng.uniform(0.5, 2),
                              lambda_t=rng.uniform(0.5, 2),
                              lambda_d=rng.uniform(0.5, 2),
                              lambda_hc=rng.uniform(0.5, 2))
            expected = ((m.bandwidth ** p.lambda_b + m.energy ** p.lambda_e
                         + m.let ** p.lambda_t)
                        / (m.delay ** p.lambda_d + m.hop_count ** p.lambda_hc))
            assert pheromone_deposit(m, p) == pytest.approx(expected, abs=1e-9)

    def test_monotonicity(self):
        rng = random.Random(17)
        base = PathMetrics(delay=2.0, bandwidth=3.0, energy=4.0, let=5.0,
                           hop_count=3)
        p = DepositParams()
        d0 = pheromone_deposit(base, p)
        for attr, better in (("bandwidth", 4.0), ("energy", 5.0), ("let", 6.0)):
            m = PathMetrics(**{**base.__dict__, attr: better})
            assert pheromone_deposit(m, p) >= d0
        worse_delay = PathMetrics(**{**base.__dict__, "delay": 3.0})
        assert pheromone_deposit(worse_delay, p) <= d0
        worse_hops = PathMetrics(**{**base.__dict__, "hop_count": 4})
        assert pheromone_deposit(worse_hops, p) <= d0

    def test_infinite_let_capped(self):
        m = PathMetrics(delay=1, bandwidth=1, energy=1, let=math.inf,
                        hop_count=2)
        assert math.isfinite(pheromone_deposit(m, DepositParams()))


class TestConcatenation:
    def test_subpath_bounds_full_path(self):
        s = pinned_line([0.5, 0.7, 0.9], [3e6, 1e6, 2e6],
                        energies=[9, 4, 7, 6])
        full = level0([0, 1, 2, 3], s)
        sub = level0([1, 2], s)
        assert full.bandwidth <= sub.bandwidth
        assert full.energy <= sub.energy
        assert full.let <= sub.let
        assert full.delay >= sub.delay
