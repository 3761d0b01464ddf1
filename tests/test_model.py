import math
import random

import pytest

from antmanet.errors import ConfigError, UnknownNodeError
from antmanet.model import (DEFAULT_LINK_BANDWIDTH, DEFAULT_LINK_DELAY,
                            DEFAULT_TX_RANGE, LEVELS, NodeAttributes,
                            link_expiration_time)

from helpers import add_node, make_state
from reference import BruteForceState


class TestLevels:
    def test_defaults_cover_each_level(self):
        # The per-level defaults have one entry per level, in LEVELS order,
        # and a node of max_level L has one default range per level <= L.
        assert tuple(DEFAULT_LINK_DELAY) == LEVELS
        assert tuple(DEFAULT_LINK_BANDWIDTH) == LEVELS
        assert tuple(DEFAULT_TX_RANGE) == LEVELS
        for max_level, ranges in DEFAULT_TX_RANGE.items():
            assert len(ranges) == LEVELS.index(max_level) + 1


class TestNodeAttributes:
    @pytest.mark.parametrize("energy", [100, 100.0, -0.0, 0])
    def test_energy_is_a_float_and_never_negative_zero(self, energy):
        stored = NodeAttributes(position=(0, 0), energy=energy).energy
        assert type(stored) is float
        assert stored == energy
        assert math.copysign(1.0, stored) == 1.0


class TestAddNode:
    def test_id_converted_before_the_duplicate_check(self):
        s = make_state()
        add_node(s, 3, (0, 0))
        first = s.node(3)
        with pytest.raises(ConfigError, match="^duplicate node id 3$"):
            add_node(s, "3", (10, 0))
        assert list(s.nodes) == [3]
        assert s.node(3) is first


class TestNeighbors:
    def test_within_range_symmetric(self):
        s = make_state()
        add_node(s, 1, (0, 0), tx_range=(50.0,))
        add_node(s, 2, (10, 0), tx_range=(50.0,))
        assert s.neighbors(1, 0) == {2}
        assert s.neighbors(2, 0) == {1}

    def test_out_of_range(self):
        s = make_state()
        add_node(s, 1, (0, 0), tx_range=(50.0,))
        add_node(s, 2, (60, 0), tx_range=(50.0,))
        assert s.neighbors(1, 0) == frozenset()
        assert s.neighbors(2, 0) == frozenset()

    def test_unknown_node(self):
        s = make_state()
        with pytest.raises(UnknownNodeError):
            s.neighbors(42, 0)

    def test_unsupported_level_empty(self):
        s = make_state()
        add_node(s, 1, (0, 0), level=0)
        add_node(s, 2, (1, 0), level=2)
        assert s.neighbors(1, 1) == frozenset()

    def test_matches_brute_force(self):
        rng = random.Random(7)
        s = make_state()
        for i in range(20):
            add_node(s, i, (rng.uniform(0, 300), rng.uniform(0, 300)),
                     level=rng.choice([0, 1, 2]))
        brute = BruteForceState()
        brute.nodes = s.nodes
        for level in (0, 1, 2):
            for i in s.nodes:
                assert s.neighbors(i, level) == brute.neighbors(i, level)

    def test_symmetry_and_level_monotonicity(self):
        rng = random.Random(11)
        s = make_state()
        for i in range(25):
            add_node(s, i, (rng.uniform(0, 400), rng.uniform(0, 400)),
                     level=rng.choice([0, 0, 1, 2]))
        l0_only = {i for i, a in s.nodes.items() if a.max_level == 0}
        for level in (0, 1, 2):
            for i in s.nodes:
                for j in s.neighbors(i, level):
                    assert i in s.neighbors(j, level)
                    if level > 0:
                        assert j not in l0_only
        # A level-2 link implies level-0/1 links whenever ranges permit.
        for i in s.nodes:
            for j in s.neighbors(i, 2):
                d = math.dist(s.nodes[i].position, s.nodes[j].position)
                for lvl in (0, 1):
                    r = min(s.nodes[i].range_at(lvl), s.nodes[j].range_at(lvl))
                    assert (j in s.neighbors(i, lvl)) == (d <= r)


class TestLink:
    def test_zero_jitter_draws_nothing(self, monkeypatch):
        """At link_jitter 0 every link keeps the level's default delay and
        bandwidth exactly, and no generator is seeded to find that out."""
        def no_draws(*args):
            raise AssertionError("random.Random seeded at zero jitter")

        monkeypatch.setattr("antmanet.model.random.Random", no_draws)
        s = make_state(link_jitter=0.0, seed=5)
        add_node(s, 1, (0, 0), level=2)
        add_node(s, 2, (10, 0), level=2)
        for level in (0, 1, 2):
            link = s.link(1, 2, level)
            assert link.delay == DEFAULT_LINK_DELAY[level]
            assert link.bandwidth == DEFAULT_LINK_BANDWIDTH[level]


def _bisect_let(a, b, range_m, hi=1e7):
    """Independent oracle: bisection on the future-distance function."""
    def dist_at(t):
        pa = (a.position[0] + t * a.velocity[0], a.position[1] + t * a.velocity[1])
        pb = (b.position[0] + t * b.velocity[0], b.position[1] + t * b.velocity[1])
        return math.hypot(pa[0] - pb[0], pa[1] - pb[1])

    if dist_at(hi) <= range_m:
        return math.inf
    lo = 0.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if dist_at(mid) <= range_m:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


class TestLinkExpirationTime:
    def test_zero_relative_motion(self):
        a = NodeAttributes(position=(0, 0), velocity=(3, 4))
        b = NodeAttributes(position=(5, 5), velocity=(3, 4))
        assert link_expiration_time(a, b, 10.0) == math.inf

    def test_linear_closure(self):
        a = NodeAttributes(position=(0, 0), velocity=(0, 0))
        b = NodeAttributes(position=(0, 0), velocity=(1, 0))
        assert link_expiration_time(a, b, 10.0) == pytest.approx(10.0)

    def test_out_of_range_rejected(self):
        a = NodeAttributes(position=(0, 0))
        b = NodeAttributes(position=(100, 0))
        with pytest.raises(ValueError):
            link_expiration_time(a, b, 10.0)

    @pytest.mark.parametrize("moving, let", [(False, math.inf), (True, 0.0)],
                             ids=["at_rest", "moving_tangentially"])
    def test_linked_pair_at_a_large_range(self, moving, let):
        """`hypot` puts this pair within 20 km, but its squared distance
        lies an ulp of r**2 beyond, far more than 1e-9 m**2.  Moving at
        right angles to their offset, the pair's discriminant is that ulp
        below 0."""
        x, y = 17531.363696268392, -9625.553851553826
        s = make_state()
        add_node(s, 0, (0.0, 0.0), tx_range=(20000.0,))
        add_node(s, 1, (x, y), tx_range=(20000.0,),
                 vel=(-y, x) if moving else (0.0, 0.0))
        assert s.linked(0, 1, 0)
        assert s.link(0, 1, 0).let == let

    def test_random_kinematics_match_bisection(self):
        rng = random.Random(3)
        for _ in range(50):
            a = NodeAttributes(position=(rng.uniform(-5, 5), rng.uniform(-5, 5)),
                               velocity=(rng.uniform(-2, 2), rng.uniform(-2, 2)))
            b = NodeAttributes(position=(rng.uniform(-5, 5), rng.uniform(-5, 5)),
                               velocity=(rng.uniform(-2, 2), rng.uniform(-2, 2)))
            r = 20.0
            t = link_expiration_time(a, b, r)
            ref = _bisect_let(a, b, r)
            if math.isinf(ref):
                assert math.isinf(t)
            else:
                assert t == pytest.approx(ref, abs=1e-5)

    def test_forward_simulation_lands_on_boundary(self):
        rng = random.Random(9)
        for _ in range(50):
            a = NodeAttributes(position=(0, 0),
                               velocity=(rng.uniform(-3, 3), rng.uniform(-3, 3)))
            b = NodeAttributes(position=(rng.uniform(-8, 8), rng.uniform(-8, 8)),
                               velocity=(rng.uniform(-3, 3), rng.uniform(-3, 3)))
            r = 15.0
            t = link_expiration_time(a, b, r)
            if math.isinf(t):
                continue
            pa = (a.position[0] + t * a.velocity[0],
                  a.position[1] + t * a.velocity[1])
            pb = (b.position[0] + t * b.velocity[0],
                  b.position[1] + t * b.velocity[1])
            assert math.dist(pa, pb) == pytest.approx(r, abs=1e-6)
