import math
import random

import pytest

from antmanet import clustering
from antmanet.clustering import (ClusterState, WeightParams,
                                 ch_pheromone_update,
                                 ch_selection_probability,
                                 check_reelection_triggers, form_hierarchy,
                                 node_weight, select_cluster_heads)
from antmanet.errors import ConfigError

from helpers import add_node, clique_state, make_state, manual_clusters


ENERGY_ONLY = WeightParams(w1=0.0, w2=1.0, w3=0.0, w4=0.0)


def elect_level0(s, p, rng):
    """A ClusterState holding one level-0 election's result."""
    cs = ClusterState()
    cs.install(0, select_cluster_heads(s, cs, 0, p, rng), 0.0)
    return cs


def random_geometric_state(rng, n, arena=300.0, mixed=True):
    s = make_state()
    for i in range(n):
        level = rng.choice([0, 0, 0, 1, 2]) if mixed else 0
        add_node(s, i, (rng.uniform(0, arena), rng.uniform(0, arena)),
                 level=level, energy=rng.uniform(10, 100))
    return s


class TestNodeWeight:
    def test_zero_inputs(self):
        assert node_weight(0, 0, 0, 0, WeightParams()) == 0.0

    def test_direct_substitution(self):
        p = WeightParams(w1=0.25, w2=0.25, w3=0.25, w4=0.25)
        assert node_weight(4, 2, 8, 2, p) == pytest.approx(0.0)

    def test_random_matches_recomputation(self):
        rng = random.Random(2)
        for _ in range(50):
            ws = [rng.random() for _ in range(4)]
            total = sum(ws)
            ws = [w / total for w in ws]
            p = WeightParams(*ws)
            c, e, m, d = (rng.uniform(0, 10) for _ in range(4))
            expected = ws[0] * c + ws[1] * e - ws[2] * m + ws[3] * d
            assert node_weight(c, e, m, d, p) == pytest.approx(expected,
                                                               abs=1e-9)

    def test_bad_weight_sum_rejected(self):
        with pytest.raises(ConfigError):
            node_weight(1, 1, 1, 1, WeightParams(w1=0.5, w2=0.5, w3=0.5,
                                                 w4=0.5))


class TestSelectionProbability:
    def test_singleton(self):
        assert ch_selection_probability([1.0]) == [1.0]

    def test_normalization(self):
        assert ch_selection_probability([2, 3, 5]) == pytest.approx(
            [0.2, 0.3, 0.5])

    def test_uniform_on_equal(self):
        p = ch_selection_probability([4.0] * 8)
        assert p == pytest.approx([1 / 8] * 8)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            ch_selection_probability([0.0, 0.0])

    def test_random_sums_to_one(self):
        rng = random.Random(4)
        for _ in range(50):
            tau = [rng.uniform(0, 5) for _ in range(rng.randint(1, 12))]
            if sum(tau) == 0:
                continue
            probs = ch_selection_probability(tau)
            assert sum(probs) == pytest.approx(1.0, abs=1e-9)
            assert all(0.0 <= x <= 1.0 for x in probs)

    def test_election_draw_follows_the_probabilities(self):
        # The election draws heads with _weighted_draw, not with
        # ch_selection_probability: a uniform value at the midpoint of
        # interval k of the cumulative probabilities must draw index k.
        class Fixed:
            def random(self):
                return self.u

        rng, stub = random.Random(11), Fixed()
        checked = 0
        for _ in range(1000):
            tau = [rng.uniform(0.01, 5) for _ in range(rng.randint(1, 16))]
            lo = 0.0
            for k, p in enumerate(ch_selection_probability(tau)):
                stub.u = lo + p / 2
                assert clustering._weighted_draw(stub, tau) == k
                lo += p
                checked += 1
        assert checked > 5000


class TestPheromoneUpdate:
    def test_fixed_point(self):
        assert ch_pheromone_update(3.7, 0.5, 3.7) == pytest.approx(3.7)

    def test_direct_substitution(self):
        assert ch_pheromone_update(1.0, 0.5, 3.0) == pytest.approx(2.0)

    def test_convergence_to_weight(self):
        tau, w = 10.0, 0.25
        for i in range(50):
            tau = ch_pheromone_update(tau, 0.5, w)
        assert abs(tau - w) < 1e-6

    def test_convexity(self):
        rng = random.Random(6)
        for _ in range(100):
            tau = rng.uniform(0, 10)
            w = rng.uniform(0, 10)
            rho = rng.uniform(0.01, 0.99)
            new = ch_pheromone_update(tau, rho, w)
            assert min(tau, w) - 1e-12 <= new <= max(tau, w) + 1e-12

    def test_rho_out_of_range(self):
        with pytest.raises(ConfigError):
            ch_pheromone_update(1.0, 1.5, 1.0)


class TestElection:
    def test_isolated_node_heads_itself(self):
        s = make_state()
        add_node(s, 5, (0, 0))
        cs = elect_level0(s, WeightParams(), random.Random(1))
        assert cs.levels[0] == {5: set()}
        assert 5 in cs.heads(0)

    def test_clique_elects_max_weight(self):
        wins = 0
        for seed in range(100):
            s = clique_state(3)
            s.nodes[0].energy = 1.0
            s.nodes[1].energy = 5.0
            s.nodes[2].energy = 2.0
            cs = elect_level0(s, ENERGY_ONLY, random.Random(seed))
            if set(cs.levels[0]) == {1}:
                wins += 1
        assert wins >= 95

    def test_random_graph_invariants(self):
        for seed in range(20):
            rng = random.Random(seed)
            s = random_geometric_state(rng, 30)
            cs = elect_level0(s, WeightParams(), random.Random(seed))
            clustering.check_invariants(s, cs)

    def test_determinism(self):
        rng1 = random.Random(99)
        rng2 = random.Random(99)
        s1 = random_geometric_state(random.Random(42), 25)
        s2 = random_geometric_state(random.Random(42), 25)
        cs1 = elect_level0(s1, WeightParams(), rng1)
        cs2 = elect_level0(s2, WeightParams(), rng2)
        assert cs1.levels == cs2.levels
        assert cs1.tau == cs2.tau

    def test_addressing(self):
        s = clique_state(3)
        s.nodes[2].energy = 500.0
        cs = elect_level0(s, ENERGY_ONLY, random.Random(0))
        assert cs.head_of(0, 0) == 2


class TestHierarchy:
    def test_all_l0_yields_empty_upper_levels(self):
        s = clique_state(6)
        cs = form_hierarchy(s, WeightParams(), random.Random(3))
        assert cs.levels[1] == {}
        assert cs.levels[2] == {}

    def test_structural_containment(self):
        for seed in range(10):
            rng = random.Random(seed)
            s = random_geometric_state(rng, 40)
            cs = form_hierarchy(s, WeightParams(), random.Random(seed))
            clustering.check_invariants(s, cs)
            for n in cs.participants(1):
                assert n in cs.heads(0)
                assert s.nodes[n].max_level >= 1
            for n in cs.participants(2):
                assert n in cs.heads(1)
                assert s.nodes[n].max_level >= 2


class TestReelectionTriggers:
    def _elected(self):
        s = clique_state(4)
        for i, e in enumerate([10.0, 40.0, 20.0, 30.0]):
            s.nodes[i].energy = e
        p = WeightParams(w1=0.0, w2=1.0, w3=0.0, w4=0.0, theta_w=0.5)
        cs = elect_level0(s, p, random.Random(5))
        assert set(cs.levels[0]) == {1}
        return s, cs, p

    def test_no_trigger_when_healthy(self):
        s, cs, p = self._elected()
        assert check_reelection_triggers(s, cs, p) == set()

    def test_drained_head_flagged(self):
        s, cs, p = self._elected()
        s.nodes[1].energy = 1.0  # normalized weight drops below theta_w
        s.touch()
        assert (0, 1) in check_reelection_triggers(s, cs, p)

    def test_stronger_newcomer_flagged(self):
        s, cs, p = self._elected()
        add_node(s, 9, (2.0, 0.0), energy=99.0)
        cs.join(0, 1, (9,), 0.0)
        flagged = check_reelection_triggers(s, cs, p, joins=[(0, 1, 9)])
        assert (0, 1) in flagged

    def test_generator_joins_reach_every_level(self):
        # Two level-0 clusters whose heads meet only on level 1; the level-1
        # newcomer 2 outweighs head 0 on energy.  A generator of joins must
        # still reach level 1 after level 0 has been checked.
        s = make_state()
        for nid, x, energy in ((0, 0.0, 10.0), (1, 10.0, 50.0),
                               (2, 200.0, 99.0), (3, 210.0, 50.0)):
            add_node(s, nid, (x, 0.0), level=1, energy=energy)
        cs = manual_clusters({0: {0: {1}, 2: {3}}, 1: {0: {2}}})
        joins = (j for j in [(1, 0, 2)])
        assert check_reelection_triggers(s, cs, ENERGY_ONLY, joins=joins) == {(1, 0)}


class TestClusterState:
    def test_writers_keep_the_head_index(self):
        s = clique_state(5)
        cs = manual_clusters({0: {0: {1, 2}}})
        cs.join(0, 3, (4,), 0.0)
        assert [cs.head_of(n, 0) for n in range(5)] == [0, 0, 0, 3, 3]
        cs.leave(0, 0, 2)
        assert cs.head_of(2, 0) is None
        assert cs.dissolve(0, 3) == {4}
        assert cs.participants(0) == {0, 1}
        assert cs.head_of(3, 0) is None and cs.head_of(4, 1) is None
        cs.join(0, 0, (2, 3, 4), 0.0)
        clustering.check_invariants(s, cs)

    def test_writers_keep_the_stamps(self):
        s = clique_state(5)
        cs = manual_clusters({0: {0: {1, 2}}})
        cs.join(0, 3, (4,), 2.0)
        assert cs.last_heard == {(0, 0, 1): 0.0, (0, 0, 2): 0.0,
                                 (0, 3, 4): 2.0}
        cs.refresh(0, 0, (2,), 3.0)
        cs.leave(0, 0, 1)
        cs.dissolve(0, 3)
        assert cs.last_heard == {(0, 0, 2): 3.0}
        cs.install(0, {1: {0, 2, 3, 4}}, 4.0)
        assert cs.last_heard == {(0, 1, m): 4.0 for m in (0, 2, 3, 4)}
        clustering.check_invariants(s, cs)

    def test_invariants_catch_an_edit_past_the_writers(self):
        s = clique_state(3)
        cs = manual_clusters({0: {0: {1, 2}}})
        clustering.check_invariants(s, cs)
        cs.levels[0][0].discard(2)
        cs.levels[0][2] = set()
        with pytest.raises(AssertionError, match="head index out of step"):
            clustering.check_invariants(s, cs)

    def test_invariants_catch_a_stray_or_missing_stamp(self):
        s = clique_state(3)
        cs = manual_clusters({0: {0: {1, 2}}})
        cs.refresh(0, 1, (2,), 1.0)  # node 1 heads no cluster
        with pytest.raises(AssertionError,
                           match=r"stray \[\(0, 1, 2\)\], missing \[\]$"):
            clustering.check_invariants(s, cs)
        cs = manual_clusters({0: {0: {1, 2}}})
        del cs.last_heard[(0, 0, 2)]
        with pytest.raises(AssertionError,
                           match=r"stray \[\], missing \[\(0, 0, 2\)\]$"):
            clustering.check_invariants(s, cs)
