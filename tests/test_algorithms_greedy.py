"""Tests for MixGreedy and CELFGreedy."""

import numpy as np
import pytest

from repro.algorithms.greedy import CELFGreedy, MixGreedy
from repro.cascade.ic import IndependentCascade
from repro.cascade.simulate import estimate_spread
from repro.cascade.wc import WeightedCascade
from repro.graphs.digraph import DiGraph
from repro.graphs.generators import erdos_renyi
from repro.utils.rng import as_rng


class TestNaming:
    def test_mixgreedy_names_follow_model(self):
        assert MixGreedy(IndependentCascade(0.01)).name == "mgic"
        assert MixGreedy(WeightedCascade()).name == "mgwc"

    def test_celf_names(self):
        assert CELFGreedy(IndependentCascade(0.01)).name == "celfic"
        assert CELFGreedy(WeightedCascade()).name == "celfwc"

    def test_snapshot_count_validated(self):
        with pytest.raises(ValueError):
            MixGreedy(IndependentCascade(0.01), num_snapshots=0)


class TestSelection:
    def test_valid_output(self, karate):
        seeds = MixGreedy(IndependentCascade(0.1), 20).select(karate, 5, rng=0)
        assert len(seeds) == 5
        assert len(set(seeds)) == 5

    def test_first_seed_is_hub_on_star(self, star_graph):
        seeds = MixGreedy(IndependentCascade(0.5), 30).select(star_graph, 1, rng=0)
        assert seeds == [0]

    def test_deterministic_structure_p_one(self, diamond_graph):
        # With p=1 spreads are deterministic: node 0 reaches all 4.
        seeds = MixGreedy(IndependentCascade(1.0), 3).select(diamond_graph, 1, rng=0)
        assert seeds == [0]

    def test_two_components_takes_one_seed_each(self):
        # Two disjoint stars: greedy must not waste both seeds on one.
        edges = [(0, i) for i in range(1, 6)] + [(6, i) for i in range(7, 12)]
        g = DiGraph(12, edges)
        seeds = MixGreedy(IndependentCascade(1.0), 3).select(g, 2, rng=0)
        assert sorted(seeds) == [0, 6]

    def test_celf_agrees_with_mixgreedy_on_deterministic_graph(self):
        edges = [(0, i) for i in range(1, 6)] + [(6, i) for i in range(7, 10)]
        g = DiGraph(10, edges)
        mg = MixGreedy(IndependentCascade(1.0), 2).select(g, 2, rng=1)
        celf = CELFGreedy(IndependentCascade(1.0), 2).select(g, 2, rng=1)
        assert sorted(mg) == sorted(celf) == [0, 6]

    def test_randomized_across_calls(self, karate):
        algo = MixGreedy(IndependentCascade(0.1), 10)
        rng = as_rng(5)
        picks = {tuple(algo.select(karate, 5, rng)) for _ in range(8)}
        assert len(picks) > 1  # fresh snapshots per call -> varying seeds

    def test_reproducible_for_seed(self, karate):
        algo = MixGreedy(IndependentCascade(0.1), 10)
        assert algo.select(karate, 5, rng=3) == algo.select(karate, 5, rng=3)


class TestQuality:
    def test_beats_random_seeds(self, karate):
        model = IndependentCascade(0.15)
        greedy_seeds = MixGreedy(model, 40).select(karate, 3, rng=0)
        rng = as_rng(1)
        greedy = estimate_spread(karate, model, greedy_seeds, 400, rng).mean
        random_spreads = []
        for s in range(5):
            from repro.algorithms.heuristics import RandomSeeds

            seeds = RandomSeeds().select(karate, 3, rng=s)
            random_spreads.append(
                estimate_spread(karate, model, seeds, 200, rng).mean
            )
        assert greedy > np.mean(random_spreads)

    def test_marginal_gains_nonincreasing(self, karate):
        """Submodularity: greedy's selected marginal gains never increase."""
        from repro.cascade.snapshots import SnapshotOracle, sample_snapshots

        model = IndependentCascade(0.2)
        masks = sample_snapshots(karate, model, 30, seed=2)
        oracle = SnapshotOracle(karate, masks)
        reached = oracle.reach([])
        gains = []
        seeds: list[int] = []
        for _ in range(5):
            best_gain, best_node = -1.0, -1
            for v in range(karate.num_nodes):
                if v in seeds:
                    continue
                gain = oracle.marginal_gain(v, reached)
                if gain > best_gain:
                    best_gain, best_node = gain, v
            gains.append(best_gain)
            seeds.append(best_node)
            oracle.extend_reach(reached, best_node)
        assert all(a >= b - 1e-9 for a, b in zip(gains, gains[1:]))

    def test_celf_matches_exhaustive_greedy(self):
        """CELF's lazy evaluation returns the same seeds as exhaustive greedy
        when both run against an identical snapshot set."""
        from repro.cascade.pools import SnapshotPool
        from repro.cascade.snapshots import SnapshotOracle

        graph = erdos_renyi(30, 90, rng=3)
        model = IndependentCascade(0.3)
        pool = SnapshotPool(graph, seed=4)
        masks = pool.masks(model, 20)

        # Exhaustive greedy on the fixed masks.
        oracle = SnapshotOracle(graph, masks)
        reached = oracle.reach([])
        exhaustive = []
        for _ in range(4):
            best_gain, best_node = -1.0, -1
            for v in range(graph.num_nodes):
                if v in exhaustive:
                    continue
                gain = oracle.marginal_gain(v, reached)
                if gain > best_gain:
                    best_gain, best_node = gain, v
            exhaustive.append(best_node)
            oracle.extend_reach(reached, best_node)

        # CELF on the same masks: select against the pool that holds them.
        lazy = CELFGreedy(model, num_snapshots=20).select(graph, 4, rng=0, pool=pool)

        # Spreads must match exactly (identical possible worlds); the seed
        # identities may differ only on exact ties.
        assert oracle.spread(lazy) == pytest.approx(oracle.spread(exhaustive))
