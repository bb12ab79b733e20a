"""Unit tests for the kernel layer (:mod:`repro.cascade.kernels`).

The numpy diffusion kernel's semantics on gadget graphs where the exact
activation/claim probabilities are known, error parity with the python
reference walks, the snapshot sweeps checked against
:meth:`DiGraph.reachable_from`, and the absence of any kernel switch.
Statistical equivalence of the numpy kernel and the reference walks lives
in ``tests/test_kernel_equivalence.py``.
"""

import dataclasses

import numpy as np
import pytest

from repro.cascade.competitive import ClaimRule, CompetitiveDiffusion
from repro.cascade.ic import IndependentCascade
from repro.cascade.kernels import (
    _simulate_cascade_python,
    _simulate_threshold_python,
    absorb_reachable,
    claim_group,
    count_new_reachable,
    reachable_mask,
    reachable_mask_batch,
    simulate_cascade,
    simulate_threshold,
)
from repro.cascade.lt import LinearThreshold
from repro.cascade.snapshots import SnapshotOracle, sample_snapshots
from repro.errors import CascadeError, GraphError
from repro.experiments.config import ExperimentConfig
from repro.graphs.digraph import DiGraph
from repro.utils.bitset import num_words, unpack_bits
from repro.utils.rng import as_rng


class TestNoKernelKnob:
    """Each layer has one implementation; nothing selects another."""

    def test_engine_rejects_kernel_argument(self, karate):
        with pytest.raises(TypeError, match="kernel"):
            CompetitiveDiffusion(karate, IndependentCascade(0.1), kernel="python")

    def test_repro_kernel_env_is_ignored(self, karate, monkeypatch):
        engine = CompetitiveDiffusion(karate, IndependentCascade(0.2))
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        unset = engine.run([[0, 1], [33, 32]], rng=42)
        monkeypatch.setenv("REPRO_KERNEL", "python")
        pinned = engine.run([[0, 1], [33, 32]], rng=42)
        np.testing.assert_array_equal(unset.owner, pinned.owner)
        np.testing.assert_array_equal(unset.activation_round, pinned.activation_round)

    def test_experiment_config_has_no_kernel_field(self):
        names = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert "kernel" not in names


class TestClaimGroup:
    def test_proportional_degenerate_weight_is_deterministic(self, rng):
        weights = np.array([0.0, 5.0, 0.0])
        for _ in range(20):
            assert claim_group(weights, ClaimRule.PROPORTIONAL, rng) == 1

    def test_winner_take_all_unique_max(self, rng):
        weights = np.array([1.0, 3.0, 2.0])
        for _ in range(20):
            assert claim_group(weights, ClaimRule.WINNER_TAKE_ALL, rng) == 1

    def test_winner_take_all_tie_stays_inside_tied_set(self):
        rng = as_rng(31)
        weights = np.array([2.0, 1.0, 2.0])
        picks = {claim_group(weights, ClaimRule.WINNER_TAKE_ALL, rng) for _ in range(200)}
        assert picks == {0, 2}


class TestEdgeIds:
    def test_aligned_with_out_indices(self, karate):
        for u in range(karate.num_nodes):
            lo, hi = karate.out_indptr[u], karate.out_indptr[u + 1]
            np.testing.assert_array_equal(
                karate.edge_ids[lo:hi], karate.out_edge_ids(u)
            )

    def test_read_only(self, karate):
        with pytest.raises(ValueError):
            karate.edge_ids[0] = 99


class TestNumpyCompetitiveCascade:
    def test_p_zero_only_initiators_active(self, karate):
        engine = CompetitiveDiffusion(karate, IndependentCascade(0.0))
        outcome = engine.run([[0, 1], [2, 3]], rng=7)
        assert outcome.total_activated == 4
        assert outcome.rounds == 1  # one empty attempt round, then quiescence

    def test_p_one_claims_every_node(self, karate):
        engine = CompetitiveDiffusion(karate, IndependentCascade(1.0))
        outcome = engine.run([[0], [33]], rng=8)
        assert outcome.total_activated == karate.num_nodes

    def test_ownership_partitions_active_nodes(self, karate):
        engine = CompetitiveDiffusion(karate, IndependentCascade(0.3))
        for seed in range(10):
            outcome = engine.run([[0, 1], [33, 32]], rng=seed)
            assert outcome.spreads().sum() == outcome.total_activated

    def test_activation_probability_matches_formula(self):
        # Node 2 has two attacking in-edges: P(activation) = 1 - (1-p)^2.
        graph = DiGraph(3, [(0, 2), (1, 2)])
        p = 0.4
        engine = CompetitiveDiffusion(graph, IndependentCascade(p))
        rng = as_rng(32)
        n = 4000
        activations = sum(
            engine.run([[0], [1]], rng).owner[2] >= 0 for _ in range(n)
        )
        assert activations / n == pytest.approx(1 - (1 - p) ** 2, rel=0.07)

    def test_claim_proportional_to_attacker_count(self):
        # Two attackers for group 0, one for group 1: claims split 2/3 vs 1/3.
        graph = DiGraph(4, [(0, 3), (1, 3), (2, 3)])
        engine = CompetitiveDiffusion(graph, IndependentCascade(0.9))
        rng = as_rng(33)
        claims = np.zeros(2)
        for _ in range(3000):
            outcome = engine.run([[0, 1], [2]], rng)
            if outcome.owner[3] >= 0:
                claims[outcome.owner[3]] += 1
        assert claims[0] / claims.sum() == pytest.approx(2 / 3, abs=0.04)

    def test_winner_take_all_majority_and_tie(self):
        graph = DiGraph(4, [(0, 3), (1, 3), (2, 3)])
        engine = CompetitiveDiffusion(
            graph,
            IndependentCascade(1.0),
            claim_rule=ClaimRule.WINNER_TAKE_ALL,
        )
        rng = as_rng(34)
        for _ in range(100):
            assert engine.run([[0, 1], [2]], rng).owner[3] == 0
        claims = np.zeros(3)
        for _ in range(3000):
            claims[engine.run([[0], [1], [2]], rng).owner[3]] += 1
        for share in claims / claims.sum():
            assert share == pytest.approx(1 / 3, abs=0.04)

    def test_activation_rounds_recorded(self, path_graph):
        engine = CompetitiveDiffusion(path_graph, IndependentCascade(1.0))
        outcome = engine.run([[0]], rng=9)
        assert outcome.activation_round.tolist() == [0, 1, 2, 3, 4]
        assert outcome.rounds == 5  # 4 claiming rounds + 1 empty final round

    def test_lt_gadget_splits_fairly(self):
        graph = DiGraph(3, [(0, 2), (1, 2)])
        engine = CompetitiveDiffusion(graph, LinearThreshold())
        rng = as_rng(35)
        claims = np.zeros(2)
        for _ in range(2000):
            outcome = engine.run([[0], [1]], rng)
            if outcome.owner[2] >= 0:
                claims[outcome.owner[2]] += 1
        assert claims.sum() == 2000  # threshold <= 1 always crossed
        assert claims[0] / claims.sum() == pytest.approx(0.5, abs=0.05)

    def test_deterministic_for_fixed_seed(self, karate):
        engine = CompetitiveDiffusion(karate, IndependentCascade(0.2))
        a = engine.run([[0, 1], [33, 32]], rng=42)
        b = engine.run([[0, 1], [33, 32]], rng=42)
        np.testing.assert_array_equal(a.owner, b.owner)
        assert a.rounds == b.rounds


class TestNumpySingleGroup:
    def test_seed_out_of_range_matches_python_error(self, karate, rng):
        probs = np.full(karate.num_edges, 0.1)
        for simulate in (simulate_cascade, _simulate_cascade_python):
            with pytest.raises(CascadeError, match=r"seed 99 out of range"):
                simulate(karate, probs, [0, 99], rng)
        for simulate in (simulate_threshold, _simulate_threshold_python):
            with pytest.raises(CascadeError, match=r"seed -1 out of range"):
                simulate(karate, [-1], rng)

    def test_p_zero_only_seeds(self, karate, rng):
        probs = np.zeros(karate.num_edges)
        active = simulate_cascade(karate, probs, [0, 5], rng)
        assert sorted(np.flatnonzero(active)) == [0, 5]

    def test_p_one_reaches_everything_reachable(self, path_graph, rng):
        probs = np.ones(path_graph.num_edges)
        active = simulate_cascade(path_graph, probs, [1], rng)
        assert sorted(np.flatnonzero(active)) == [1, 2, 3, 4]

    def test_duplicate_seeds_collapse(self, karate, rng):
        probs = np.zeros(karate.num_edges)
        active = simulate_cascade(karate, probs, [3, 3, 3], rng)
        assert active.sum() == 1

    def test_lt_path_wave_is_deterministic(self, path_graph, rng):
        # Every path node has a single in-neighbour of weight 1, so the wave
        # from node 0 claims everything regardless of thresholds.
        active = simulate_threshold(path_graph, [0], rng)
        assert active.all()

    def test_model_simulate_runs_numpy_kernel(self, karate):
        model = IndependentCascade(0.15)
        active = model.simulate(karate, [0, 33], rng=11)
        assert active[0] and active[33]
        probs = model.edge_probabilities(karate)
        expected = simulate_cascade(karate, probs, [0, 33], as_rng(11))
        np.testing.assert_array_equal(active, expected)


def _masks(graph, count, packed):
    masks = sample_snapshots(graph, IndependentCascade(0.3), count, seed=3)
    return masks if packed else [unpack_bits(m, graph.num_edges) for m in masks]


class TestSnapshotSweeps:
    """The four sweeps against :meth:`DiGraph.reachable_from`."""

    def test_bad_source_raises_graph_error(self, karate):
        with pytest.raises(GraphError, match="out of range"):
            reachable_mask(karate, [999])
        for count in (0, 2):
            matrix = np.zeros((count, karate.num_edges), dtype=bool)
            with pytest.raises(GraphError, match="out of range"):
                reachable_mask_batch(karate, [0, 999], matrix)

    def test_batch_of_zero_snapshots(self, random_graph):
        for matrix in (
            np.zeros((0, random_graph.num_edges), dtype=bool),
            np.zeros((0, num_words(random_graph.num_edges)), dtype=np.uint64),
        ):
            batch = reachable_mask_batch(random_graph, [0, 4], matrix)
            assert batch.shape == (0, random_graph.num_nodes)
            assert batch.dtype == bool

    @pytest.mark.parametrize("packed", [False, True], ids=["bool", "packed"])
    def test_reachable_mask_and_batch(self, random_graph, packed):
        masks = _masks(random_graph, 6, packed)
        for sources in ([0], [3, 3, 17], [5, 40, 59], []):
            batch = reachable_mask_batch(random_graph, sources, np.stack(masks))
            assert batch.shape == (len(masks), random_graph.num_nodes)
            for row, mask in zip(batch, masks):
                expected = random_graph.reachable_from(sources, mask)
                np.testing.assert_array_equal(
                    reachable_mask(random_graph, sources, mask), expected
                )
                np.testing.assert_array_equal(row, expected)

    @pytest.mark.parametrize("packed", [False, True], ids=["bool", "packed"])
    def test_count_new_and_absorb(self, random_graph, packed):
        for mask in _masks(random_graph, 4, packed):
            for seeds, candidate in (([0], 9), ([2, 30], 2), ([], 11), ([7], 44)):
                reached = random_graph.reachable_from(seeds, mask)
                before = reached.copy()
                union = random_graph.reachable_from([*seeds, candidate], mask)
                gain = count_new_reachable(random_graph, mask, candidate, reached)
                np.testing.assert_array_equal(reached, before)  # no mutation
                assert gain == int(union.sum() - before.sum())
                absorb_reachable(random_graph, mask, candidate, reached)
                np.testing.assert_array_equal(reached, union)

    @pytest.mark.parametrize("packed", [False, True], ids=["bool", "packed"])
    def test_oracle_matches_reachable_from(self, random_graph, packed):
        masks = _masks(random_graph, 8, packed)
        oracle = SnapshotOracle(random_graph, masks)
        seeds = [0, 9, 17]
        expected = [random_graph.reachable_from(seeds, m) for m in masks]
        assert oracle.spread(seeds) == sum(int(e.sum()) for e in expected) / len(masks)
        reached = oracle.reach(seeds)
        for row, exp in zip(reached, expected):
            np.testing.assert_array_equal(row, exp)
        grown = [random_graph.reachable_from([*seeds, 25], m) for m in masks]
        gain = sum(int(g.sum() - e.sum()) for g, e in zip(grown, expected))
        assert oracle.marginal_gain(25, reached) == gain / len(masks)
        oracle.extend_reach(reached, 25)
        for row, exp in zip(reached, grown):
            np.testing.assert_array_equal(row, exp)
