"""Unit tests for the diffusion-kernel layer (:mod:`repro.cascade.kernels`).

Selection semantics (argument > ``REPRO_KERNEL`` > ``python`` default), the
numpy kernel's diffusion semantics on gadget graphs where the exact
activation/claim probabilities are known, error parity with the python
reference, and the kernel metrics/journal plumbing.  Cross-kernel
statistical equivalence lives in ``tests/test_kernel_equivalence.py``.
"""

import numpy as np
import pytest

from repro.cascade import KERNEL_ENV_VAR, KERNELS, resolve_kernel
from repro.cascade.competitive import ClaimRule, CompetitiveDiffusion
from repro.cascade.ic import IndependentCascade
from repro.cascade.kernels import (
    claim_group,
    reachable_mask,
    simulate_cascade,
    simulate_threshold,
)
from repro.cascade.lt import LinearThreshold
from repro.cascade.simulate import estimate_spread
from repro.cascade.snapshots import SnapshotOracle, sample_snapshots
from repro.errors import CascadeError, GraphError
from repro.exec.executor import Executor
from repro.experiments.config import ExperimentConfig
from repro.graphs.digraph import DiGraph
from repro.obs.metrics import counter
from repro.utils.rng import as_rng


class TestResolveKernel:
    def test_default_is_python(self, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)
        assert resolve_kernel() == "python"
        assert resolve_kernel(None) == "python"

    def test_explicit_argument(self):
        assert resolve_kernel("numpy") == "numpy"
        assert resolve_kernel("python") == "python"

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "numpy")
        assert resolve_kernel() == "numpy"

    def test_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "numpy")
        assert resolve_kernel("python") == "python"

    def test_blank_env_ignored(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "  ")
        assert resolve_kernel() == "python"

    def test_unknown_kernel_rejected(self):
        with pytest.raises(CascadeError, match="unknown cascade kernel"):
            resolve_kernel("fortran")

    def test_unknown_env_kernel_rejected(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "cython")
        with pytest.raises(CascadeError, match="unknown cascade kernel"):
            resolve_kernel()

    def test_known_kernels(self):
        assert KERNELS == ("python", "numpy")

    def test_engine_resolves_env_default(self, karate, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "numpy")
        engine = CompetitiveDiffusion(karate, IndependentCascade(0.1))
        assert engine.kernel == "numpy"

    def test_engine_rejects_unknown_kernel(self, karate):
        with pytest.raises(CascadeError, match="unknown cascade kernel"):
            CompetitiveDiffusion(karate, IndependentCascade(0.1), kernel="gpu")

    def test_experiment_config_reads_env(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "numpy")
        assert ExperimentConfig().kernel == "numpy"
        monkeypatch.delenv(KERNEL_ENV_VAR)
        assert ExperimentConfig().kernel == "python"


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
        engine = CompetitiveDiffusion(
            karate, IndependentCascade(0.0), kernel="numpy"
        )
        outcome = engine.run([[0, 1], [2, 3]], rng=7)
        assert outcome.total_activated == 4
        assert outcome.rounds == 1  # one empty attempt round, then quiescence

    def test_p_one_claims_every_node(self, karate):
        engine = CompetitiveDiffusion(
            karate, IndependentCascade(1.0), kernel="numpy"
        )
        outcome = engine.run([[0], [33]], rng=8)
        assert outcome.total_activated == karate.num_nodes

    def test_ownership_partitions_active_nodes(self, karate):
        engine = CompetitiveDiffusion(
            karate, IndependentCascade(0.3), kernel="numpy"
        )
        for seed in range(10):
            outcome = engine.run([[0, 1], [33, 32]], rng=seed)
            assert outcome.spreads().sum() == outcome.total_activated

    def test_activation_probability_matches_formula(self):
        # Node 2 has two attacking in-edges: P(activation) = 1 - (1-p)^2.
        graph = DiGraph(3, [(0, 2), (1, 2)])
        p = 0.4
        engine = CompetitiveDiffusion(graph, IndependentCascade(p), kernel="numpy")
        rng = as_rng(32)
        n = 4000
        activations = sum(
            engine.run([[0], [1]], rng).owner[2] >= 0 for _ in range(n)
        )
        assert activations / n == pytest.approx(1 - (1 - p) ** 2, rel=0.07)

    def test_claim_proportional_to_attacker_count(self):
        # Two attackers for group 0, one for group 1: claims split 2/3 vs 1/3.
        graph = DiGraph(4, [(0, 3), (1, 3), (2, 3)])
        engine = CompetitiveDiffusion(
            graph, IndependentCascade(0.9), kernel="numpy"
        )
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
            kernel="numpy",
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
        engine = CompetitiveDiffusion(
            path_graph, IndependentCascade(1.0), kernel="numpy"
        )
        outcome = engine.run([[0]], rng=9)
        assert outcome.activation_round.tolist() == [0, 1, 2, 3, 4]
        assert outcome.rounds == 5  # 4 claiming rounds + 1 empty final round

    def test_lt_gadget_splits_fairly(self):
        graph = DiGraph(3, [(0, 2), (1, 2)])
        engine = CompetitiveDiffusion(graph, LinearThreshold(), kernel="numpy")
        rng = as_rng(35)
        claims = np.zeros(2)
        for _ in range(2000):
            outcome = engine.run([[0], [1]], rng)
            if outcome.owner[2] >= 0:
                claims[outcome.owner[2]] += 1
        assert claims.sum() == 2000  # threshold <= 1 always crossed
        assert claims[0] / claims.sum() == pytest.approx(0.5, abs=0.05)

    def test_deterministic_for_fixed_seed(self, karate):
        engine = CompetitiveDiffusion(
            karate, IndependentCascade(0.2), kernel="numpy"
        )
        a = engine.run([[0, 1], [33, 32]], rng=42)
        b = engine.run([[0, 1], [33, 32]], rng=42)
        np.testing.assert_array_equal(a.owner, b.owner)
        assert a.rounds == b.rounds


class TestNumpySingleGroup:
    def test_seed_out_of_range_matches_python_error(self, karate, rng):
        probs = np.full(karate.num_edges, 0.1)
        with pytest.raises(CascadeError, match=r"seed 99 out of range"):
            simulate_cascade(karate, probs, [0, 99], rng, kernel="numpy")
        with pytest.raises(CascadeError, match=r"seed -1 out of range"):
            simulate_threshold(karate, [-1], rng, kernel="numpy")

    def test_p_zero_only_seeds(self, karate, rng):
        probs = np.zeros(karate.num_edges)
        active = simulate_cascade(karate, probs, [0, 5], rng, kernel="numpy")
        assert sorted(np.flatnonzero(active)) == [0, 5]

    def test_p_one_reaches_everything_reachable(self, path_graph, rng):
        probs = np.ones(path_graph.num_edges)
        active = simulate_cascade(path_graph, probs, [1], rng, kernel="numpy")
        assert sorted(np.flatnonzero(active)) == [1, 2, 3, 4]

    def test_duplicate_seeds_collapse(self, karate, rng):
        probs = np.zeros(karate.num_edges)
        active = simulate_cascade(karate, probs, [3, 3, 3], rng, kernel="numpy")
        assert active.sum() == 1

    def test_lt_path_wave_is_deterministic(self, path_graph, rng):
        # Every path node has a single in-neighbour of weight 1, so the wave
        # from node 0 claims everything regardless of thresholds.
        active = simulate_threshold(path_graph, [0], rng, kernel="numpy")
        assert active.all()

    def test_model_simulate_accepts_kernel(self, karate):
        model = IndependentCascade(0.15)
        active = model.simulate(karate, [0, 33], rng=11, kernel="numpy")
        assert active[0] and active[33]


class TestNumpyReachability:
    def test_bad_source_raises_graph_error(self, karate):
        with pytest.raises(GraphError, match="out of range"):
            reachable_mask(karate, [999], kernel="numpy")

    def test_matches_python_sweep(self, random_graph, rng):
        mask = rng.random(random_graph.num_edges) < 0.5
        for source in range(0, random_graph.num_nodes, 7):
            np.testing.assert_array_equal(
                reachable_mask(random_graph, [source], mask, kernel="python"),
                reachable_mask(random_graph, [source], mask, kernel="numpy"),
            )

    def test_oracle_results_are_kernel_independent(self, random_graph):
        # The sweeps draw no randomness, so oracle numbers must be *exactly*
        # equal across kernels, not merely statistically close.
        masks = sample_snapshots(random_graph, IndependentCascade(0.2), 8, seed=3)
        py = SnapshotOracle(random_graph, masks, kernel="python")
        np_ = SnapshotOracle(random_graph, masks, kernel="numpy")
        seeds = [0, 9, 17]
        assert py.spread(seeds) == np_.spread(seeds)
        reached_py, reached_np = py.reach(seeds), np_.reach(seeds)
        for a, b in zip(reached_py, reached_np):
            np.testing.assert_array_equal(a, b)
        for candidate in (3, 25, 40):
            assert py.marginal_gain(candidate, reached_py) == np_.marginal_gain(
                candidate, reached_np
            )
        py.extend_reach(reached_py, 25)
        np_.extend_reach(reached_np, 25)
        for a, b in zip(reached_py, reached_np):
            np.testing.assert_array_equal(a, b)


class TestKernelInstrumentation:
    def test_simulation_counter_records_kernel(self, karate):
        handle = counter("kernel.numpy.simulations")
        before = handle.value
        engine = CompetitiveDiffusion(
            karate, IndependentCascade(0.1), kernel="numpy"
        )
        engine.run([[0], [33]], rng=1)
        assert handle.value == before + 1

    def test_executor_counts_jobs_by_kernel(self, karate):
        handle = counter("exec.jobs_kernel_numpy")
        before = handle.value
        with Executor("serial") as ex:
            estimate_spread(
                karate,
                IndependentCascade(0.1),
                [0],
                rounds=3,
                rng=2,
                executor=ex,
                kernel="numpy",
            )
        assert handle.value == before + 1
