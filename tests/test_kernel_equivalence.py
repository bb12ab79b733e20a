"""Kernel equivalence suite (the kernel determinism contract).

The numpy diffusion kernel and the private python reference walks of
:mod:`repro.cascade.kernels` consume randomness in different orders, so
they are **not** bit-identical to each other; the contract
(``docs/execution.md``) is:

* **statistical equivalence** — per-node activation and claim probabilities
  match exactly, so spread estimates from the kernel and the reference
  walk agree within sampling noise (asserted at 3 pooled standard errors
  on every tier-1 graph/model pairing, with fixed seeds so the check is
  deterministic);
* **within-kernel determinism** — for a fixed master seed the numpy kernel
  is bit-identical to itself across runs, backends, and worker counts
  (the SeedSequence discipline of :mod:`repro.exec`).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.algorithms import DegreeDiscount, RandomSeeds
from repro.cascade.base import CascadeModel
from repro.cascade.competitive import (
    ClaimRule,
    CompetitiveDiffusion,
    TieBreakRule,
    assign_initiators,
)
from repro.cascade.ic import IndependentCascade
from repro.cascade.kernels import (
    _competitive_cascade_python,
    _competitive_threshold_python,
    _simulate_cascade_python,
    _simulate_threshold_python,
)
from repro.cascade.lt import LinearThreshold
from repro.cascade.wc import WeightedCascade
from repro.core.payoff import estimate_payoff_table
from repro.core.strategy import StrategySpace
from repro.exec import Executor
from repro.graphs.digraph import DiGraph
from repro.graphs.generators import erdos_renyi, karate_like_fixture
from repro.utils.rng import as_rng

GRAPHS: dict[str, tuple[DiGraph, list[int]]] = {
    "karate": (karate_like_fixture(), [0, 33]),
    "random": (erdos_renyi(60, 240, rng=7), [0, 7]),
}

MODELS = {
    "ic": IndependentCascade(0.1),
    "wc": WeightedCascade(),
    "lt": LinearThreshold(),
}


def _reference_spread(
    graph: DiGraph, model: CascadeModel, seeds: list[int], rng: np.random.Generator
) -> int:
    """One single-group spread from the python reference walk."""
    if isinstance(model, LinearThreshold):
        return int(_simulate_threshold_python(graph, seeds, rng).sum())
    probs = model.edge_probabilities(graph)
    return int(_simulate_cascade_python(graph, probs, seeds, rng).sum())


def _reference_spreads(
    graph: DiGraph,
    model: CascadeModel,
    profile: list[list[int]],
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-group spreads of one competitive run of the python reference walk."""
    initiators = assign_initiators(graph.num_nodes, profile, TieBreakRule.UNIFORM, rng)
    if isinstance(model, LinearThreshold):
        owner, _, _ = _competitive_threshold_python(
            graph, initiators, ClaimRule.PROPORTIONAL, rng
        )
    else:
        owner, _, _ = _competitive_cascade_python(
            graph, model.edge_probabilities(graph), initiators, ClaimRule.PROPORTIONAL, rng
        )
    return np.bincount(owner[owner >= 0], minlength=len(profile))


def _assert_within_pooled_stderr(a: np.ndarray, b: np.ndarray) -> None:
    """Means of two sample sets agree within 3 pooled standard errors."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    stderr_a = a.std(ddof=1) / math.sqrt(a.size)
    stderr_b = b.std(ddof=1) / math.sqrt(b.size)
    pooled = math.sqrt(stderr_a**2 + stderr_b**2)
    assert abs(a.mean() - b.mean()) <= 3 * pooled + 1e-9, (
        f"means {a.mean():.3f} vs {b.mean():.3f} differ by more than "
        f"3 pooled stderr ({pooled:.3f})"
    )


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("model_name", sorted(MODELS))
class TestSingleGroupEquivalence:
    def test_spread_means_agree(self, graph_name, model_name):
        graph, seeds = GRAPHS[graph_name]
        model = MODELS[model_name]
        rng = as_rng(2015)
        numpy_kernel = [model.spread_once(graph, seeds, rng) for _ in range(300)]
        rng = as_rng(2015)
        reference = [_reference_spread(graph, model, seeds, rng) for _ in range(300)]
        _assert_within_pooled_stderr(reference, numpy_kernel)


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("model_name", sorted(MODELS))
class TestCompetitiveEquivalence:
    def test_group_spread_means_agree(self, graph_name, model_name):
        graph, seeds = GRAPHS[graph_name]
        model = MODELS[model_name]
        profile = [seeds[:1], seeds[1:]]
        engine = CompetitiveDiffusion(graph, model)
        rng = as_rng(7)
        numpy_kernel = np.array([engine.run(profile, rng).spreads() for _ in range(300)])
        rng = as_rng(7)
        reference = np.array(
            [_reference_spreads(graph, model, profile, rng) for _ in range(300)]
        )
        for group in range(2):
            _assert_within_pooled_stderr(reference[:, group], numpy_kernel[:, group])


class TestNumpyKernelDeterminism:
    """The numpy kernel must be bit-identical to itself for a fixed seed."""

    def _table(self, executor):
        return estimate_payoff_table(
            erdos_renyi(50, 200, rng=3),
            IndependentCascade(0.2),
            StrategySpace([DegreeDiscount(0.2), RandomSeeds()]),
            num_groups=2,
            k=4,
            rounds=8,
            seed_draws=2,
            rng=2015,
            executor=executor,
        )

    def _flatten(self, table):
        return {
            profile: [(e.mean, e.std, e.samples) for e in ests]
            for profile, ests in table.estimates.items()
        }

    def test_repeat_runs_identical(self):
        with Executor("serial") as ex:
            first = self._flatten(self._table(ex))
            second = self._flatten(self._table(ex))
        assert first == second

    def test_serial_vs_process(self):
        serial = self._flatten(self._table(Executor("serial")))
        with Executor("process", workers=2) as ex:
            process = self._flatten(self._table(ex))
        assert serial == process

    def test_serial_vs_thread(self):
        serial = self._flatten(self._table(Executor("serial")))
        with Executor("thread", workers=3) as ex:
            thread = self._flatten(self._table(ex))
        assert serial == thread

    def test_worker_count_is_irrelevant(self):
        with Executor("process", workers=1) as ex:
            one = self._flatten(self._table(ex))
        with Executor("process", workers=4) as ex:
            four = self._flatten(self._table(ex))
        assert one == four

    def test_engine_level_repeatability(self):
        graph = erdos_renyi(80, 400, rng=5)
        engine = CompetitiveDiffusion(graph, WeightedCascade())
        a = engine.run([[0, 1], [2, 3]], rng=99)
        b = engine.run([[0, 1], [2, 3]], rng=99)
        np.testing.assert_array_equal(a.owner, b.owner)
        np.testing.assert_array_equal(a.activation_round, b.activation_round)
        assert a.rounds == b.rounds
