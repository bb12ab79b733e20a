"""Experiment configuration with environment-variable overrides.

The paper's evaluation runs on graphs of up to 2.4M nodes with a C++
implementation; this pure-Python reproduction defaults to scaled surrogate
graphs so the full benchmark suite finishes on a laptop.  Every knob can be
raised through environment variables (documented in EXPERIMENTS.md):

===========================  =======================================  =======
variable                     meaning                                  default
===========================  =======================================  =======
``REPRO_BENCH_NODES``        node budget per surrogate graph          1200
``REPRO_BENCH_ROUNDS``       diffusion simulations per estimate       20
``REPRO_BENCH_SNAPSHOTS``    live-edge snapshots inside MixGreedy     30
``REPRO_BENCH_KS``           comma-separated seed budgets             10..50
``REPRO_BENCH_SEED``         master RNG seed                          2015
``REPRO_BENCH_ICP``          IC edge probability                      0.05
===========================  =======================================  =======

Execution is configured by the engine's own variables: ``REPRO_BACKEND``
(``serial``/``thread``/``process``) and ``REPRO_WORKERS`` select the
simulation backend all runners submit their batches to — results are
bit-identical across those settings for a fixed seed.
``REPRO_SYMMETRY`` (``full``/``reduce``) selects full-profile vs
symmetric-reduced payoff estimation, and ``REPRO_CACHE=off`` disables the
work-sharing selection/blocking caches (both in ``docs/execution.md``).

Large-graph scale-out adds two more (see ``docs/architecture.md`` and
the "large graphs" section of EXPERIMENTS.md): ``REPRO_GRAPH_STORE``
points at a :class:`~repro.graphs.store.GraphStore` directory so job
payloads carry O(1) ``GraphRef`` handles instead of CSR arrays;
``REPRO_DATA_DIR`` lets the ``wiki`` dataset load the real SNAP wiki-Talk
edge list instead of its synthetic surrogate.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.algorithms import DegreeDiscount, MixGreedy, SingleDiscount
from repro.cascade import CascadeModel, IndependentCascade, WeightedCascade
from repro.core.payoff import SYMMETRY_ENV_VAR, resolve_symmetry
from repro.core.strategy import StrategySpace
from repro.errors import ExperimentError
from repro.exec.executor import (
    BACKEND_ENV_VAR,
    WORKERS_ENV_VAR,
    Executor,
    build_executor,
)
from repro.graphs.datasets import DATASETS
from repro.graphs.digraph import DiGraph


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    return int(raw) if raw else default


def _env_str(name: str, default: str) -> str:
    raw = os.environ.get(name, "").strip()
    return raw if raw else default


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name)
    return float(raw) if raw else default


def _env_ks(name: str, default: tuple[int, ...]) -> tuple[int, ...]:
    raw = os.environ.get(name)
    if not raw:
        return default
    return tuple(int(part) for part in raw.split(","))


def _env_workers() -> int | None:
    """``REPRO_WORKERS``: unset/empty means auto, otherwise an int >= 1.

    Rejecting zero and negatives here (instead of letting them reach the
    executor) mirrors how ``resolve_symmetry`` fails fast
    on bad environment values — previously ``REPRO_WORKERS=0`` silently
    meant auto and ``-2`` passed straight through to the worker pool.
    """
    raw = os.environ.get(WORKERS_ENV_VAR, "").strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError as exc:
        raise ExperimentError(
            f"{WORKERS_ENV_VAR} must be an integer >= 1 or unset, got {raw!r}"
        ) from exc
    if value < 1:
        raise ExperimentError(
            f"{WORKERS_ENV_VAR} must be >= 1 or unset, got {value}"
        )
    return value


@dataclass
class ExperimentConfig:
    """All knobs shared by the benchmark harness and the examples."""

    nodes_budget: int = field(default_factory=lambda: _env_int("REPRO_BENCH_NODES", 1200))
    rounds: int = field(default_factory=lambda: _env_int("REPRO_BENCH_ROUNDS", 20))
    snapshots: int = field(default_factory=lambda: _env_int("REPRO_BENCH_SNAPSHOTS", 120))
    ks: tuple[int, ...] = field(
        default_factory=lambda: _env_ks("REPRO_BENCH_KS", (10, 20, 30, 40, 50))
    )
    seed: int = field(default_factory=lambda: _env_int("REPRO_BENCH_SEED", 2015))
    # The paper uses p = 0.01 on the 15k-node Hep graph; on the scaled
    # surrogate that leaves cascades too short to differentiate strategies.
    # p = 0.08 restores the paper-scale regime (multi-hop cascades where
    # greedy beats the degree heuristic and same-algorithm seed sets
    # overlap); see EXPERIMENTS.md.
    ic_probability: float = field(
        default_factory=lambda: _env_float("REPRO_BENCH_ICP", 0.08)
    )
    backend: str = field(
        default_factory=lambda: _env_str(BACKEND_ENV_VAR, "serial")
    )
    workers: int | None = field(default_factory=_env_workers)
    symmetry: str = field(
        default_factory=lambda: resolve_symmetry(
            _env_str(SYMMETRY_ENV_VAR, "full")
        )
    )
    _graph_cache: dict[str, DiGraph] = field(default_factory=dict, repr=False)
    _executor: Executor | None = field(default=None, repr=False)

    def scale_for(self, dataset: str) -> float:
        """Fraction of the paper-scale graph that fits the node budget."""
        spec = DATASETS[dataset]
        return min(1.0, self.nodes_budget / spec.paper_nodes)

    def load(self, dataset: str) -> DiGraph:
        """Load (and cache) the surrogate for *dataset* at the bench scale."""
        if dataset not in self._graph_cache:
            if dataset not in DATASETS:
                raise ExperimentError(
                    f"unknown dataset {dataset!r}; available: {sorted(DATASETS)}"
                )
            self._graph_cache[dataset] = DATASETS[dataset].load(
                scale=self.scale_for(dataset)
            )
        return self._graph_cache[dataset]

    def executor(self) -> Executor:
        """The (cached) execution engine all runners submit batches to."""
        if self._executor is None:
            self._executor = build_executor(self.backend, self.workers)
        return self._executor

    # ------------------------------------------------------------------ #
    # the paper's model/strategy pairings
    # ------------------------------------------------------------------ #

    def model(self, model_kind: str) -> CascadeModel:
        """The cascade model for ``"ic"`` or ``"wc"``."""
        if model_kind == "ic":
            return IndependentCascade(self.ic_probability)
        if model_kind == "wc":
            return WeightedCascade()
        raise ExperimentError(f"model_kind must be 'ic' or 'wc', got {model_kind!r}")

    def strategy_space(self, model_kind: str) -> StrategySpace:
        """The paper's 2-strategy space for each model.

        Under IC: φ1 = MixGreedy(IC), φ2 = DegreeDiscountIC.
        Under WC: φ1 = MixGreedy(WC), φ2 = SingleDiscount.
        """
        model = self.model(model_kind)
        greedy = MixGreedy(
            model, num_snapshots=self.snapshots, executor=self.executor()
        )
        if model_kind == "ic":
            return StrategySpace([greedy, DegreeDiscount(self.ic_probability)])
        return StrategySpace([greedy, SingleDiscount()])
