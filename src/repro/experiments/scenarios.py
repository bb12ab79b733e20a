"""Scenario plugins for the experiment orchestrator.

A *scenario* is the measurement taken inside one cell of a scenario
matrix: a callable ``fn(cell, config) -> metrics`` where *cell* is the
:class:`ScenarioCell` naming the (dataset, model, backend, symmetry, k)
coordinates, *config* is a fully resolved
:class:`~repro.experiments.config.ExperimentConfig` for that cell (its
``executor()``/``load()``/``strategy_space()`` plumbing already points at
the cell's backend and dataset), and *metrics* is a flat JSON
object of results.

Metric value conventions — these drive the regression gate
(:mod:`repro.experiments.gate`):

* ``{"mean": m, "stderr": s}`` dicts are Monte-Carlo estimates; the gate
  checks run-over-run drift against the pooled standard error;
* numeric keys ending in ``speedup`` are higher-is-better ratios; the gate
  fails when they regress beyond its tolerance;
* numeric keys ending in ``_s``/``_ms``/``seconds`` are wall-clock timings,
  compared only when the gate's opt-in time tolerance is set;
* strings (e.g. an equilibrium ``kind``) are compared for equality.

New workloads (the ROADMAP's asymmetric cascades, budgeted actions,
blocking games) land by *registering* a scenario — no new bench script::

    from repro.experiments.scenarios import scenario

    @scenario("blocking", "defender/attacker blocking under competitive LT")
    def blocking(cell, config):
        ...
        return {"blocked_fraction": {"mean": ..., "stderr": ...}}
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable
from typing import Any

from repro.errors import ExperimentError
from repro.utils.rng import as_rng
from repro.utils.timing import Stopwatch

#: A scenario measurement: ``fn(cell, config) -> metrics``.
ScenarioFn = Callable[["ScenarioCell", Any], dict[str, Any]]


@dataclass(frozen=True)
class ScenarioCell:
    """One coordinate of the scenario matrix."""

    dataset: str
    model: str
    backend: str
    symmetry: str
    k: int

    @property
    def cell_id(self) -> str:
        """Stable identifier used in manifests, journals and trajectories."""
        return (
            f"{self.dataset}/{self.model}/{self.backend}/"
            f"{self.symmetry}/k{self.k}"
        )


_SCENARIOS: dict[str, tuple[ScenarioFn, str]] = {}


def scenario(name: str, summary: str) -> Callable[[ScenarioFn], ScenarioFn]:
    """Register a scenario plugin under *name* (decorator)."""

    def register(fn: ScenarioFn) -> ScenarioFn:
        if name in _SCENARIOS:
            raise ExperimentError(f"scenario {name!r} is already registered")
        _SCENARIOS[name] = (fn, summary)
        return fn

    return register


def get_scenario(name: str) -> ScenarioFn:
    """The registered scenario callable, or :class:`ExperimentError`."""
    try:
        return _SCENARIOS[name][0]
    except KeyError:
        raise ExperimentError(
            f"unknown scenario {name!r}; registered: {sorted(_SCENARIOS)}"
        ) from None


def registered_scenarios() -> list[dict[str, str]]:
    """Name/summary rows for every registered scenario (CLI ``list``)."""
    return [
        {"scenario": name, "summary": _SCENARIOS[name][1]}
        for name in sorted(_SCENARIOS)
    ]


# ---------------------------------------------------------------------- #
# built-in scenarios
# ---------------------------------------------------------------------- #


@scenario(
    "competitive_spread",
    "head-to-head spread of the paper's strategy pairing (phi1 vs phi2)",
)
def competitive_spread(cell: ScenarioCell, config: Any) -> dict[str, Any]:
    """Per-group competitive spreads of φ1 vs φ2 at the cell's budget.

    Exercises the full estimation stack — strategy selection (MixGreedy's
    snapshot pools + the selection cache), the batched executor on the
    cell's backend, and the numpy diffusion kernel.
    """
    from repro.cascade.simulate import estimate_competitive_spread
    from repro.core.metrics import jaccard

    graph = config.load(cell.dataset)
    model = config.model(cell.model)
    space = config.strategy_space(cell.model)
    rng = as_rng(config.seed)
    seeds = [phi.select(graph, cell.k, rng) for phi in (space[0], space[1])]
    estimates = estimate_competitive_spread(
        graph,
        model,
        seeds,
        config.rounds,
        rng,
        executor=config.executor(),
    )
    return {
        "p1_spread": {
            "mean": float(estimates[0].mean),
            "stderr": float(estimates[0].stderr),
        },
        "p2_spread": {
            "mean": float(estimates[1].mean),
            "stderr": float(estimates[1].stderr),
        },
        "seed_overlap": {
            "mean": float(jaccard(seeds[0], seeds[1])),
            "stderr": 0.0,
        },
    }


@scenario(
    "getreal",
    "full GetReal pipeline: equilibrium kind, recommended mixture, regret",
)
def getreal(cell: ScenarioCell, config: Any) -> dict[str, Any]:
    """Run GetReal end to end on the cell and record the recommendation."""
    from repro.core.getreal import get_real

    space = config.strategy_space(cell.model)
    result = get_real(
        config.load(cell.dataset),
        config.model(cell.model),
        space,
        num_groups=2,
        k=cell.k,
        rounds=config.rounds,
        rng=config.seed,
        executor=config.executor(),
        symmetry=cell.symmetry,
    )
    return {
        "kind": result.kind,
        "rho_phi1": {
            "mean": float(result.mixture.probabilities[0]),
            # The mixture is a deterministic function of the (noisy) payoff
            # table; its run-over-run drift is bounded by the table's own
            # noise floor, which is what the gate should compare against.
            "stderr": float(result.payoff_table.max_stderr()),
        },
        "regret": float(result.regret),
        "solve_s": float(result.solve_seconds),
        "phi1": space.labels[0],
    }


@scenario(
    "payoff_speedup",
    "symmetric-reduction speedup on the cell's payoff tensor (full vs reduce)",
)
def payoff_speedup(cell: ScenarioCell, config: Any) -> dict[str, Any]:
    """Time ``estimate_payoff_table`` full vs ``symmetry="reduce"``.

    The ``speedup`` key feeds the gate's higher-is-better rule — this is
    ``benchmarks/bench_payoff_sharing.py``'s workload formalized as a
    plugin, at whatever scale the matrix spec pins.
    """
    from repro.core.payoff import estimate_payoff_table

    graph = config.load(cell.dataset)
    model = config.model(cell.model)
    space = config.strategy_space(cell.model)
    timings = {}
    for mode in ("full", "reduce"):
        watch = Stopwatch()
        with watch:
            table = estimate_payoff_table(
                graph,
                model,
                space,
                num_groups=2,
                k=cell.k,
                rounds=config.rounds,
                rng=config.seed,
                executor=config.executor(),
                symmetry=mode,
            )
        timings[mode] = (watch.elapsed, table)
    full_s, full = timings["full"]
    reduce_s, reduced = timings["reduce"]
    profile = next(iter(full.estimates))
    a, b = full.estimate(profile, 0), reduced.estimate(profile, 0)
    return {
        "speedup": full_s / reduce_s if reduce_s else float(len(full.estimates)),
        "full_s": full_s,
        "reduce_s": reduce_s,
        # float() strips numpy scalars: np.float64 is not JSON-serializable
        # and would fail the trajectory store's schema validation.
        "full_cell0": {"mean": float(a.mean), "stderr": float(a.stderr)},
        "reduce_cell0": {"mean": float(b.mean), "stderr": float(b.stderr)},
    }
