"""Runners that regenerate every table and figure of the paper.

Each function returns a list of row dicts (ready for
:func:`repro.utils.tables.format_table`); the ``benchmarks/`` directory has
one pytest-benchmark target per table/figure that calls the matching runner
and prints the rows the paper reports.

Every runner is wrapped by :func:`_observed`: its wall time lands in a
``span.experiments.<runner>.seconds`` histogram, start/finish lines go to
the ``repro.experiments`` logger, and — when a run journal is attached
(``REPRO_BENCH_JOURNAL`` in the benchmark harness, ``--journal`` in
``examples/reproduce_paper.py``) — a ``span`` event per runner plus the
``run_start``/``profile_done``/``equilibrium_found`` events emitted by the
underlying ``get_real``/``estimate_payoff_table`` calls.
"""

from __future__ import annotations

import functools
from itertools import product
from collections.abc import Callable
from typing import TypeVar

import numpy as np

from repro.cascade.simulate import estimate_competitive_spread, estimate_spread
from repro.core.getreal import get_real, solve_strategy_game
from repro.core.metrics import estimate_coefficients, seed_overlap_profile
from repro.core.payoff import estimate_payoff_table
from repro.core.strategy import MixedStrategy, StrategySpace
from repro.experiments.config import ExperimentConfig
from repro.graphs.datasets import DATASETS
from repro.graphs.stats import summarize
from repro.obs.log import get_logger
from repro.obs.metrics import counter
from repro.obs.trace import span
from repro.utils.rng import as_rng
from repro.utils.timing import Stopwatch

_PAPER_DATASETS = ("hep", "phy", "wiki")

_LOG = get_logger("experiments.runners")
_RUNNER_CALLS = counter("experiments.runner_calls")

_Runner = TypeVar("_Runner", bound=Callable[..., list])


def _observed(runner: _Runner) -> _Runner:
    """Wrap a runner with logging, a call counter, and a trace span."""

    @functools.wraps(runner)
    def wrapper(*args: object, **kwargs: object) -> list:
        _RUNNER_CALLS.inc()
        _LOG.info("runner %s started", runner.__name__)
        with span(f"experiments.{runner.__name__}", journal=True) as handle:
            rows = runner(*args, **kwargs)
        _LOG.info(
            "runner %s produced %d rows in %.2fs",
            runner.__name__,
            len(rows),
            handle.elapsed,
        )
        return rows

    return wrapper  # type: ignore[return-value]


@_observed
def table3_rows(config: ExperimentConfig) -> list[dict[str, object]]:
    """Table 3: dataset sizes — paper scale vs the surrogate actually used."""
    rows = []
    for name in _PAPER_DATASETS:
        spec = DATASETS[name]
        graph = config.load(name)
        stats = summarize(graph)
        rows.append(
            {
                "network": name,
                "paper_nodes": spec.paper_nodes,
                "paper_edges": spec.paper_edges,
                "bench_nodes": stats.num_nodes,
                "bench_arcs": stats.num_edges,
                "mean_deg": round(stats.mean_out_degree, 2),
                "gini": round(stats.degree_gini, 3),
            }
        )
    return rows


@_observed
def jaccard_rows(
    config: ExperimentConfig,
    model_kind: str,
    datasets: tuple[str, ...] = _PAPER_DATASETS,
    repeats: int = 3,
) -> list[dict[str, object]]:
    """Figures 3 (IC) and 4 (WC): Jaccard overlap of S1 and S2 per strategy pair.

    The three curves per panel are (φ2, φ2), (φ2, φ1) and (φ1, φ1) — e.g.
    ddic-ddic, ddic-mgic, mgic-mgic under IC.  Seeds are drawn once per
    repeat at ``max(ks)`` and prefixes give the smaller budgets (greedy
    selectors are prefix-consistent).
    """
    from repro.cascade.simulate import SpreadEstimate
    from repro.core.metrics import jaccard

    space = config.strategy_space(model_kind)
    greedy, heuristic = space[0], space[1]
    # Each pair is evaluated between the two roles' independent draws.
    pairs = [
        (heuristic.name, heuristic.name),
        (heuristic.name, greedy.name),
        (greedy.name, greedy.name),
    ]
    rng = as_rng(config.seed)
    k_max = max(config.ks)
    rows = []
    for name in datasets:
        graph = config.load(name)
        values: dict[tuple[str, str, int], list[float]] = {}
        for _ in range(repeats):
            draws = {
                (role, phi.name): phi.select(graph, k_max, rng)
                for role in ("p1", "p2")
                for phi in space
            }
            for first, second in pairs:
                for k in config.ks:
                    sim = jaccard(
                        draws[("p1", first)][:k], draws[("p2", second)][:k]
                    )
                    values.setdefault((first, second, k), []).append(sim)
        for (first, second, k), sims in values.items():
            est = SpreadEstimate.from_values(sims)
            rows.append(
                {
                    "dataset": name,
                    "pair": f"{first}-{second}",
                    "k": k,
                    "jaccard": est.mean,
                    "stderr": est.stderr,
                }
            )
    return rows


@_observed
def spread_rows(
    config: ExperimentConfig,
    dataset: str,
    model_kind: str,
) -> list[dict[str, object]]:
    """Figures 5/6/7: p1's spread for each fixed p2 strategy, plus singletons.

    For each panel (p2 fixed to φ1 or φ2) and each k, four curves: p1 plays
    φ1, p1 plays φ2, and the two non-competitive baselines s-φ1 / s-φ2.
    """
    model = config.model(model_kind)
    space = config.strategy_space(model_kind)
    rng = as_rng(config.seed)
    graph = config.load(dataset)
    k_max = max(config.ks)

    # One ordered k_max-seed list per (role, strategy); prefixes give all k.
    seeds = {
        (role, phi.name): phi.select(graph, k_max, rng)
        for role in ("p1", "p2")
        for phi in space
    }

    rows = []
    for p2_strategy in space:
        panel = f"p2={p2_strategy.name}"
        for k in config.ks:
            s2 = seeds[("p2", p2_strategy.name)][:k]
            for p1_strategy in space:
                s1 = seeds[("p1", p1_strategy.name)][:k]
                ests = estimate_competitive_spread(
                    graph,
                    model,
                    [s1, s2],
                    config.rounds,
                    rng,
                    executor=config.executor(),
                )
                rows.append(
                    {
                        "panel": panel,
                        "k": k,
                        "curve": p1_strategy.name,
                        "spread": ests[0].mean,
                        "stderr": ests[0].stderr,
                    }
                )
            for phi in space:
                singleton = estimate_spread(
                    graph,
                    model,
                    seeds[("p1", phi.name)][:k],
                    config.rounds,
                    rng,
                    executor=config.executor(),
                )
                rows.append(
                    {
                        "panel": panel,
                        "k": k,
                        "curve": f"s-{phi.name}",
                        "spread": singleton.mean,
                        "stderr": singleton.stderr,
                    }
                )
    return rows


def _mixture_for(
    config: ExperimentConfig,
    dataset: str,
    model_kind: str,
) -> tuple[MixedStrategy, StrategySpace]:
    """GetReal's recommended mixture for the dataset/model pair.

    Uses 3x the configured rounds and three independent seed draws: the
    hep/wc game is a near-tie (that is *why* it is the paper's mixed-case
    scenario), so the pure-vs-mixed decision needs a lower-noise payoff
    table than the figure sweeps do.
    """
    space = config.strategy_space(model_kind)
    result = get_real(
        config.load(dataset),
        config.model(model_kind),
        space,
        num_groups=2,
        k=max(config.ks),
        rounds=3 * config.rounds,
        seed_draws=3,
        rng=config.seed,
        executor=config.executor(),
        symmetry=config.symmetry,
    )
    return result.mixture, space


@_observed
def mixed_vs_random_rows(
    config: ExperimentConfig,
    dataset: str = "hep",
    model_kind: str = "wc",
    simulation_rounds: int = 50,
) -> list[dict[str, object]]:
    """Figure 8: GetReal's mixed strategy vs uniform-random strategy choice.

    Both groups repeatedly draw a pure strategy from the mixture (resp. the
    uniform distribution) and diffuse competitively; reports each group's
    average spread per k over ``simulation_rounds`` draws (the paper's
    R = 50).
    """
    mixture, space = _mixture_for(config, dataset, model_kind)
    uniform = MixedStrategy.uniform(space)
    model = config.model(model_kind)
    graph = config.load(dataset)
    rng = as_rng(config.seed + 1)
    k_max = max(config.ks)

    seeds = {
        (role, phi.name): phi.select(graph, k_max, rng)
        for role in ("p1", "p2")
        for phi in space
    }

    rows = []
    for label, strategy in (("mixed", mixture), ("random", uniform)):
        for k in config.ks:
            totals = np.zeros(2)
            for _ in range(simulation_rounds):
                phi1 = strategy.sample(rng)
                phi2 = strategy.sample(rng)
                ests = estimate_competitive_spread(
                    graph,
                    model,
                    [seeds[("p1", phi1.name)][:k], seeds[("p2", phi2.name)][:k]],
                    rounds=1,
                    rng=rng,
                    executor=config.executor(),
                )
                totals += [ests[0].mean, ests[1].mean]
            means = totals / simulation_rounds
            rows.append(
                {
                    "strategy": label,
                    "k": k,
                    "spread_p1": float(means[0]),
                    "spread_p2": float(means[1]),
                    "rho": float(strategy.probabilities[0]),
                }
            )
    return rows


@_observed
def profile_rows(
    config: ExperimentConfig,
    dataset: str = "hep",
    model_kind: str = "wc",
) -> list[dict[str, object]]:
    """Figure 9: average spread of every pure 2-order profile vs the mixed line."""
    mixture, space = _mixture_for(config, dataset, model_kind)
    model = config.model(model_kind)
    graph = config.load(dataset)
    rng = as_rng(config.seed + 2)
    k_max = max(config.ks)

    seeds = {
        (role, phi.name): phi.select(graph, k_max, rng)
        for role in ("p1", "p2")
        for phi in space
    }

    rows = []
    for k in config.ks:
        mixed_expect = np.zeros(2)
        for i, j in product(range(space.size), repeat=2):
            phi1, phi2 = space[i], space[j]
            ests = estimate_competitive_spread(
                graph,
                model,
                [seeds[("p1", phi1.name)][:k], seeds[("p2", phi2.name)][:k]],
                config.rounds,
                rng,
                executor=config.executor(),
            )
            weight = mixture.probabilities[i] * mixture.probabilities[j]
            mixed_expect += weight * np.array([ests[0].mean, ests[1].mean])
            rows.append(
                {
                    "k": k,
                    "profile": f"{phi1.name}-{phi2.name}",
                    "spread_p1": ests[0].mean,
                    "spread_p2": ests[1].mean,
                }
            )
        rows.append(
            {
                "k": k,
                "profile": "mixed",
                "spread_p1": float(mixed_expect[0]),
                "spread_p2": float(mixed_expect[1]),
            }
        )
    return rows


@_observed
def response_time_rows(
    config: ExperimentConfig,
    datasets: tuple[str, ...] = _PAPER_DATASETS,
    repeats: int = 5,
) -> list[dict[str, object]]:
    """Table 4: time of the NE search alone (Algorithm 1 lines 5–11).

    Payoff tables are estimated once per (dataset, model, r=z) combination;
    the timer then covers only ``solve_strategy_game``, matching the paper's
    measurement.  ``r = z = 3`` adds RandomSeeds as the third strategy and a
    third group.
    """
    from repro.algorithms import RandomSeeds

    rows = []
    rng = as_rng(config.seed + 3)
    for name in datasets:
        graph = config.load(name)
        for model_kind in ("ic", "wc"):
            model = config.model(model_kind)
            base = config.strategy_space(model_kind)
            for order in (2, 3):
                if order == 2:
                    space = base
                else:
                    space = StrategySpace(list(base) + [RandomSeeds()])
                table = estimate_payoff_table(
                    graph,
                    model,
                    space,
                    num_groups=order,
                    k=min(20, max(config.ks)),
                    rounds=max(4, config.rounds // 4),
                    rng=rng,
                    executor=config.executor(),
                    symmetry=config.symmetry,
                )
                game = table.to_game()
                watch = Stopwatch()
                for _ in range(repeats):
                    with watch:
                        result = solve_strategy_game(game, space, table)
                rows.append(
                    {
                        "network": name,
                        "model": model_kind,
                        "r=z": order,
                        "ne_seconds": watch.mean_lap,
                        "kind": result.kind,
                    }
                )
    return rows


@_observed
def sensitivity_rows(
    config: ExperimentConfig,
    dataset: str = "hep",
    model_kind: str = "wc",
    rounds_levels: tuple[int, ...] = (5, 10, 20, 40),
    repeats: int = 5,
) -> list[dict[str, object]]:
    """Ablation: stability of the NE decision vs Monte-Carlo effort.

    For each payoff-estimation budget, GetReal runs *repeats* times with
    fresh randomness; the row reports how often the pure/mixed decision and
    the recommended strategy agree, alongside the payoff-table noise level.
    The hep/wc pairing is deliberately the paper's knife-edge scenario.
    """
    model = config.model(model_kind)
    graph = config.load(dataset)
    k = min(20, max(config.ks))
    rows = []
    for rounds in rounds_levels:
        kinds: list[str] = []
        rhos: list[float] = []
        stderrs: list[float] = []
        for i in range(repeats):
            space = config.strategy_space(model_kind)
            result = get_real(
                graph,
                model,
                space,
                num_groups=2,
                k=k,
                rounds=rounds,
                rng=as_rng(config.seed + 100 + 31 * i + rounds),
                executor=config.executor(),
                symmetry=config.symmetry,
            )
            kinds.append(result.kind)
            rhos.append(float(result.mixture.probabilities[0]))
            stderrs.append(result.payoff_table.max_stderr())
        majority = max(set(kinds), key=kinds.count)
        rows.append(
            {
                "rounds": rounds,
                "pure_fraction": kinds.count("pure") / repeats,
                "majority_kind": majority,
                "mean_rho_phi1": float(np.mean(rhos)),
                "rho_spread": float(np.max(rhos) - np.min(rhos)),
                "max_stderr": float(np.mean(stderrs)),
            }
        )
    return rows


@_observed
def coefficient_rows(
    config: ExperimentConfig,
    dataset: str,
    model_kind: str,
) -> list[dict[str, object]]:
    """Figure 10: γ, λ and α+β against k, with Theorem 1's bounds."""
    from repro.core.metrics import coefficient_sweep

    model = config.model(model_kind)
    space = config.strategy_space(model_kind)
    graph = config.load(dataset)
    rng = as_rng(config.seed + 4)
    rows = []
    for k, coeff in coefficient_sweep(
        graph, model, space[0], space[1], config.ks, config.rounds, rng
    ):
        bounds = coeff.theorem1_bounds()
        rows.append(
            {
                "dataset": dataset,
                "model": model_kind,
                "k": k,
                "gamma": coeff.gamma,
                "lambda": coeff.lam,
                "alpha+beta": coeff.alpha_plus_beta,
                "lambda_hi_bound": bounds["lambda"][1],
                "ab_hi_bound": bounds["alpha+beta"][1],
            }
        )
    return rows
