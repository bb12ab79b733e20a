"""Monte-Carlo spread estimation, single-group and competitive.

These estimators produce the ``σ(·)`` quantities of the paper:
:func:`estimate_spread` gives the singleton spread ``σ0(S)`` (no
competition), and :func:`estimate_competitive_spread` gives the vector
``(σ1(..), .., σr(..))`` for a full profile of seed sets diffusing
simultaneously.  Both return a :class:`SpreadEstimate` carrying the sample
standard error, which the GetReal layer uses to judge whether a pure-NE
comparison is statistically meaningful.

Since the execution-engine refactor both functions are thin wrappers: they
describe the work as a single :class:`~repro.exec.jobs.SpreadJob` /
:class:`~repro.exec.jobs.CompetitiveJob` and submit it through an
:class:`~repro.exec.executor.Executor` (the env-configured process default
when none is passed).  Callers that need many estimates at once — the
payoff table, the figure sweeps, greedy candidate scoring — should build
the jobs themselves and submit them as **one batch** so the backend can
run them concurrently; see ``docs/execution.md``.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

from repro.cascade.base import CascadeModel
from repro.cascade.competitive import ClaimRule, TieBreakRule
from repro.cascade.estimate import SpreadEstimate
from repro.exec.executor import Executor, resolve_executor
from repro.exec.jobs import CompetitiveJob, SpreadJob
from repro.graphs.digraph import DiGraph
from repro.graphs.store import maybe_ref
from repro.lint import contracts
from repro.obs.log import get_logger
from repro.obs.metrics import counter, histogram
from repro.utils.rng import RandomSource
from repro.utils.validation import check_positive_int

_LOG = get_logger("cascade.simulate")

_SINGLE_SIMULATIONS = counter("cascade.simulations")
_SPREAD_CALLS = counter("estimate.spread_calls")
_COMPETITIVE_CALLS = counter("estimate.competitive_calls")
_SPREAD_SECONDS = histogram("estimate.spread_seconds")
_COMPETITIVE_SECONDS = histogram("estimate.competitive_seconds")

__all__ = [
    "SpreadEstimate",
    "estimate_competitive_spread",
    "estimate_spread",
]


def estimate_spread(
    graph: DiGraph,
    model: CascadeModel,
    seeds: Sequence[int],
    rounds: int = 100,
    rng: RandomSource = None,
    executor: Executor | None = None,
) -> SpreadEstimate:
    """Estimate the non-competitive spread ``σ0(seeds)`` by *rounds* simulations."""
    check_positive_int(rounds, "rounds")
    job = SpreadJob(
        graph=maybe_ref(graph),
        model=model,
        seeds=tuple(int(s) for s in seeds),
        rounds=rounds,
    )
    started = time.perf_counter()
    (estimate,) = resolve_executor(executor).estimates([job], rng=rng)[0]
    _SPREAD_CALLS.inc()
    _SINGLE_SIMULATIONS.inc(rounds)
    _SPREAD_SECONDS.observe(time.perf_counter() - started)  # reprolint: disable=RP009
    if contracts.enabled():
        contracts.check_spread_estimate(estimate.mean, graph.num_nodes)
    return estimate


def estimate_competitive_spread(
    graph: DiGraph,
    model: CascadeModel,
    seed_sets: Sequence[Sequence[int]],
    rounds: int = 100,
    rng: RandomSource = None,
    tie_break: TieBreakRule = TieBreakRule.UNIFORM,
    claim_rule: ClaimRule = ClaimRule.PROPORTIONAL,
    executor: Executor | None = None,
) -> list[SpreadEstimate]:
    """Estimate per-group competitive spreads for a full seed-set profile.

    Each of the *rounds* simulations independently re-resolves seed
    collisions (initiator assignment) and re-runs the diffusion, matching the
    paper's expectation over both sources of randomness.
    """
    check_positive_int(rounds, "rounds")
    job = CompetitiveJob(
        graph=maybe_ref(graph),
        model=model,
        seed_sets=tuple(tuple(int(s) for s in seeds) for seeds in seed_sets),
        rounds=rounds,
        tie_break=tie_break,
        claim_rule=claim_rule,
    )
    started = time.perf_counter()
    estimates = list(resolve_executor(executor).estimates([job], rng=rng)[0])
    elapsed = time.perf_counter() - started  # reprolint: disable=RP009
    _COMPETITIVE_CALLS.inc()
    _COMPETITIVE_SECONDS.observe(elapsed)
    _LOG.debug(
        "competitive spread: %d groups x %d rounds in %.3fs",
        len(seed_sets),
        rounds,
        elapsed,
    )
    if contracts.enabled():
        # Per-profile invariant: the group means partition at most |V| nodes.
        contracts.check_spreads(
            [est.mean for est in estimates], graph.num_nodes, "mean spreads"
        )
    return estimates
