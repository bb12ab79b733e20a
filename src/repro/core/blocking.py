"""Influence blocking: limit a rival campaign's spread.

The problem family of Budak et al. (WWW'11) and He et al. (SDM'12), which
the paper's related work groups with competitive IM: a *misinformation*
(or simply rival) campaign has already seeded the network; pick *k*
blocker seeds for a counter-campaign that minimize the number of nodes the
rival eventually claims.

Under this library's competitive semantics a blocker works by claiming
nodes first — once claimed, a node can never adopt the rival's product
(the paper's third assumption) — so blocking is greedy minimization of the
rival's spread via the shared competitive engine, with common random
numbers pairing the candidate comparisons.  Each greedy step evaluates
every remaining candidate, and those evaluations are independent — they
are submitted to the execution engine as one
:class:`~repro.exec.jobs.CompetitiveJob` batch per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.cache import (
    blocking_memo,
    cache_enabled,
    params_token,
    rng_state,
    rng_token,
    set_rng_state,
)
from repro.cascade.base import CascadeModel
from repro.errors import SeedSelectionError
from repro.exec.executor import Executor, resolve_executor
from repro.exec.jobs import CompetitiveJob
from repro.graphs.digraph import DiGraph
from repro.graphs.store import maybe_ref
from repro.utils.rng import RandomSource, as_rng
from repro.utils.validation import check_positive_int

#: Stride between the paired random streams of successive blocking rounds.
BLOCKING_CRN_STEP = 104729


@dataclass(frozen=True)
class BlockingResult:
    """Outcome of a blocking run.

    Attributes
    ----------
    blockers:
        The selected counter-campaign seeds, in greedy order.
    rival_spread_before:
        The rival's expected spread with no counter-campaign.
    rival_spread_after:
        The rival's expected spread against the blockers.
    blocker_spread:
        The counter-campaign's own expected spread (a by-product).
    """

    blockers: list[int]
    rival_spread_before: float
    rival_spread_after: float
    blocker_spread: float

    @property
    def reduction(self) -> float:
        """Fraction of the rival's spread removed by the blockers."""
        if self.rival_spread_before <= 0:
            return 0.0
        return 1.0 - self.rival_spread_after / self.rival_spread_before


def _blocking_job(
    graph: DiGraph,
    model: CascadeModel,
    rival_seeds: Sequence[int],
    blockers: Sequence[int],
    rounds: int,
    crn_base: int,
) -> CompetitiveJob:
    """Rival-vs-blockers evaluation as a CRN-paired competitive job."""
    rival = tuple(int(s) for s in rival_seeds)
    seed_sets = (
        (rival, tuple(int(b) for b in blockers)) if blockers else (rival,)
    )
    return CompetitiveJob(
        graph=maybe_ref(graph),
        model=model,
        seed_sets=seed_sets,
        rounds=rounds,
        crn_base=crn_base,
        crn_step=BLOCKING_CRN_STEP,
    )


def select_blockers(
    graph: DiGraph,
    model: CascadeModel,
    rival_seeds: Sequence[int],
    k: int,
    rounds: int = 10,
    candidate_pool: int = 100,
    rng: RandomSource = None,
    executor: Executor | None = None,
) -> BlockingResult:
    """Greedy blocker selection minimizing the rival's competitive spread.

    Candidates are the top-``candidate_pool`` nodes by out-degree plus the
    rival's own seeds' neighbours (the positions that intercept the rival
    earliest); each greedy step batches all remaining candidates through
    *executor* and picks the one whose addition lowers the rival's
    CRN-paired expected spread the most (first wins on ties, matching the
    sorted candidate order).

    Reproducible calls (``rng`` given) are memoized in the work-sharing
    blocking cache, keyed on graph fingerprint, model params, rival seeds,
    budgets, and RNG state; a hit returns the stored result and
    restores the post-run RNG state, so warm runs are bit-identical to
    cold ones.  The executor backend is deliberately not part of the key —
    batched results are backend-independent.
    """
    check_positive_int(k, "k")
    check_positive_int(rounds, "rounds")
    check_positive_int(candidate_pool, "candidate_pool")
    rival = [int(s) for s in rival_seeds]
    if not rival:
        raise SeedSelectionError("rival_seeds must be non-empty")
    for s in rival:
        if not 0 <= s < graph.num_nodes:
            raise SeedSelectionError(f"rival seed {s} out of range")

    generator = as_rng(rng)
    memo = blocking_memo() if rng is not None and cache_enabled() else None
    key: Any = None
    if memo is not None:
        key = (
            graph.fingerprint,
            params_token(model),
            tuple(rival),
            int(k),
            int(rounds),
            int(candidate_pool),
            rng_token(generator),
        )
        hit = memo.get(key)
        if hit is not None:
            result, end_state = hit
            set_rng_state(generator, end_state)
            assert isinstance(result, BlockingResult)
            return result
    crn_base = int(generator.integers(0, 2**62))
    runner = resolve_executor(executor)

    degrees = graph.out_degrees().astype(float)
    degrees += generator.random(graph.num_nodes) * 1e-9
    pool = set(np.argsort(-degrees)[: min(candidate_pool, graph.num_nodes)].tolist())
    for s in rival:
        pool.update(int(v) for v in graph.out_neighbors(s))
    pool.difference_update(rival)
    candidates = sorted(int(c) for c in pool)
    if len(candidates) < k:
        raise SeedSelectionError(
            f"only {len(candidates)} candidates available for budget k={k}"
        )

    baseline_job = _blocking_job(graph, model, rival, [], rounds, crn_base)
    baseline = runner.estimates([baseline_job], rng=generator)[0][0].mean

    blockers: list[int] = []
    for _ in range(k):
        remaining = [c for c in candidates if c not in blockers]
        jobs = [
            _blocking_job(graph, model, rival, blockers + [c], rounds, crn_base)
            for c in remaining
        ]
        results = runner.estimates(jobs, rng=generator)
        best_candidate = -1
        best_spread = float("inf")
        for c, estimates in zip(remaining, results):
            spread = estimates[0].mean
            if spread < best_spread:
                best_spread = spread
                best_candidate = c
        blockers.append(best_candidate)

    final_job = _blocking_job(graph, model, rival, blockers, rounds, crn_base)
    final = runner.estimates([final_job], rng=generator)[0]
    result = BlockingResult(
        blockers=blockers,
        rival_spread_before=baseline,
        rival_spread_after=final[0].mean,
        blocker_spread=final[1].mean,
    )
    if memo is not None:
        memo.put(key, (result, rng_state(generator)), nbytes=8 * len(blockers) + 512)
    return result
