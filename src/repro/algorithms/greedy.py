"""Greedy IM algorithms: MixGreedy (NewGreedy + CELF) and plain CELF.

``MixGreedy`` is the algorithm of Chen, Wang & Yang (KDD'09) the paper uses
as its strong strategy (MGIC under IC, MGWC under WC): sample ``R``
live-edge snapshots once, compute the exact first-round spread of *every*
node on them (the NewGreedy step: scipy strong components, then a bitset
DP over the condensation DAG batched per height level — see
:mod:`repro.cascade.reachability`), then run CELF lazy-greedy for the
remaining ``k−1`` picks against the same snapshots.  Because the
snapshots are freshly sampled per ``select`` call (a private
:class:`~repro.cascade.pools.SnapshotPool` seeded from the caller's
generator), the algorithm is randomized — two groups running
MixGreedy independently get overlapping but not identical seed sets, which
is exactly the behaviour the paper's Theorem 1 footnote relies on.

The NewGreedy step is embarrassingly parallel per snapshot, so it is
fanned out through the execution engine as a batch of
:class:`~repro.exec.jobs.SnapshotGainsJob` chunks (fixed chunk size, so the
split — and therefore the result — never depends on the worker count).
The CELF refinement stays in-process: its lazy re-evaluations are
sequential by construction.

``CELFGreedy`` is the classical lazy-greedy of Leskovec et al. (KDD'07),
implemented against the same snapshot oracle but initializing from the
same exact reach-size computation; it is provided as an extra strategy and
for cross-checking MixGreedy (both maximize the same monotone submodular
estimate, so their spreads agree within noise).

When a shared :class:`~repro.cascade.pools.SnapshotPool` is passed to
``select`` (the payoff estimator creates one per ``(draw, group)``), both
algorithms draw their masks, oracle, and initial gains from that pool via
``_select_pooled`` instead of a private one — the work-sharing path
reprolint rule RP008 steers strategy code towards.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.algorithms.base import SeedSelector
from repro.cascade.base import CascadeModel
from repro.cascade.pools import SnapshotPool
from repro.cascade.snapshots import SnapshotOracle
from repro.exec.executor import Executor
from repro.graphs.digraph import DiGraph
from repro.utils.rng import RandomSource, as_rng
from repro.utils.validation import check_positive_int


@dataclass
class CelfTrace:
    """What one CELF run decided: the picks and their accepted marginal gains.

    The trace is the input to :func:`repair_celf` — after an edge delta, the
    repair re-validates each cached pick against the patched oracle and only
    re-runs lazy greedy from the first depth whose decision no longer holds.
    """

    picks: list[int] = field(default_factory=list)
    pick_gains: list[float] = field(default_factory=list)


@dataclass(frozen=True)
class RepairOutcome:
    """Result of :func:`repair_celf`.

    ``repair_depth`` is the first pick depth that had to be recomputed
    (``k`` when every cached pick re-validated); ``evaluations`` counts the
    oracle ``marginal_gain`` calls spent; ``fallback`` is set when the
    evaluation budget ran out before the seed set was complete — the caller
    should then do a full reselection (which, against the same oracle,
    produces the same seeds the repair would have).
    """

    seeds: list[int]
    repair_depth: int
    evaluations: int
    fallback: bool
    trace: CelfTrace


def run_celf(oracle: SnapshotOracle, k: int, gains: list[float]) -> tuple[list[int], CelfTrace]:
    """CELF lazy greedy over *oracle* from per-node initial *gains*.

    Returns the seed set and a :class:`CelfTrace` for later incremental
    repair.  The accepted pick of every iteration is the minimum-id
    maximizer of the true marginal gain at that iteration (heap tuples break
    gain ties by node id, and a pick is only accepted once its gain is
    certified fresh), which is the exactness property :func:`repair_celf`
    relies on.
    """
    heap: list[tuple[float, int, int]] = [
        (-gain, v, 0) for v, gain in enumerate(gains)
    ]
    heapq.heapify(heap)
    trace = CelfTrace()
    reached = oracle.reach([])
    iteration = 0
    while len(trace.picks) < k:
        neg_gain, v, stamp = heapq.heappop(heap)
        if stamp == iteration:
            trace.picks.append(v)
            trace.pick_gains.append(-neg_gain)
            oracle.extend_reach(reached, v)
            iteration += 1
        else:
            fresh = oracle.marginal_gain(v, reached)
            heapq.heappush(heap, (-fresh, v, iteration))
    return list(trace.picks), trace


def repair_celf(
    oracle: SnapshotOracle,
    k: int,
    gains: list[float],
    trace: CelfTrace,
    tolerance: float = 1e-9,
    budget: int | None = None,
) -> RepairOutcome:
    """Repair a cached CELF seed set against a patched snapshot oracle.

    Walks the cached picks in order.  At depth ``d`` the cached pick ``v``
    is kept iff its *fresh* marginal gain still dominates the best possible
    gain of every other unseeded node — bounded by the patched initial
    *gains* via submodularity, ties broken by node id exactly as the CELF
    heap breaks them — and moved from its cached value by at most
    *tolerance*.  A kept pick is therefore provably the pick a cold CELF run
    on the patched oracle would make; the first failing depth re-enters lazy
    greedy with a fresh heap, which reproduces the cold picks from that
    depth onward.  Either way the returned seeds are bit-identical to a full
    cold reselection — repair only changes how much work certifying them
    takes.

    *budget* caps the total ``marginal_gain`` evaluations; when exhausted
    the outcome is flagged ``fallback`` with whatever partial seeds were
    certified, and the caller should reselect from scratch.
    """
    arr = np.asarray(gains, dtype=float)
    n = arr.shape[0]
    # Top-(k+1) candidates by (gain desc, id asc): enough that at every
    # depth at least one candidate is neither the cached pick nor seeded,
    # giving the tightest available bound on "the best other node".
    order = [int(u) for u in np.lexsort((np.arange(n), -arr))[: k + 1]]
    evaluations = 0
    trace_out = CelfTrace()
    reached = oracle.reach([])
    depth = 0
    exhausted = False
    while depth < min(k, len(trace.picks)):
        v = trace.picks[depth]
        if budget is not None and evaluations >= budget:
            exhausted = True
            break
        fresh = oracle.marginal_gain(v, reached)
        evaluations += 1
        seeded = set(trace_out.picks)
        best_other = next(u for u in order if u != v and u not in seeded)
        bound = float(arr[best_other])
        dominant = fresh > bound or (fresh == bound and v < best_other)
        if not dominant or abs(fresh - trace.pick_gains[depth]) > tolerance:
            break
        trace_out.picks.append(v)
        trace_out.pick_gains.append(fresh)
        oracle.extend_reach(reached, v)
        depth += 1

    repair_depth = depth
    if exhausted or len(trace_out.picks) >= k:
        return RepairOutcome(
            seeds=list(trace_out.picks),
            repair_depth=repair_depth,
            evaluations=evaluations,
            fallback=exhausted,
            trace=trace_out,
        )

    # Re-run lazy greedy from the failing depth: a fresh heap of initial
    # gains (stamp -1 == always stale) over unseeded nodes.  The accepted
    # picks depend only on the reached state, not the heap's history, so
    # this continuation equals the cold run's picks from this depth on.
    seeded = set(trace_out.picks)
    heap: list[tuple[float, int, int]] = [
        (-float(arr[v]), v, -1) for v in range(n) if v not in seeded
    ]
    heapq.heapify(heap)
    iteration = len(trace_out.picks)
    while len(trace_out.picks) < k:
        neg_gain, v, stamp = heapq.heappop(heap)
        if stamp == iteration:
            trace_out.picks.append(v)
            trace_out.pick_gains.append(-neg_gain)
            oracle.extend_reach(reached, v)
            iteration += 1
            continue
        if budget is not None and evaluations >= budget:
            exhausted = True
            break
        fresh = oracle.marginal_gain(v, reached)
        evaluations += 1
        heapq.heappush(heap, (-fresh, v, iteration))
    return RepairOutcome(
        seeds=list(trace_out.picks),
        repair_depth=repair_depth,
        evaluations=evaluations,
        fallback=exhausted,
        trace=trace_out,
    )


class _SnapshotGreedyBase(SeedSelector):
    """Shared CELF machinery over a live-edge snapshot oracle."""

    uses_snapshots: ClassVar[bool] = True

    def __init__(
        self,
        model: CascadeModel,
        num_snapshots: int = 100,
        executor: Executor | None = None,
    ) -> None:
        self.model = model
        self.num_snapshots = check_positive_int(num_snapshots, "num_snapshots")
        self.executor = executor

    def _select(self, graph: DiGraph, k: int, rng: RandomSource = None) -> list[int]:
        # Without a shared pool each select call must stay independently
        # randomized (the Theorem 1 footnote behaviour): a private pool
        # seeded from the caller's generator.
        generator = as_rng(rng)
        pool = SnapshotPool(graph)
        pool.token(generator)
        return self._select_pooled(graph, k, generator, pool)

    def _select_pooled(
        self,
        graph: DiGraph,
        k: int,
        rng: np.random.Generator,
        pool: SnapshotPool,
    ) -> list[int]:
        """Select against the group's shared masks and shared initial gains."""
        k = self._check_budget(graph, k)
        oracle = pool.oracle(self.model, self.num_snapshots)
        gains = pool.initial_gains(self.model, self.num_snapshots, self.executor)
        return self._run_celf(k, oracle, gains)

    def _run_celf(
        self, k: int, oracle: SnapshotOracle, gains: list[float]
    ) -> list[int]:
        seeds, _ = run_celf(oracle, k, gains)
        return seeds


class MixGreedy(_SnapshotGreedyBase):
    """MixGreedy of Chen et al. — NewGreedy first round, CELF afterwards.

    The paper's strategy labels follow the cascade model: ``mgic`` with
    :class:`~repro.cascade.ic.IndependentCascade`, ``mgwc`` with
    :class:`~repro.cascade.wc.WeightedCascade`.
    """

    def __init__(
        self,
        model: CascadeModel,
        num_snapshots: int = 100,
        executor: Executor | None = None,
    ) -> None:
        super().__init__(model, num_snapshots, executor)
        self.name = f"mg{model.name}"


class CELFGreedy(_SnapshotGreedyBase):
    """Classical CELF lazy greedy against the same snapshot oracle.

    The first-pick gains of CELF are the singleton spreads — identical
    integers to the NewGreedy reach sizes — so it shares the batched
    initial-gains computation and differs from MixGreedy only in name
    (both then run the same lazy refinement).
    """

    def __init__(
        self,
        model: CascadeModel,
        num_snapshots: int = 100,
        executor: Executor | None = None,
    ) -> None:
        super().__init__(model, num_snapshots, executor)
        self.name = f"celf{model.name}"
