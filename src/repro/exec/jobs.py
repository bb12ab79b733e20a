"""Simulation job types: the unit of work the execution engine schedules.

A *job* is a self-contained, picklable description of a batch-able piece of
Monte-Carlo work: everything it needs (graph, model, seed sets, round
count) travels with it, and :meth:`~SimulationJob.run` produces a tuple of
:class:`~repro.cascade.estimate.SpreadEstimate` — one per quantity the job
estimates.  Self-containment is what lets the same job object execute
unchanged on the serial, thread, and process backends.

**Graph payloads.**  Every job's ``graph`` field accepts either an
in-memory :class:`~repro.graphs.digraph.DiGraph` or a
:class:`~repro.graphs.store.GraphRef` — an O(1) handle to a stored,
memory-mapped graph.  Jobs resolve the ref at the top of ``run`` through
the per-process handle cache (:func:`repro.graphs.store.resolve_graph`),
so on the process backend a ref-carrying payload pickles in hundreds of
bytes where the raw CSR arrays would cost O(n+m) — the difference between
hep-scale and wiki-Talk-scale batches.  Project-lint rule RP016 flags job
classes whose graph fields do not admit refs.

Concrete jobs covering the σ(·) quantities of the paper:

* :class:`SpreadJob` — the non-competitive spread ``σ0(S)`` of one seed
  set (a 1-tuple of estimates);
* :class:`CompetitiveJob` — the per-group spreads ``(σ1, .., σr)`` of a
  full seed-set profile under the competitive engine;
* :class:`SnapshotGainsJob` — exact per-node reach sizes over a chunk of
  pre-sampled live-edge masks.

``CompetitiveJob`` optionally runs under **common random numbers**
(``crn_base``): round *i* replays the stream seeded
``crn_base + crn_step·i`` instead of drawing from the job's spawned
generator, so candidate comparisons inside greedy loops (follower best
response, blocker selection) are paired across jobs.

Other modules may define their own job types — anything satisfying the
:class:`SimulationJob` protocol (and picklable, for the process backend)
can be submitted to an :class:`~repro.exec.executor.Executor`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from repro.cascade.base import CascadeModel
from repro.cascade.competitive import ClaimRule, CompetitiveDiffusion, TieBreakRule
from repro.cascade.estimate import SpreadEstimate
from repro.cascade.reachability import all_reach_sizes
from repro.errors import CascadeError
from repro.graphs.digraph import DiGraph
from repro.graphs.store import GraphRef, resolve_graph
from repro.utils.rng import as_rng

#: Modulus keeping derived common-random-number seeds inside numpy's range.
_SEED_MODULUS = 2**63 - 1

#: What a job's ``graph`` field holds: the graph itself, or an O(1) ref
#: resolved worker-side.  Both expose ``num_nodes`` without I/O.
GraphPayload = DiGraph | GraphRef


@runtime_checkable
class SimulationJob(Protocol):
    """Anything the execution engine can schedule.

    ``run`` receives a dedicated :class:`numpy.random.Generator` (spawned
    from the batch's root seed sequence — see
    :func:`repro.utils.rng.spawn_seed_sequences`) and returns one
    :class:`SpreadEstimate` per estimated quantity.  ``num_nodes`` bounds
    every estimate for the opt-in runtime contracts; return ``None`` when
    no graph-derived bound applies.
    """

    def run(self, generator: np.random.Generator) -> tuple[SpreadEstimate, ...]:
        """Execute the job using *generator* for all randomness."""
        ...

    @property
    def num_nodes(self) -> int | None:
        """Upper bound for every estimate's mean, or ``None``."""
        ...


@dataclass(frozen=True)
class SpreadJob:
    """Estimate the non-competitive spread ``σ0(seeds)`` by *rounds* simulations."""

    graph: DiGraph | GraphRef
    model: CascadeModel
    seeds: tuple[int, ...]
    rounds: int

    @property
    def num_nodes(self) -> int | None:
        return self.graph.num_nodes

    def run(self, generator: np.random.Generator) -> tuple[SpreadEstimate, ...]:
        graph = resolve_graph(self.graph)
        values = np.empty(self.rounds, dtype=float)
        for i in range(self.rounds):
            values[i] = self.model.spread_once(graph, self.seeds, generator)
        return (SpreadEstimate.from_values(values),)


@dataclass(frozen=True)
class CompetitiveJob:
    """Estimate per-group competitive spreads for one seed-set profile.

    Each of the *rounds* simulations independently re-resolves seed
    collisions (initiator assignment) and re-runs the diffusion, matching
    the paper's expectation over both sources of randomness.

    When ``crn_base`` is set, round *i* draws from a fresh stream seeded
    ``(crn_base + crn_step·i) mod 2^63-1`` — the common-random-numbers
    pairing used by the greedy candidate loops.
    """

    graph: DiGraph | GraphRef
    model: CascadeModel
    seed_sets: tuple[tuple[int, ...], ...]
    rounds: int
    tie_break: TieBreakRule = TieBreakRule.UNIFORM
    claim_rule: ClaimRule = ClaimRule.PROPORTIONAL
    crn_base: int | None = None
    crn_step: int = 7919

    @property
    def num_nodes(self) -> int | None:
        return self.graph.num_nodes

    def run(self, generator: np.random.Generator) -> tuple[SpreadEstimate, ...]:
        graph = resolve_graph(self.graph)
        engine = CompetitiveDiffusion(graph, self.model, self.tie_break, self.claim_rule)
        profile = [list(seeds) for seeds in self.seed_sets]
        values = np.empty((len(profile), self.rounds), dtype=float)
        for i in range(self.rounds):
            if self.crn_base is None:
                stream = generator
            else:
                stream = as_rng((self.crn_base + self.crn_step * i) % _SEED_MODULUS)
            outcome = engine.run(profile, stream)
            values[:, i] = outcome.spreads()
        return tuple(
            SpreadEstimate.from_values(values[j]) for j in range(len(profile))
        )


@dataclass(frozen=True)
class SnapshotGainsJob:
    """Exact per-node reach sizes over a chunk of live-edge snapshots.

    Used by the snapshot-greedy algorithms (MixGreedy / CELF) to fan the
    NewGreedy step out across workers: each job runs
    :func:`~repro.cascade.reachability.all_reach_sizes` on its chunk of
    masks into one ``(masks, nodes)`` array and returns one estimate
    **per node** (samples = masks in the chunk), built from one
    column-wise ``mean`` / ``std(ddof=1)`` (std 0.0 for a one-mask
    chunk).  Pooling the chunk estimates with
    :meth:`SpreadEstimate.__add__` recovers the average reach over the
    full snapshot sample; reach sizes are integers, so the chunk means
    and the pooled means are exact regardless of how masks were chunked.

    The job draws no randomness — masks are sampled by the caller's
    :class:`~repro.cascade.pools.SnapshotPool`, which also memoizes the
    pooled result of this batch, so the snapshot sample is identical no
    matter which backend evaluates it.  Masks may be boolean-style or
    packed bitsets.
    """

    graph: DiGraph | GraphRef
    masks: tuple[np.ndarray, ...]

    @property
    def num_nodes(self) -> int | None:
        return self.graph.num_nodes

    def run(self, generator: np.random.Generator) -> tuple[SpreadEstimate, ...]:
        samples = len(self.masks)
        if samples == 0:
            raise CascadeError("cannot build an estimate from zero samples")
        graph = resolve_graph(self.graph)
        values = np.empty((samples, graph.num_nodes), dtype=float)
        for i, mask in enumerate(self.masks):
            values[i] = all_reach_sizes(graph, mask)
        means = values.mean(axis=0).tolist()
        stds = values.std(axis=0, ddof=1).tolist() if samples > 1 else [0.0] * len(means)
        return tuple(
            SpreadEstimate(mean=mean, std=std, samples=samples)
            for mean, std in zip(means, stds)
        )
