"""Shared live-edge snapshot pools: sample once, serve every strategy.

Inside one payoff-table estimation, every snapshot-greedy strategy
(MixGreedy, CELFGreedy) of a given ``(draw, group)`` pair used to resample
its own live-edge pool and recompute the batched NewGreedy initial gains —
the dominant cost of selection — even when they share the same diffusion
model.  A :class:`SnapshotPool` is handed to all ``z`` strategies of a
group and memoizes, per ``(model, count)``:

* the sampled masks (:meth:`masks`),
* the :class:`~repro.cascade.snapshots.SnapshotOracle` built on them, per
  kernel (:meth:`oracle`),
* the batched initial gains (:meth:`initial_gains`, shared between
  MixGreedy and CELFGreedy): per-node mean reach sizes from
  :func:`snapshot_initial_gains`.

Pools store masks as **packed bitsets** (one bit per edge — see
:mod:`repro.utils.bitset`), so a resident pool costs m/8 bytes per
snapshot.  Masks come from :func:`~repro.cascade.snapshots.sample_snapshots`
— per-edge hash draws for IC/WC, which make the sample delta-stable:
re-creating a pool with the same identity seed on a patched graph
reproduces every clean structural shard bit for bit.  Pools whose seed is
pinned at construction (``seed=``, as the incremental session does) read
and fill the shard memo when caching is on, which turns that into the
warm-pool splice; pools seeded by :meth:`token` skip it, since their
random identity never recurs on another graph version.

**Randomization contract (Theorem 1).**  The paper's mixed-equilibrium
argument needs identical strategies played by different groups to produce
*distinct* (independently randomized) seed sets, so pools are created per
``(draw, group)`` and never shared across groups.  A pool draws exactly one
child seed from the caller's generator on first :meth:`token` use; mask
content is then derived from that seed plus a stable digest of the request
key, independent of request order — a selection-cache hit that skips one
strategy's pool access therefore never perturbs what another strategy
samples.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.cache import cache_enabled, params_token, shard_memo
from repro.cascade.base import CascadeModel
from repro.cascade.kernels import resolve_kernel
from repro.cascade.snapshots import SnapshotOracle, sample_snapshots
from repro.errors import CascadeError
from repro.exec.executor import Executor, resolve_executor
from repro.exec.jobs import SnapshotGainsJob
from repro.graphs.digraph import DiGraph
from repro.graphs.store import maybe_ref
from repro.obs.metrics import counter
from repro.utils.bitset import packed_bytes
from repro.utils.rng import RandomSource, as_rng
from repro.utils.shards import DEFAULT_NUM_SHARDS

__all__ = [
    "MASKS_PER_JOB",
    "SnapshotPool",
    "snapshot_initial_gains",
]

#: Snapshots per gains job: small enough to parallelize, big enough to
#: amortize per-job overhead.  Fixed (not derived from the worker count) so
#: chunking — and therefore pooled estimates — never depends on the backend.
MASKS_PER_JOB = 8

_POOL_SAMPLES = counter("cascade.pool_samples")
_POOL_SHARED = counter("cascade.pool_shared")
_POOL_MASK_BYTES = counter("cascade.pool_mask_bytes")


def snapshot_initial_gains(
    graph: DiGraph,
    masks: list[np.ndarray],
    executor: Executor | str | None = None,
) -> list[float]:
    """Batched per-node NewGreedy gains over *masks* (one chunk per job).

    This is the all-nodes reachability pass both MixGreedy and CELFGreedy
    start from (:func:`~repro.cascade.reachability.all_reach_sizes` per
    mask); it lives here so a :class:`SnapshotPool` can compute it once per
    ``(model, count)`` and serve every consumer.  Reach sizes are integers,
    so the pooled means do not depend on how masks are chunked.  The
    graph payload is shrunk to a :class:`~repro.graphs.store.GraphRef`
    when a default graph store is configured (see
    :func:`repro.graphs.store.maybe_ref`).
    """
    payload = maybe_ref(graph)
    jobs = [
        SnapshotGainsJob(graph=payload, masks=tuple(masks[i : i + MASKS_PER_JOB]))
        for i in range(0, len(masks), MASKS_PER_JOB)
    ]
    per_chunk = resolve_executor(executor).estimates(jobs)
    pooled = list(per_chunk[0])
    for chunk in per_chunk[1:]:
        pooled = [prev + new for prev, new in zip(pooled, chunk)]
    return [est.mean for est in pooled]


class SnapshotPool:
    """Memoized live-edge sample shared by the strategies of one group."""

    def __init__(
        self,
        graph: DiGraph,
        seed: int | None = None,
        struct_shards: int = DEFAULT_NUM_SHARDS,
    ) -> None:
        # Pass ``seed=`` to pin the pool identity — the incremental session
        # does, so its patched pools splice to the cold sample — otherwise
        # token(rng) draws one.
        self.graph = graph
        self._pinned = seed is not None
        self.struct_shards = int(struct_shards)
        if self.struct_shards <= 0:
            raise CascadeError(
                f"structural shard count must be positive, got {self.struct_shards}"
            )
        self._seed: int | None = None if seed is None else int(seed)
        self._masks: dict[tuple[object, int], list[np.ndarray]] = {}
        self._oracles: dict[tuple[object, int, str], SnapshotOracle] = {}
        self._gains: dict[tuple[object, int], list[float]] = {}

    def token(self, rng: RandomSource = None) -> int:
        """The pool's identity seed; drawn from *rng* on first use.

        The single draw happens here — and only here — so the caller's
        generator advances identically whether later pool accesses are
        served cold or skipped by a selection-cache hit.  The token also
        feeds the selection-cache key: two pools seeded differently never
        collide.
        """
        if self._seed is None:
            generator = as_rng(rng)
            self._seed = int(generator.integers(0, 2**62))
        return self._seed

    @property
    def seeded(self) -> bool:
        return self._seed is not None

    def _request_key(self, model: CascadeModel, count: int) -> tuple[object, int]:
        return (params_token(model), int(count))

    def _child_seed(self, key: tuple[object, ...]) -> int:
        if self._seed is None:
            raise CascadeError("snapshot pool is unseeded; call token(rng) first")
        digest = hashlib.blake2b(
            repr(key).encode(), digest_size=8, key=str(self._seed).encode()
        )
        return int.from_bytes(digest.digest(), "big") >> 2

    def masks(self, model: CascadeModel, count: int) -> list[np.ndarray]:
        """The shared packed live-edge masks for ``(model, count)``; sampled once."""
        key = self._request_key(model, count)
        masks = self._masks.get(key)
        if masks is None:
            masks = sample_snapshots(
                self.graph,
                model,
                count,
                self._child_seed(key),
                num_shards=self.struct_shards,
                memo=shard_memo() if self._pinned and cache_enabled() else None,
            )
            self._masks[key] = masks
            _POOL_SAMPLES.inc()
            _POOL_MASK_BYTES.inc(packed_bytes(masks))
        else:
            _POOL_SHARED.inc()
        return masks

    def oracle(
        self, model: CascadeModel, count: int, kernel: str | None = None
    ) -> SnapshotOracle:
        """A spread oracle over the shared masks; one instance per kernel."""
        resolved = resolve_kernel(kernel)
        key = (*self._request_key(model, count), resolved)
        oracle = self._oracles.get(key)
        if oracle is None:
            oracle = SnapshotOracle(self.graph, self.masks(model, count), kernel=resolved)
            self._oracles[key] = oracle
        return oracle

    def initial_gains(
        self,
        model: CascadeModel,
        count: int,
        executor: Executor | str | None = None,
    ) -> list[float]:
        """The shared batched NewGreedy gains for ``(model, count)``."""
        key = self._request_key(model, count)
        gains = self._gains.get(key)
        if gains is None:
            gains = snapshot_initial_gains(
                self.graph, self.masks(model, count), executor
            )
            self._gains[key] = gains
        return gains
