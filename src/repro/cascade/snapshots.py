"""Live-edge snapshots and the spread oracle built on them.

Under any triggering model (IC, WC, LT), the expected influence spread of a
seed set equals its expected reachability over random live-edge subgraphs
(Kempe et al.'s possible-world equivalence).  MixGreedy — the ``NewGreedy``
improvement of Chen, Wang & Yang (KDD'09) combined with CELF — exploits this
by sampling the subgraphs once and evaluating every candidate seed against
the same sample, which both slashes simulation cost and removes evaluation
noise between candidates.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.cascade.base import CascadeModel
from repro.cascade.kernels import (
    absorb_reachable,
    count_new_reachable,
    reachable_mask_batch,
)
from repro.errors import CascadeError
from repro.graphs.digraph import DiGraph
from repro.utils.bitset import is_packed, num_words, pack_bits, unpack_bits
from repro.utils.rng import as_rng
from repro.utils.shards import DEFAULT_NUM_SHARDS, shard_bounds

if TYPE_CHECKING:
    from repro.cache.memo import Memo


# splitmix64 finalizer constants (Steele et al.); the avalanche mixer behind
# the per-edge hash draws of the sampler.
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_U64 = np.uint64


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, vectorized over uint64 (wrapping arithmetic)."""
    x = x ^ (x >> _U64(30))
    x = x * _MIX_1
    x = x ^ (x >> _U64(27))
    x = x * _MIX_2
    return x ^ (x >> _U64(31))


def stable_edge_draws(
    seed: int, index: int, src: np.ndarray, dst: np.ndarray
) -> np.ndarray:
    """Uniform [0, 1) draw per edge, a pure function of ``(seed, index, u, v)``.

    Unlike a sequential generator stream, the draw of edge ``(u, v)`` in
    snapshot *index* does not depend on which other edges exist — so after
    an edge delta, every surviving edge keeps exactly the draw it had, and
    a resampled shard is bit-identical to the same shard sampled cold on
    the patched graph.  The 53 high bits of a splitmix64-mixed hash give
    the float, matching the precision of ``Generator.random``.
    """
    with np.errstate(over="ignore"):
        base = _mix64(np.asarray(_U64(seed % (1 << 64)) + _GOLDEN * _U64(index)))
        h = _mix64(src.astype(np.uint64) * _GOLDEN ^ base)
        h = _mix64(h ^ dst.astype(np.uint64) * _MIX_2)
    return (h >> _U64(11)).astype(np.float64) * (2.0**-53)


def _probs_digest(probs_slice: np.ndarray) -> int:
    digest = hashlib.blake2b(
        np.ascontiguousarray(probs_slice).tobytes(), digest_size=8
    )
    return int.from_bytes(digest.digest(), "big")


def sample_snapshots(
    graph: DiGraph,
    model: CascadeModel,
    count: int,
    seed: int,
    num_shards: int = DEFAULT_NUM_SHARDS,
    memo: "Memo | None" = None,
) -> list[np.ndarray]:
    """Draw snapshots ``0 .. count`` of *model* on *graph* as packed bitsets.

    The one live-edge sampler.  For independent-per-edge models (IC, WC)
    mask bits come from :func:`stable_edge_draws`, so each edge's bit is a
    pure function of ``(seed, snapshot index, u, v)`` and its probability.
    That makes the sample *delta-stable*: after an edge delta, the
    structural node-range shards (see :mod:`repro.utils.shards`) the delta
    left untouched produce byte-identical slices, which the optional
    *memo* (keyed on shard structural hash + probability digest + seed +
    index) turns into the warm-pool splice — clean shards are served from
    cache, dirty shards are recomputed, and the resulting masks are
    bit-identical to a cold sample on the patched graph.  Without a memo
    all edges are drawn in one pass per snapshot (same bits).

    Models that override ``sample_live_mask`` with coupled draws (LT's
    triggering sets) cannot be decomposed per edge; their snapshots come
    from one sequential generator stream seeded by *seed* instead, and
    *num_shards* / *memo* do not apply.
    """
    if count <= 0:
        raise CascadeError(f"snapshot count must be positive, got {count}")
    if type(model).sample_live_mask is not CascadeModel.sample_live_mask:
        generator = as_rng(seed)
        return [
            pack_bits(model.sample_live_mask(graph, generator))
            for _ in range(count)
        ]

    probs = model.edge_probabilities(graph)
    if memo is None:
        src, dst = graph.edge_array()
        return [
            pack_bits(stable_edge_draws(seed, index, src, dst) < probs)
            for index in range(count)
        ]

    # Local import: repro.cache imports repro.utils, never repro.cascade,
    # so the runtime edge cascade -> cache is acyclic (pools does the same).
    from repro.cache.keys import shard_hashes

    n, m = graph.num_nodes, graph.num_edges
    bounds = shard_bounds(n, num_shards)
    indptr, indices, eids = graph.out_indptr, graph.out_indices, graph.edge_ids
    hashes = shard_hashes(graph, num_shards)

    # Per-shard CSR slices of the non-empty shards: source ids,
    # destinations, stable edge ids, the probability slice (edge-id indexed
    # probabilities gathered to CSR positions) and the shard's memo-key
    # prefix.  Built once and shared by every snapshot.
    shards: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, tuple[int, int]]] = []
    for s in range(num_shards):
        lo, hi = int(bounds[s]), int(bounds[s + 1])
        p0, p1 = int(indptr[lo]), int(indptr[hi])
        if p0 == p1:
            continue
        degrees = np.asarray(indptr[lo : hi + 1] - indptr[lo])
        src = np.repeat(np.arange(lo, hi, dtype=np.int64), np.diff(degrees))
        dst = np.asarray(indices[p0:p1], dtype=np.int64)
        shard_eids = np.asarray(eids[p0:p1])
        shard_probs = probs[shard_eids]
        prefix = (hashes[s], _probs_digest(shard_probs))
        shards.append((src, dst, shard_eids, shard_probs, prefix))

    masks: list[np.ndarray] = []
    for index in range(count):
        mask = np.zeros(m, dtype=bool)
        for src, dst, shard_eids, shard_probs, (shard_hash, digest) in shards:
            key = ("stable", shard_hash, digest, int(seed), index)
            stored = memo.get(key)
            if stored is not None:
                bits = unpack_bits(stored[0], shard_eids.size)
            else:
                bits = stable_edge_draws(seed, index, src, dst) < shard_probs
                packed_bits = pack_bits(bits)
                memo.put(key, (packed_bits,), nbytes=packed_bits.nbytes)
            mask[shard_eids] = bits
        masks.append(pack_bits(mask))
    return masks


class SnapshotOracle:
    """Estimates spreads by reachability over a fixed set of live-edge masks.

    The oracle supports the incremental pattern greedy algorithms need:
    :meth:`reach` materializes the per-snapshot reached sets of the current
    seed set, and :meth:`marginal_gain` counts only *newly* reachable nodes,
    stopping its BFS at already-reached nodes (in a live-edge world,
    everything reachable from a reached node is itself already reached).

    Masks may be boolean-style (length *m*) or packed bitsets
    (:mod:`repro.utils.bitset`); a homogeneous packed sample is kept packed
    end to end — the stacked matrix stores one bit per edge — and every
    oracle result is bit-identical across the two representations.
    """

    def __init__(
        self,
        graph: DiGraph,
        masks: Sequence[np.ndarray],
    ) -> None:
        if not masks:
            raise CascadeError("at least one snapshot mask is required")
        packed_words = num_words(graph.num_edges)
        all_packed = all(is_packed(np.asarray(mask)) for mask in masks)
        for mask in masks:
            expected = (packed_words,) if is_packed(np.asarray(mask)) else (
                graph.num_edges,
            )
            if mask.shape != expected:
                raise CascadeError(
                    f"mask shape {mask.shape} does not match edge count "
                    f"{graph.num_edges}"
                )
        self.graph = graph
        self.masks = list(masks)
        # Stacked (snapshots, edges-or-words) view: spread/reach sweep all
        # snapshots in one reachable_mask_batch call instead of a per-mask
        # loop.  A fully packed sample stays packed (uint64 rows); mixed
        # samples are normalized to boolean rows.
        if all_packed:
            self.mask_matrix = np.stack(self.masks)
        else:
            self.mask_matrix = np.stack(
                [
                    unpack_bits(mask, graph.num_edges)
                    if is_packed(np.asarray(mask))
                    else np.asarray(mask, dtype=bool)
                    for mask in self.masks
                ]
            )

    @property
    def num_snapshots(self) -> int:
        return len(self.masks)

    def spread(self, seeds: Sequence[int]) -> float:
        """Average number of nodes reachable from *seeds* over all snapshots."""
        visited = reachable_mask_batch(self.graph, seeds, self.mask_matrix)
        return int(visited.sum()) / len(self.masks)

    def reach(self, seeds: Sequence[int]) -> list[np.ndarray]:
        """Per-snapshot boolean reached arrays for *seeds*."""
        visited = reachable_mask_batch(self.graph, seeds, self.mask_matrix)
        return [visited[s] for s in range(visited.shape[0])]

    def extend_reach(self, reached: list[np.ndarray], new_seed: int) -> None:
        """Mutate *reached* in place to include everything reachable from *new_seed*."""
        for mask, already in zip(self.masks, reached):
            absorb_reachable(self.graph, mask, new_seed, already)

    def marginal_gain(self, candidate: int, reached: list[np.ndarray]) -> float:
        """Average count of nodes newly reached by adding *candidate*."""
        total = 0
        for mask, already in zip(self.masks, reached):
            total += count_new_reachable(self.graph, mask, candidate, already)
        return total / len(self.masks)
