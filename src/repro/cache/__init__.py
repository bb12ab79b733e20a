"""Work-sharing cache: keyed memos for seed selections and blocking runs.

Parameter sweeps (vary ``rounds``, vary ``r``, vary tie-break) repeat the
same seed selections over and over — the selection inputs (graph, strategy
parameters, budget, RNG state) don't change when only simulation-side knobs
do.  This package memoizes those computations behind content-derived keys:

* :func:`selection_memo` — ``SeedSelector.select`` results, keyed on graph
  fingerprint, selector params, ``k``, RNG state, and (for pooled
  snapshot strategies) the pool token.
* :func:`blocking_memo` — ``select_blockers`` results, keyed analogously.
* :func:`shard_memo` — per-shard stable snapshot samples, keyed on the
  shard's *structural hash* (:func:`repro.cache.keys.shard_hashes`) rather
  than the whole-graph fingerprint, so entries survive edge deltas that
  leave their shard untouched.

Hits restore the exact post-computation RNG state into the caller's
generator, so a warm cache is bit-identical to a cold one — downstream
draws continue from the same stream position either way.  The whole layer
is switched off with ``REPRO_CACHE=off``; see :mod:`repro.cache.memo` for
the metrics (``cache.hits`` / ``cache.misses`` / ``cache.evictions`` /
``cache.bytes``) and journal events.

**Shard-scoped invalidation.**  :func:`invalidate_for_delta` is the one
sanctioned entry point for dropping cache state after a graph edit: it
computes the delta's dirty shards, drops the parent graph's selection and
blocking entries, and drops only the *dirty* shards' snapshot samples —
clean shards keep serving the patched graph, because their structural hash
(and therefore their memo key) is unchanged.  Calling
``Memo.invalidate(graph.fingerprint)`` directly outside this helper is
flagged by reprolint rule RP017 (``no-whole-graph-invalidation``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.cache.keys import (
    EXCLUDED_ATTRS,
    freeze,
    params_token,
    rng_state,
    rng_token,
    set_rng_state,
    shard_hashes,
)
from repro.cache.memo import CACHE_ENV_VAR, Memo, cache_enabled
from repro.obs.metrics import counter
from repro.utils.shards import DEFAULT_NUM_SHARDS, touched_shards

if TYPE_CHECKING:
    from repro.graphs.delta import AppliedDelta

__all__ = [
    "CACHE_ENV_VAR",
    "EXCLUDED_ATTRS",
    "DeltaInvalidation",
    "Memo",
    "blocking_memo",
    "cache_enabled",
    "clear_caches",
    "freeze",
    "invalidate_for_delta",
    "params_token",
    "rng_state",
    "rng_token",
    "selection_memo",
    "set_rng_state",
    "shard_hashes",
    "shard_memo",
]

_SELECTION_MEMO = Memo("selection", capacity=4096)
_BLOCKING_MEMO = Memo("blocking", capacity=512)
_SHARD_MEMO = Memo("shards", capacity=8192)

_SHARD_INVALIDATIONS = counter("cache.shard_invalidations")


def selection_memo() -> Memo:
    """The shared memo for ``SeedSelector.select`` results."""
    return _SELECTION_MEMO


def blocking_memo() -> Memo:
    """The shared memo for ``select_blockers`` results."""
    return _BLOCKING_MEMO


def shard_memo() -> Memo:
    """The shared memo for per-shard stable snapshot samples.

    Keys lead with the shard's structural hash
    (:func:`repro.cache.keys.shard_hashes`), so the entries are
    content-addressed: a patched graph re-uses every clean shard's sample
    verbatim, and an entry can never serve a graph whose shard topology
    (or edge probabilities — the key also digests them) differs.
    """
    return _SHARD_MEMO


def clear_caches() -> None:
    """Explicitly invalidate every shared memo."""
    _SELECTION_MEMO.clear()
    _BLOCKING_MEMO.clear()
    _SHARD_MEMO.clear()


@dataclass(frozen=True)
class DeltaInvalidation:
    """What :func:`invalidate_for_delta` dropped."""

    dirty_shards: tuple[int, ...]
    num_shards: int
    selection_dropped: int
    blocking_dropped: int
    shard_entries_dropped: int


def invalidate_for_delta(
    applied: "AppliedDelta", num_shards: int = DEFAULT_NUM_SHARDS
) -> DeltaInvalidation:
    """Shard-scoped cache invalidation for one applied edge delta.

    Drops the parent graph's selection/blocking entries (their keys bake in
    the whole-graph fingerprint, which the delta changed) and the snapshot
    samples of exactly the shards whose node ranges the delta touched.
    Clean shards' samples stay resident and are picked up by the patched
    graph through their unchanged structural hash — that reuse is the
    warm-pool splice.  Increments ``cache.shard_invalidations`` by the
    dirty-shard count.

    Note on WC-style degree-coupled models: a delta can change edge
    probabilities in shards it does not topologically touch (in-degree of a
    touched destination feeds ``1/in_degree`` weights of edges stored with
    *their* sources).  Those stale entries are left resident but can never
    be served — shard-memo keys digest the edge probabilities — and age out
    FIFO.
    """
    parent = applied.parent
    dirty = touched_shards(
        applied.touched_nodes, parent.num_nodes, num_shards
    )
    selection_dropped = _SELECTION_MEMO.invalidate(parent.fingerprint)
    blocking_dropped = _BLOCKING_MEMO.invalidate(parent.fingerprint)
    hashes = shard_hashes(parent, num_shards)
    shard_entries_dropped = sum(
        _SHARD_MEMO.invalidate(hashes[s]) for s in dirty
    )
    if dirty:
        _SHARD_INVALIDATIONS.inc(len(dirty))
    return DeltaInvalidation(
        dirty_shards=dirty,
        num_shards=num_shards,
        selection_dropped=selection_dropped,
        blocking_dropped=blocking_dropped,
        shard_entries_dropped=shard_entries_dropped,
    )
