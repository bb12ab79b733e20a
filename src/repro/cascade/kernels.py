"""Cascade kernels: the inner loops behind every simulation and snapshot sweep.

Each layer has exactly one implementation, the one that measured fastest
on the workloads that run it:

**Diffusion** (:func:`run_competitive_cascade`,
:func:`run_competitive_threshold`, :func:`simulate_cascade`,
:func:`simulate_threshold`) is a frontier-batched numpy vectorization.  Each
round expands *all* frontier out-edges at once with ``np.repeat``/fancy
indexing over the CSR arrays, reduces per-target attempt counts and the
survival product ``Π(1 - p_e)`` with segmented reductions
(``np.multiply.reduceat`` / ``np.bincount``), and resolves activation plus
PROPORTIONAL / WINNER_TAKE_ALL claims for the whole round in one vectorized
pass.

**Snapshot sweeps** (:func:`reachable_mask`, :func:`reachable_mask_batch`,
:func:`count_new_reachable`, :func:`absorb_reachable`) are python frontier
walks.  CELF's marginal-gain sweeps stop at already-reached nodes and touch
only a few nodes each, which a per-call numpy setup cannot amortize.

The four ``_…_python`` functions are the explicit one-node-one-edge
reference walks of the diffusion layer, easy to audit against Section 3.2
of the paper.  Only the equivalence tests and
``benchmarks/bench_kernel_speedup.py`` call them.

**Determinism contract.**  Every random variate is drawn from the caller's
:class:`numpy.random.Generator`, so for a fixed master seed a simulation is
bit-identical across backends and worker counts (the SeedSequence
discipline of :mod:`repro.exec`).  The reference walks consume randomness
in a different order, so they are statistically equivalent to the numpy
kernel rather than bit-identical: per-node activation and claim
probabilities match exactly, only the sample paths differ
(``tests/test_kernel_equivalence.py``).  The sweeps draw no randomness.

Per-node Python diffusion loops outside this module are flagged by
reprolint rule RP007.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence

import numpy as np

from repro.errors import CascadeError, GraphError
from repro.graphs.digraph import DiGraph
from repro.obs.metrics import histogram
from repro.utils.bitset import is_packed, lookup_bits, num_words

# Cached instrument handle (RP004).
_FRONTIER_SIZE = histogram("cascade.frontier_size")


class ClaimRule(enum.Enum):
    """How an activated node is attributed to one of the attacking groups."""

    #: Probability ``t_j / Σt_j`` (the paper's rule).
    PROPORTIONAL = "proportional"
    #: The group with the most attempts wins; ties broken uniformly.
    WINNER_TAKE_ALL = "winner_take_all"


def claim_group(
    weights: np.ndarray,
    claim_rule: ClaimRule,
    generator: np.random.Generator,
) -> int:
    """Pick the claiming group for one node given per-group attempt weights."""
    total = weights.sum()
    if claim_rule is ClaimRule.PROPORTIONAL:
        return int(generator.choice(weights.shape[0], p=weights / total))
    best = weights.max()
    winners = np.flatnonzero(weights == best)
    return int(winners[generator.integers(0, winners.shape[0])])


# ---------------------------------------------------------------------- #
# CSR frontier expansion (shared by every numpy kernel)
# ---------------------------------------------------------------------- #


def _frontier_edges(
    graph: DiGraph, frontier: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All out-edges of *frontier* at once: (targets, edge ids, out-degrees).

    ``targets``/``eids`` are flat, ordered frontier-node-major; ``degs``
    aligns with *frontier* so callers can ``np.repeat`` per-source values
    onto the edge axis.
    """
    indptr = graph.out_indptr
    starts = indptr[frontier]
    degs = indptr[frontier + 1] - starts
    total = int(degs.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, degs
    ends = np.cumsum(degs)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(ends - degs, degs)
    pos = np.repeat(starts, degs) + offsets
    targets = graph.out_indices[pos].astype(np.int64)
    eids = graph.edge_ids[pos]
    return targets, eids, degs


def _claim_batch(
    weights: np.ndarray,
    claim_rule: ClaimRule,
    generator: np.random.Generator,
) -> np.ndarray:
    """Vectorized :func:`claim_group` over a ``(nodes, groups)`` weight matrix.

    One uniform draw per node resolves the claim: inverse-CDF over the
    per-node weight rows for PROPORTIONAL, an index into the tied-maximum
    set for WINNER_TAKE_ALL — the same distributions as the scalar path.
    """
    m = weights.shape[0]
    if m == 0:
        return np.empty(0, dtype=np.int64)
    draws = generator.random(m)
    if claim_rule is ClaimRule.PROPORTIONAL:
        cum = np.cumsum(weights, axis=1)
        points = draws * cum[:, -1]
        return np.asarray((points[:, None] < cum).argmax(axis=1), dtype=np.int64)
    best = weights.max(axis=1, keepdims=True)
    wins = np.cumsum(weights == best, axis=1)
    nwin = wins[:, -1]
    pick = np.minimum((draws * nwin).astype(np.int64), nwin - 1)
    return np.asarray((wins > pick[:, None]).argmax(axis=1), dtype=np.int64)


def _initial_owner(
    num_nodes: int, initiators: Sequence[Sequence[int]]
) -> tuple[np.ndarray, np.ndarray]:
    """Ownership array seeded from disjoint initiator sets, plus the frontier."""
    owner = np.full(num_nodes, -1, dtype=np.int64)
    for j, nodes in enumerate(initiators):
        owner[np.asarray(list(nodes), dtype=np.int64)] = j
    return owner, np.flatnonzero(owner >= 0)


# ---------------------------------------------------------------------- #
# competitive cascade path (IC / WC / heterogeneous-probability models)
# ---------------------------------------------------------------------- #


def _competitive_cascade_python(
    graph: DiGraph,
    probs: np.ndarray,
    initiators: Sequence[Sequence[int]],
    claim_rule: ClaimRule,
    generator: np.random.Generator,
) -> tuple[np.ndarray, int, np.ndarray]:
    """Reference walk of :func:`run_competitive_cascade`."""
    r = len(initiators)
    owner = np.full(graph.num_nodes, -1, dtype=np.int64)
    when = np.zeros(graph.num_nodes, dtype=np.int64)
    frontiers: list[list[int]] = []
    for j, nodes in enumerate(initiators):
        for v in nodes:
            owner[v] = j
        frontiers.append(list(nodes))

    rounds = 0
    while any(frontiers):
        rounds += 1
        # attempts[v] = (per-group counts, running product of (1 - p)).
        attempts: dict[int, tuple[np.ndarray, float]] = {}
        for j in range(r):
            for u in frontiers[j]:
                nbrs = graph.out_neighbors(u)
                if nbrs.size == 0:
                    continue
                eids = graph.out_edge_ids(u)
                for v, eid in zip(nbrs, eids):
                    if owner[v] >= 0:
                        continue
                    counts, survive = attempts.get(
                        int(v), (np.zeros(r, dtype=np.int64), 1.0)
                    )
                    counts[j] += 1
                    attempts[int(v)] = (counts, survive * (1.0 - probs[eid]))

        next_frontiers: list[list[int]] = [[] for _ in range(r)]
        for v, (counts, survive) in attempts.items():
            # Combined activation probability: 1 - Π(1 - p_e) over all
            # attempting edges; equals 1 - (1 - p)^T for uniform p,
            # the paper's Section 3.2 formula.
            if generator.random() < 1.0 - survive:
                winner = claim_group(counts.astype(float), claim_rule, generator)
                owner[v] = winner
                when[v] = rounds
                next_frontiers[winner].append(v)
        frontiers = next_frontiers
        _FRONTIER_SIZE.observe(sum(len(f) for f in frontiers))
    return owner, rounds, when


def run_competitive_cascade(
    graph: DiGraph,
    probs: np.ndarray,
    initiators: Sequence[Sequence[int]],
    claim_rule: ClaimRule,
    generator: np.random.Generator,
) -> tuple[np.ndarray, int, np.ndarray]:
    """One competitive cascade; returns ``(owner, rounds, activation_round)``.

    Nodes are activated with the combined probability ``1 - Π(1 - p_e)``
    over all attempting edges and claimed per *claim_rule* (Section 3.2).
    """
    r = len(initiators)
    owner, frontier = _initial_owner(graph.num_nodes, initiators)
    when = np.zeros(graph.num_nodes, dtype=np.int64)

    rounds = 0
    while frontier.size:
        rounds += 1
        targets, eids, degs = _frontier_edges(graph, frontier)
        groups = np.repeat(owner[frontier], degs)
        live = owner[targets] < 0
        targets, eids, groups = targets[live], eids[live], groups[live]
        if targets.size:
            # Segment the flat edge list by target node: one segment per
            # unique target, per-group attempt counts via bincount over
            # (segment, group) keys, survival Π(1 - p_e) via reduceat.
            order = np.argsort(targets, kind="stable")
            t_sorted = targets[order]
            seg_head = np.r_[True, t_sorted[1:] != t_sorted[:-1]]
            seg_starts = np.flatnonzero(seg_head)
            uniq = t_sorted[seg_starts]
            survive = np.multiply.reduceat(1.0 - probs[eids[order]], seg_starts)
            slots = np.cumsum(seg_head) - 1
            counts = np.bincount(
                slots * r + groups[order], minlength=uniq.size * r
            ).reshape(uniq.size, r)
            activated = generator.random(uniq.size) < 1.0 - survive
            new_nodes = uniq[activated]
            winners = _claim_batch(
                counts[activated].astype(float), claim_rule, generator
            )
            owner[new_nodes] = winners
            when[new_nodes] = rounds
            frontier = new_nodes
        else:
            frontier = targets
        _FRONTIER_SIZE.observe(float(frontier.size))
    return owner, rounds, when


# ---------------------------------------------------------------------- #
# competitive threshold path (LT)
# ---------------------------------------------------------------------- #


def _competitive_threshold_python(
    graph: DiGraph,
    initiators: Sequence[Sequence[int]],
    claim_rule: ClaimRule,
    generator: np.random.Generator,
) -> tuple[np.ndarray, int, np.ndarray]:
    """Reference walk of :func:`run_competitive_threshold`."""
    n = graph.num_nodes
    r = len(initiators)
    thresholds = generator.random(n)
    weight_in = 1.0 / np.maximum(graph.in_degrees().astype(float), 1.0)

    owner = np.full(n, -1, dtype=np.int64)
    when = np.zeros(n, dtype=np.int64)
    pressure = np.zeros((n, r))
    frontiers: list[list[int]] = []
    for j, nodes in enumerate(initiators):
        for v in nodes:
            owner[v] = j
        frontiers.append(list(nodes))

    rounds = 0
    while any(frontiers):
        rounds += 1
        touched: set[int] = set()
        for j in range(r):
            for u in frontiers[j]:
                for v in graph.out_neighbors(u):
                    if owner[v] < 0:
                        pressure[v, j] += weight_in[v]
                        touched.add(int(v))

        next_frontiers: list[list[int]] = [[] for _ in range(r)]
        # Sorted so the claim_group draw order — and thus the whole
        # trajectory — is deterministic by construction, not by the accident
        # of CPython's int-set iteration order (RP011).
        for v in sorted(touched):
            total = pressure[v].sum()
            if total >= thresholds[v]:
                # Claim in proportion to each group's share of the
                # accumulated weight (the LT analogue of t_j / Σt_j).
                winner = claim_group(pressure[v].copy(), claim_rule, generator)
                owner[v] = winner
                when[v] = rounds
                next_frontiers[winner].append(v)
        frontiers = next_frontiers
        _FRONTIER_SIZE.observe(sum(len(f) for f in frontiers))
    return owner, rounds, when


def run_competitive_threshold(
    graph: DiGraph,
    initiators: Sequence[Sequence[int]],
    claim_rule: ClaimRule,
    generator: np.random.Generator,
) -> tuple[np.ndarray, int, np.ndarray]:
    """One competitive LT diffusion; returns ``(owner, rounds, activation_round)``.

    A node activates once the summed ``1/in_degree`` weight of its active
    in-neighbours reaches its uniform threshold, and is claimed in
    proportion to each group's share of that accumulated weight (the LT
    analogue of ``t_j / Σt_j``).
    """
    n = graph.num_nodes
    r = len(initiators)
    thresholds = generator.random(n)
    weight_in = 1.0 / np.maximum(graph.in_degrees().astype(float), 1.0)

    owner, frontier = _initial_owner(n, initiators)
    when = np.zeros(n, dtype=np.int64)
    pressure = np.zeros((n, r))

    rounds = 0
    while frontier.size:
        rounds += 1
        targets, _, degs = _frontier_edges(graph, frontier)
        groups = np.repeat(owner[frontier], degs)
        live = owner[targets] < 0
        targets, groups = targets[live], groups[live]
        if targets.size:
            np.add.at(pressure, (targets, groups), weight_in[targets])
            touched = np.unique(targets)
            crossed = pressure[touched].sum(axis=1) >= thresholds[touched]
            new_nodes = touched[crossed]
            winners = _claim_batch(pressure[new_nodes], claim_rule, generator)
            owner[new_nodes] = winners
            when[new_nodes] = rounds
            frontier = new_nodes
        else:
            frontier = targets
        _FRONTIER_SIZE.observe(float(frontier.size))
    return owner, rounds, when


# ---------------------------------------------------------------------- #
# single-group simulation (classical spread)
# ---------------------------------------------------------------------- #


def _checked_seed_array(num_nodes: int, seeds: Sequence[int]) -> np.ndarray:
    seed_arr = np.asarray([int(s) for s in seeds], dtype=np.int64)
    bad = (seed_arr < 0) | (seed_arr >= num_nodes)
    if bad.any():
        first = int(seed_arr[bad][0])
        raise CascadeError(f"seed {first} out of range [0, {num_nodes})")
    return seed_arr


def _simulate_cascade_python(
    graph: DiGraph,
    probs: np.ndarray,
    seeds: Sequence[int],
    generator: np.random.Generator,
) -> np.ndarray:
    """Reference walk of :func:`simulate_cascade`."""
    active = np.zeros(graph.num_nodes, dtype=bool)
    frontier: list[int] = []
    for s in seeds:
        if not 0 <= s < graph.num_nodes:
            raise CascadeError(f"seed {s} out of range [0, {graph.num_nodes})")
        if not active[s]:
            active[s] = True
            frontier.append(int(s))

    while frontier:
        next_frontier: list[int] = []
        for u in frontier:
            nbrs = graph.out_neighbors(u)
            if nbrs.size == 0:
                continue
            eids = graph.out_edge_ids(u)
            hits = generator.random(nbrs.size) < probs[eids]
            for v in nbrs[hits]:
                if not active[v]:
                    active[v] = True
                    next_frontier.append(int(v))
        frontier = next_frontier
    return active


def simulate_cascade(
    graph: DiGraph,
    probs: np.ndarray,
    seeds: Sequence[int],
    generator: np.random.Generator,
) -> np.ndarray:
    """One single-group cascade from *seeds*; returns the active-node mask."""
    active = np.zeros(graph.num_nodes, dtype=bool)
    frontier = np.unique(_checked_seed_array(graph.num_nodes, seeds))
    active[frontier] = True
    while frontier.size:
        targets, eids, _ = _frontier_edges(graph, frontier)
        live = ~active[targets]
        targets, eids = targets[live], eids[live]
        if targets.size == 0:
            break
        order = np.argsort(targets, kind="stable")
        t_sorted = targets[order]
        seg_head = np.r_[True, t_sorted[1:] != t_sorted[:-1]]
        seg_starts = np.flatnonzero(seg_head)
        uniq = t_sorted[seg_starts]
        survive = np.multiply.reduceat(1.0 - probs[eids[order]], seg_starts)
        hits = generator.random(uniq.size) < 1.0 - survive
        frontier = uniq[hits]
        active[frontier] = True
    return active


def _simulate_threshold_python(
    graph: DiGraph,
    seeds: Sequence[int],
    generator: np.random.Generator,
) -> np.ndarray:
    """Reference walk of :func:`simulate_threshold`."""
    n = graph.num_nodes
    thresholds = generator.random(n)
    in_deg = graph.in_degrees().astype(float)
    weight_in = 1.0 / np.maximum(in_deg, 1.0)

    active = np.zeros(n, dtype=bool)
    pressure = np.zeros(n)  # summed weight of active in-neighbours
    frontier: list[int] = []
    for s in seeds:
        if not 0 <= s < n:
            raise CascadeError(f"seed {s} out of range [0, {n})")
        if not active[s]:
            active[s] = True
            frontier.append(int(s))

    while frontier:
        next_frontier: list[int] = []
        for u in frontier:
            for v in graph.out_neighbors(u):
                if active[v]:
                    continue
                pressure[v] += weight_in[v]
                if pressure[v] >= thresholds[v]:
                    active[v] = True
                    next_frontier.append(int(v))
        frontier = next_frontier
    return active


def simulate_threshold(
    graph: DiGraph,
    seeds: Sequence[int],
    generator: np.random.Generator,
) -> np.ndarray:
    """One single-group LT diffusion from *seeds*; returns the active-node mask."""
    n = graph.num_nodes
    thresholds = generator.random(n)
    weight_in = 1.0 / np.maximum(graph.in_degrees().astype(float), 1.0)

    active = np.zeros(n, dtype=bool)
    pressure = np.zeros(n)
    frontier = np.unique(_checked_seed_array(n, seeds))
    active[frontier] = True
    while frontier.size:
        targets, _, _ = _frontier_edges(graph, frontier)
        targets = targets[~active[targets]]
        if targets.size == 0:
            break
        np.add.at(pressure, targets, weight_in[targets])
        touched = np.unique(targets)
        frontier = touched[pressure[touched] >= thresholds[touched]]
        active[frontier] = True
    return active


# ---------------------------------------------------------------------- #
# reachability sweeps (snapshot oracle / live-edge possible worlds)
# ---------------------------------------------------------------------- #


def reachable_mask(
    graph: DiGraph,
    sources: Sequence[int],
    edge_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Boolean array marking nodes reachable from *sources* (mask-filtered).

    *edge_mask* may be a boolean-style array of length *m* or its packed
    bitset equivalent (:mod:`repro.utils.bitset`); both filter identically.
    """
    return graph.reachable_from(sources, edge_mask)


def reachable_mask_batch(
    graph: DiGraph,
    sources: Sequence[int],
    mask_matrix: np.ndarray,
) -> np.ndarray:
    """Per-snapshot reachability over a stacked ``(snapshots, edges)`` mask.

    Row *s* of the returned ``(snapshots, nodes)`` boolean matrix equals
    ``reachable_mask(graph, sources, mask_matrix[s])``.  *mask_matrix* is
    either boolean-style ``(snapshots, edges)`` or packed
    ``(snapshots, words)`` ``uint64`` rows (:mod:`repro.utils.bitset`);
    results are bit-identical between the two representations.  Sources
    are range-checked even when there are no snapshots.
    """
    expected_width = (
        num_words(graph.num_edges) if is_packed(mask_matrix) else graph.num_edges
    )
    if mask_matrix.ndim != 2 or mask_matrix.shape[1] != expected_width:
        raise CascadeError(
            f"mask matrix shape {mask_matrix.shape} does not match "
            f"(snapshots, {expected_width})"
        )
    for s in sources:
        node = int(s)
        if not 0 <= node < graph.num_nodes:
            raise GraphError(f"node {node} out of range [0, {graph.num_nodes})")
    visited = np.zeros((mask_matrix.shape[0], graph.num_nodes), dtype=bool)
    for row, mask in zip(visited, mask_matrix):
        row[:] = graph.reachable_from(sources, mask)
    return visited


def count_new_reachable(
    graph: DiGraph,
    mask: np.ndarray,
    start: int,
    reached: np.ndarray,
) -> int:
    """Nodes reachable from *start* that are not in *reached* (no mutation).

    The sweep stops at already-reached nodes: in a live-edge world,
    everything reachable from a reached node is itself already reached.
    """
    if reached[start]:
        return 0
    visited = {int(start)}
    stack = [int(start)]
    count = 0
    while stack:
        u = stack.pop()
        count += 1
        lo, hi = graph.out_indptr[u], graph.out_indptr[u + 1]
        nbrs = graph.out_indices[lo:hi]
        live = lookup_bits(mask, graph.out_edge_ids(u))
        for v in nbrs[live]:
            node = int(v)
            if node not in visited and not reached[node]:
                visited.add(node)
                stack.append(node)
    return count


def absorb_reachable(
    graph: DiGraph,
    mask: np.ndarray,
    start: int,
    reached: np.ndarray,
) -> None:
    """Mark everything reachable from *start* in *reached* (mutates)."""
    if reached[start]:
        return
    reached[start] = True
    stack = [int(start)]
    while stack:
        u = stack.pop()
        lo, hi = graph.out_indptr[u], graph.out_indptr[u + 1]
        nbrs = graph.out_indices[lo:hi]
        live = lookup_bits(mask, graph.out_edge_ids(u))
        for v in nbrs[live]:
            node = int(v)
            if not reached[node]:
                reached[node] = True
                stack.append(node)
