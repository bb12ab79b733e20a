"""All-source reachability on live-edge snapshots.

``NewGreedy`` (Chen, Wang & Yang, KDD'09) — the first round of MixGreedy —
needs, for each snapshot, the size of the reachable set of *every* node.
Running a BFS from each node is quadratic in the worst case; instead the
live subgraph is condensed into its strongly connected components
(``scipy.sparse.csgraph``) and reachable-set *bitsets* are propagated
through the condensation DAG.

The DP has no per-node Python loop:

* the live edges come out of the CSR with one mask lookup;
* a sink component (no live edge leaves it — every isolated node is one)
  reaches exactly its own members, so it takes its size directly;
* every other component gets a row: one ``np.bitwise_or.at`` sets the
  bits of its members and of its small sink children, then child rows are
  ORed into parent rows one *height* (longest path to a sink) at a time —
  children sit strictly lower, so every row a level reads is final, and a
  level costs one batched ``np.bitwise_or.at`` however many components it
  holds;
* one popcount per row gives the reach size of every component.

Reach sets never leave a weakly connected component, so bit positions are
local to each one and a row is as wide as its weak component, not n bits.
Rows are packed ``uint64`` words (:mod:`repro.utils.bitset`), so unions and
popcounts run 64 nodes per instruction, and the batched steps work through
slices of at most ``_BATCH_WORDS`` words, which bounds their temporaries.
Peak memory is the rows of the non-sink components plus O(n + m)
index arrays: about 100 MB on one WC snapshot of a 200k-node power-law
graph (``powerlaw_configuration(200_000, 200_000)``).

*edge_mask* may be boolean-style or packed; results are bit-identical
either way, and to a BFS from every node.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.graphs.digraph import DiGraph
from repro.utils.bitset import WORD_BITS, lookup_bits

#: Upper bound on the child-row words one ``np.bitwise_or.at`` call
#: gathers; bounds the DP's temporaries, not its result.
_BATCH_WORDS = 1 << 21


def _concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + k) for s, k in zip(starts, lengths)])``."""
    shift = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
    return np.arange(shift.size, dtype=np.int64) + shift


def _bounded_slices(cum: np.ndarray, start: int, stop: int) -> Iterator[tuple[int, int]]:
    """Split items ``start .. stop`` into runs of at most ``_BATCH_WORDS`` words.

    *cum* is the running word total per item.  A run always holds at least
    one item, so one oversized item forms a run of its own.
    """
    while start < stop:
        base = int(cum[start - 1]) if start else 0
        end = min(stop, max(start + 1, int(np.searchsorted(cum, base + _BATCH_WORDS, "right"))))
        yield start, end
        start = end


def _heights(parent: np.ndarray, child: np.ndarray, num_comps: int) -> np.ndarray:
    """Longest path from each condensation component down to a sink.

    Peels the DAG from its sinks: a component gets height ``h`` once every
    child has a height below ``h``.
    """
    by_child = np.argsort(child, kind="stable")
    child_ptr = np.zeros(num_comps + 1, dtype=np.int64)
    np.cumsum(np.bincount(child, minlength=num_comps), out=child_ptr[1:])
    pending = np.bincount(parent, minlength=num_comps)
    height = np.zeros(num_comps, dtype=np.int64)
    frontier = np.flatnonzero(pending == 0)
    h = 0
    while frontier.size:
        starts = child_ptr[frontier]
        edges = by_child[_concat_ranges(starts, child_ptr[frontier + 1] - starts)]
        ready, counts = np.unique(parent[edges], return_counts=True)
        pending[ready] -= counts
        frontier = ready[pending[ready] == 0]
        h += 1
        height[frontier] = h
    return height


def all_reach_sizes(graph: DiGraph, edge_mask: np.ndarray | None = None) -> np.ndarray:
    """Size of the reachable set of every node, under an optional live-edge mask.

    Returns an integer array ``sizes`` with ``sizes[v] = |R(v)|`` including
    *v* itself.  *edge_mask* may be boolean-style or a packed bitset.
    """
    # Imported here so runs that never call the DP do not load csgraph.
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    n = graph.num_nodes
    if n == 0:
        return np.zeros(0, dtype=np.int64)

    # Live subgraph as a CSR matrix; filtering keeps the out-CSR's order.
    indptr = graph.out_indptr
    dst = graph.out_indices
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    if edge_mask is not None:
        live = lookup_bits(edge_mask, graph.edge_ids)
        src, dst = src[live], dst[live]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    if dst.size == 0:
        return np.ones(n, dtype=np.int64)
    live_graph = csr_matrix((np.ones(dst.size), dst, indptr), shape=(n, n))
    count, labels = connected_components(live_graph, directed=True, connection="strong")
    num_comps = int(count)
    comp = np.asarray(labels, dtype=np.int64)

    # Condensation DAG, edges sorted by parent then child.
    cs, cd = comp[src], comp[dst]
    cross = cs != cd
    parent, child = np.divmod(np.unique(cs[cross] * num_comps + cd[cross]), num_comps)
    comp_size = np.bincount(comp, minlength=num_comps)
    if parent.size == 0:
        return comp_size[comp]  # every component is a sink

    # Bit positions are local to the weak component, so a row is as wide
    # as its weak component, not n bits.
    _, weak = connected_components(live_graph, directed=True, connection="weak")
    weak_size = np.bincount(weak)
    local = np.empty(n, dtype=np.int64)
    local[np.argsort(weak, kind="stable")] = np.arange(n) - np.repeat(
        np.cumsum(weak_size) - weak_size, weak_size
    )
    words = np.zeros(num_comps, dtype=np.int64)
    words[comp] = (weak_size[weak] + WORD_BITS - 1) // WORD_BITS

    # Every non-sink component gets a row.  A sink gets one only if some
    # parent reads it and it has more members than its row has words;
    # otherwise its parents set its members' bits directly.
    height = _heights(parent, child, num_comps)
    has_row = height > 0
    has_row[child] |= comp_size[child] > words[child]
    rowed = np.flatnonzero(has_row)
    row_at = np.zeros(num_comps, dtype=np.int64)
    row_at[rowed] = np.cumsum(words[rowed]) - words[rowed]
    rows = np.zeros(int(words[rowed].sum()), dtype=np.uint64)

    # Seed each row with its own members and those of its row-less children.
    own = np.flatnonzero(has_row[comp])
    members = np.argsort(comp, kind="stable")
    member_ptr = np.zeros(num_comps + 1, dtype=np.int64)
    np.cumsum(comp_size, out=member_ptr[1:])
    into_row = has_row[child]
    leaf = child[~into_row]
    bit_node = np.concatenate([own, members[_concat_ranges(member_ptr[leaf], comp_size[leaf])]])
    bit_row = np.concatenate([comp[own], np.repeat(parent[~into_row], comp_size[leaf])])
    pos = local[bit_node]
    bits = np.left_shift(np.uint64(1), (pos & 63).astype(np.uint64))
    np.bitwise_or.at(rows, row_at[bit_row] + (pos >> 6), bits)

    # OR child rows into parent rows one height level at a time: a child
    # sits strictly lower than its parent, so every row a level reads is
    # final.
    order = np.argsort(height[parent[into_row]], kind="stable")
    up, down = parent[into_row][order], child[into_row][order]
    span = words[down]
    done = np.cumsum(span)
    start = 0
    for end in np.searchsorted(height[up], np.arange(1, height.max() + 1), "right").tolist():
        for i, j in _bounded_slices(done, start, end):
            np.bitwise_or.at(
                rows,
                _concat_ranges(row_at[up[i:j]], span[i:j]),
                rows[_concat_ranges(row_at[down[i:j]], span[i:j])],
            )
        start = end

    # Popcount every row; rows lie back to back, so row ends are running
    # word totals.
    reach = comp_size.copy()
    row_end = row_at[rowed] + words[rowed]
    for i, j in _bounded_slices(row_end, 0, rowed.size):
        lo = row_at[rowed[i]]
        reach[rowed[i:j]] = np.add.reduceat(
            np.bitwise_count(rows[lo : row_end[j - 1]]), row_at[rowed[i:j]] - lo, dtype=np.int64
        )
    return reach[comp]
