"""Shared fixtures: small deterministic graphs and seeded RNGs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs.digraph import DiGraph
from repro.graphs.generators import erdos_renyi, karate_like_fixture
from repro.utils.bitset import is_packed, unpack_bits


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20150531)


@pytest.fixture
def path_graph() -> DiGraph:
    """Directed path 0 -> 1 -> 2 -> 3 -> 4."""
    return DiGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])


@pytest.fixture
def star_graph() -> DiGraph:
    """Hub 0 with arcs to 10 leaves."""
    return DiGraph(11, [(0, leaf) for leaf in range(1, 11)])


@pytest.fixture
def diamond_graph() -> DiGraph:
    """0 -> {1, 2} -> 3; two parallel length-2 paths."""
    return DiGraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


@pytest.fixture
def cycle_graph() -> DiGraph:
    """Directed 4-cycle."""
    return DiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


@pytest.fixture
def karate() -> DiGraph:
    return karate_like_fixture()


@pytest.fixture
def random_graph() -> DiGraph:
    return erdos_renyi(60, 240, rng=7)


def _python_reachable(graph: DiGraph, sources, edge_mask: np.ndarray) -> np.ndarray:
    """Plain-Python BFS over the live edges of *edge_mask* (boolean or packed).

    Built from :meth:`DiGraph.edge_array` alone, so it shares no traversal
    code with the library sweeps it is used to check.
    """
    live = (
        unpack_bits(edge_mask, graph.num_edges)
        if is_packed(edge_mask)
        else np.asarray(edge_mask, dtype=bool)
    )
    src, dst = graph.edge_array()
    successors: dict[int, list[int]] = {}
    for eid in range(graph.num_edges):
        if live[eid]:
            successors.setdefault(int(src[eid]), []).append(int(dst[eid]))
    reached = {int(s) for s in sources}
    stack = list(reached)
    while stack:
        for v in successors.get(stack.pop(), ()):
            if v not in reached:
                reached.add(v)
                stack.append(v)
    out = np.zeros(graph.num_nodes, dtype=bool)
    out[sorted(reached)] = True
    return out


@pytest.fixture(params=["python", "numpy"])
def reach_reference(request):
    """Per-mask reachability reference: plain-Python BFS or the CSR sweep.

    Called as ``reach_reference(graph, sources, edge_mask)``.  The ``numpy``
    case is :meth:`DiGraph.reachable_from` over the numpy CSR arrays.
    """
    if request.param == "python":
        return _python_reachable
    return lambda graph, sources, edge_mask: graph.reachable_from(sources, edge_mask)
