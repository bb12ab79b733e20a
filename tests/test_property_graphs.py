"""Property-based tests (hypothesis) for the graph substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.digraph import DiGraph


@st.composite
def edge_lists(draw, max_nodes=20, max_edges=60):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=max_edges,
        )
    )
    return n, edges


class TestDiGraphProperties:
    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_degree_sums_equal_edge_count(self, data):
        n, edges = data
        g = DiGraph(n, edges)
        assert g.out_degrees().sum() == g.num_edges
        assert g.in_degrees().sum() == g.num_edges

    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_no_self_loops_or_duplicates(self, data):
        n, edges = data
        g = DiGraph(n, edges)
        seen = set()
        for u, v in g.edges():
            assert u != v
            assert (u, v) not in seen
            seen.add((u, v))

    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_edge_count_matches_simple_edge_set(self, data):
        n, edges = data
        simple = {(u, v) for u, v in edges if u != v}
        assert DiGraph(n, edges).num_edges == len(simple)

    @given(edge_lists())
    @settings(max_examples=40, deadline=None)
    def test_reverse_swaps_degrees(self, data):
        n, edges = data
        g = DiGraph(n, edges)
        rev = g.reverse()
        assert np.array_equal(g.out_degrees(), rev.in_degrees())
        assert np.array_equal(g.in_degrees(), rev.out_degrees())

    @given(edge_lists(), st.integers(min_value=0, max_value=19))
    @settings(max_examples=40, deadline=None)
    def test_reachability_contains_source_and_is_closed(self, data, source):
        n, edges = data
        g = DiGraph(n, edges)
        source = source % n
        reached = g.reachable_from([source])
        assert reached[source]
        # Closure: no edge leaves the reached set.
        for u in range(n):
            if reached[u]:
                for v in g.out_neighbors(u):
                    assert reached[v]

    @given(edge_lists())
    @settings(max_examples=40, deadline=None)
    def test_reachability_monotone_in_sources(self, data):
        n, edges = data
        g = DiGraph(n, edges)
        single = g.reachable_from([0])
        both = g.reachable_from([0, n - 1])
        assert np.all(both[single])  # superset

    @given(edge_lists())
    @settings(max_examples=40, deadline=None)
    def test_edge_array_is_stable_permutation(self, data):
        n, edges = data
        g = DiGraph(n, edges)
        src, dst = g.edge_array()
        assert src.shape == dst.shape == (g.num_edges,)
        assert set(zip(src.tolist(), dst.tolist())) == set(g.edges())


@st.composite
def layered_graphs(draw):
    """Graphs wider than one 64-bit word, built from structured blocks.

    The first block is a chain of at least 65 nodes, so reach sets cross a
    word boundary.  The other blocks are more chains, chains of nested
    SCCs (a 3-cycle holding a 2-cycle, linked with shortcuts, giving long
    condensation paths with overlapping reach sets), random digraphs and
    isolated nodes, which make many weak components.  A few bridges may
    join blocks, and node labels are shuffled so weak components are not
    contiguous id ranges.
    """
    edges: list[tuple[int, int]] = []
    n = 0

    def chain(length):
        edges.extend((n + i, n + i + 1) for i in range(length - 1))
        return length

    def nested(links):
        for i in range(links):
            a = n + 3 * i
            edges.extend([(a, a + 1), (a + 1, a), (a + 1, a + 2), (a + 2, a)])
            if i + 1 < links:
                edges.append((a + 2, a + 3))
            if i + 2 < links:
                edges.append((a, a + 6))
        return 3 * links

    def random_block(size):
        node = st.integers(0, size - 1)
        pairs = draw(st.lists(st.tuples(node, node), max_size=3 * size))
        edges.extend((n + u, n + v) for u, v in pairs)
        return size

    n += chain(draw(st.integers(65, 140)))
    kinds = st.sampled_from(["chain", "nested", "random", "isolated"])
    for kind in draw(st.lists(kinds, max_size=5)):
        if kind == "chain":
            n += chain(draw(st.integers(2, 80)))
        elif kind == "nested":
            n += nested(draw(st.integers(2, 25)))
        elif kind == "random":
            n += random_block(draw(st.integers(2, 30)))
        else:
            n += draw(st.integers(1, 20))
    node = st.integers(0, n - 1)
    bridges = draw(st.lists(st.tuples(node, node), max_size=4))
    perm = np.random.default_rng(draw(st.integers(0, 2**31 - 1))).permutation(n)
    return n, [(int(perm[u]), int(perm[v])) for u, v in edges + bridges]


class TestReachSizesProperty:
    @given(edge_lists(max_nodes=15, max_edges=40))
    @settings(max_examples=40, deadline=None)
    def test_all_reach_sizes_match_bfs(self, data):
        from repro.cascade.reachability import all_reach_sizes

        n, edges = data
        g = DiGraph(n, edges)
        sizes = all_reach_sizes(g)
        for v in range(n):
            assert sizes[v] == int(g.reachable_from([v]).sum())

    @given(edge_lists(max_nodes=12, max_edges=30), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_all_reach_sizes_match_bfs_under_mask(self, data, seed):
        from repro.cascade.reachability import all_reach_sizes

        n, edges = data
        g = DiGraph(n, edges)
        rng = np.random.default_rng(seed)
        mask = rng.random(g.num_edges) < 0.5
        sizes = all_reach_sizes(g, mask)
        for v in range(n):
            assert sizes[v] == int(g.reachable_from([v], mask).sum())

    @given(layered_graphs(), st.floats(0.3, 1.0), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_all_reach_sizes_match_bfs_beyond_one_word(self, data, live, seed):
        from repro.cascade.reachability import all_reach_sizes
        from repro.utils.bitset import pack_bits

        n, edges = data
        g = DiGraph(n, edges)
        mask = np.random.default_rng(seed).random(g.num_edges) < live
        expected = [int(g.reachable_from([v], mask).sum()) for v in range(n)]
        assert all_reach_sizes(g, mask).tolist() == expected
        assert all_reach_sizes(g, pack_bits(mask)).tolist() == expected
        assert all_reach_sizes(g).tolist() == [
            int(g.reachable_from([v]).sum()) for v in range(n)
        ]
