"""Tests for live-edge snapshots, the spread oracle, and reachability DP."""

import numpy as np
import pytest

from repro.cascade.ic import IndependentCascade
from repro.cascade.reachability import all_reach_sizes
from repro.cascade.snapshots import SnapshotOracle, sample_snapshots
from repro.cascade.wc import WeightedCascade
from repro.errors import CascadeError
from repro.graphs.digraph import DiGraph
from repro.graphs.generators import erdos_renyi
from repro.utils.bitset import is_packed, num_words, pack_bits, popcount
from repro.utils.rng import as_rng


class TestSampleSnapshots:
    def test_count_and_shape(self, karate):
        masks = sample_snapshots(karate, IndependentCascade(0.2), 5, seed=0)
        assert len(masks) == 5
        assert all(is_packed(mask) for mask in masks)
        assert all(mask.shape == (num_words(karate.num_edges),) for mask in masks)

    def test_p_extremes(self, karate):
        full = sample_snapshots(karate, IndependentCascade(1.0), 1, seed=0)[0]
        empty = sample_snapshots(karate, IndependentCascade(0.0), 1, seed=0)[0]
        assert popcount(full) == karate.num_edges
        assert popcount(empty) == 0

    def test_live_fraction_matches_p(self, karate):
        masks = sample_snapshots(karate, IndependentCascade(0.3), 50, seed=1)
        fraction = np.mean([popcount(m) / karate.num_edges for m in masks])
        assert fraction == pytest.approx(0.3, abs=0.03)

    def test_zero_count_rejected(self, karate):
        with pytest.raises(CascadeError, match="positive"):
            sample_snapshots(karate, IndependentCascade(0.1), 0, seed=0)


class TestSnapshotOracle:
    def test_requires_masks(self, karate):
        with pytest.raises(CascadeError, match="at least one"):
            SnapshotOracle(karate, [])

    def test_mask_shape_checked(self, karate):
        with pytest.raises(CascadeError, match="does not match"):
            SnapshotOracle(karate, [np.ones(3, dtype=bool)])

    def test_spread_on_full_mask_is_reachability(self, karate):
        mask = np.ones(karate.num_edges, dtype=bool)
        oracle = SnapshotOracle(karate, [mask])
        assert oracle.spread([0]) == karate.num_nodes  # connected

    def test_spread_on_empty_mask_is_seed_count(self, karate):
        mask = np.zeros(karate.num_edges, dtype=bool)
        oracle = SnapshotOracle(karate, [mask])
        assert oracle.spread([0, 1, 2]) == 3

    def test_spread_averages_masks(self, path_graph):
        full = np.ones(path_graph.num_edges, dtype=bool)
        empty = np.zeros(path_graph.num_edges, dtype=bool)
        oracle = SnapshotOracle(path_graph, [full, empty])
        assert oracle.spread([0]) == pytest.approx((5 + 1) / 2)

    def test_marginal_gain_of_reached_node_is_zero(self, path_graph):
        mask = np.ones(path_graph.num_edges, dtype=bool)
        oracle = SnapshotOracle(path_graph, [mask])
        reached = oracle.reach([0])
        assert oracle.marginal_gain(3, reached) == 0.0

    def test_marginal_gain_counts_new_only(self, path_graph):
        mask = np.ones(path_graph.num_edges, dtype=bool)
        oracle = SnapshotOracle(path_graph, [mask])
        reached = oracle.reach([3])  # reaches 3, 4
        # Adding node 0 newly reaches 0, 1, 2 (3 and 4 already covered).
        assert oracle.marginal_gain(0, reached) == 3.0

    def test_extend_reach_mutates(self, path_graph):
        mask = np.ones(path_graph.num_edges, dtype=bool)
        oracle = SnapshotOracle(path_graph, [mask])
        reached = oracle.reach([])
        assert not reached[0].any()
        oracle.extend_reach(reached, 2)
        assert reached[0].tolist() == [False, False, True, True, True]

    def test_greedy_identity_spread_equals_sum_of_gains(self, karate):
        # sigma(S) accumulated via marginal gains equals direct evaluation.
        masks = sample_snapshots(karate, IndependentCascade(0.15), 10, seed=3)
        oracle = SnapshotOracle(karate, masks)
        seeds = [0, 33, 5]
        reached = oracle.reach([])
        total = 0.0
        for s in seeds:
            total += oracle.marginal_gain(s, reached)
            oracle.extend_reach(reached, s)
        assert total == pytest.approx(oracle.spread(seeds))


class TestAllReachSizes:
    def test_path(self, path_graph):
        sizes = all_reach_sizes(path_graph)
        assert sizes.tolist() == [5, 4, 3, 2, 1]

    def test_cycle_everyone_reaches_all(self, cycle_graph):
        assert all_reach_sizes(cycle_graph).tolist() == [4, 4, 4, 4]

    def test_diamond(self, diamond_graph):
        assert all_reach_sizes(diamond_graph).tolist() == [4, 2, 2, 1]

    def test_empty_graph(self):
        assert all_reach_sizes(DiGraph(0, [])).size == 0

    def test_isolated_nodes(self):
        g = DiGraph(3, [])
        assert all_reach_sizes(g).tolist() == [1, 1, 1]

    def test_respects_edge_mask(self, path_graph):
        mask = np.ones(path_graph.num_edges, dtype=bool)
        mask[path_graph.out_edge_ids(1)[0]] = False
        sizes = all_reach_sizes(path_graph, mask)
        assert sizes.tolist() == [2, 1, 3, 2, 1]

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_bfs_on_random_graphs(self, seed):
        graph = erdos_renyi(40, 120, rng=seed)
        rng = as_rng(seed)
        mask = rng.random(graph.num_edges) < 0.5
        sizes = all_reach_sizes(graph, mask)
        for v in range(graph.num_nodes):
            expected = int(graph.reachable_from([v], mask).sum())
            assert sizes[v] == expected

    def test_matches_bfs_with_dense_sccs(self):
        # Two 3-cycles joined by a bridge: SCC condensation is exercised.
        g = DiGraph(
            6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)]
        )
        sizes = all_reach_sizes(g)
        assert sizes.tolist() == [6, 6, 6, 3, 3, 3]


def _bfs_sizes(graph, mask=None):
    return [int(graph.reachable_from([v], mask).sum()) for v in range(graph.num_nodes)]


def _nested_scc_chain(links):
    """*links* SCCs in a chain; each SCC is a 3-cycle holding a 2-cycle.

    Every SCC also has a shortcut to the SCC two steps down, so reach sets
    overlap (a plain sum of child sizes would overcount) and the
    condensation DAG is a path of height ``links - 1``.
    """
    edges = []
    for i in range(links):
        a, b, c = 3 * i, 3 * i + 1, 3 * i + 2
        edges += [(a, b), (b, a), (b, c), (c, a)]
        if i + 1 < links:
            edges.append((c, a + 3))
        if i + 2 < links:
            edges.append((a, a + 6))
    return DiGraph(3 * links, edges)


class TestAllReachSizesBeyondOneWord:
    """Graphs wider than one 64-bit word, checked against per-node BFS."""

    def test_chain_crosses_word_boundaries(self):
        n = 200
        g = DiGraph(n, [(i, i + 1) for i in range(n - 1)])
        assert all_reach_sizes(g).tolist() == [n - i for i in range(n)]
        mask = np.ones(g.num_edges, dtype=bool)
        for cut in (62, 63, 64, 127, 128):
            mask[g.out_edge_ids(cut)[0]] = False
        expected = _bfs_sizes(g, mask)
        assert all_reach_sizes(g, mask).tolist() == expected
        assert all_reach_sizes(g, pack_bits(mask)).tolist() == expected

    def test_many_weak_components(self):
        # 60 disjoint pieces (paths, 3-cycles, out-stars) plus 40 isolated nodes.
        edges = []
        for piece in range(60):
            base = 4 * piece
            kind = piece % 3
            if kind == 0:
                edges += [(base, base + 1), (base + 1, base + 2), (base + 2, base + 3)]
            elif kind == 1:
                edges += [(base, base + 1), (base + 1, base + 2), (base + 2, base)]
            else:
                edges += [(base, base + 1), (base, base + 2), (base, base + 3)]
        g = DiGraph(280, edges)
        mask = as_rng(5).random(g.num_edges) < 0.7
        assert all_reach_sizes(g).tolist() == _bfs_sizes(g)
        assert all_reach_sizes(g, mask).tolist() == _bfs_sizes(g, mask)
        assert all_reach_sizes(g, pack_bits(mask)).tolist() == _bfs_sizes(g, mask)

    def test_nested_sccs_on_a_long_condensation_path(self):
        g = _nested_scc_chain(40)
        assert all_reach_sizes(g).tolist() == [120 - 3 * (v // 3) for v in range(120)]
        mask = as_rng(9).random(g.num_edges) < 0.8
        expected = _bfs_sizes(g, mask)
        assert all_reach_sizes(g, mask).tolist() == expected
        assert all_reach_sizes(g, pack_bits(mask)).tolist() == expected

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tiny_batches_match_one_batch(self, seed, monkeypatch):
        from repro.cascade import reachability

        graph = erdos_renyi(300, 600, rng=seed)
        mask = as_rng(seed).random(graph.num_edges) < 0.6
        whole = all_reach_sizes(graph, mask)
        monkeypatch.setattr(reachability, "_BATCH_WORDS", 1)
        assert all_reach_sizes(graph, mask).tolist() == whole.tolist()
        assert whole.tolist() == _bfs_sizes(graph, mask)
