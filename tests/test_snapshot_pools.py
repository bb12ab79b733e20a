"""Tests for shared snapshot pools and the batched oracle sweep.

Covers :class:`~repro.cascade.pools.SnapshotPool` sharing semantics (one
live-edge sample per (model, count) request served to every strategy of a
group), the Theorem-1 independence of per-group pools, and the bit-identity
of :func:`~repro.cascade.kernels.reachable_mask_batch` against the
sequential per-mask sweep, :meth:`DiGraph.reachable_from` and a
plain-Python BFS reference.
"""

import numpy as np
import pytest

from repro.algorithms.degree_discount import DegreeDiscount
from repro.algorithms.greedy import CELFGreedy, MixGreedy
from repro.cache import clear_caches, shard_memo
from repro.cascade.ic import IndependentCascade
from repro.cascade.kernels import reachable_mask, reachable_mask_batch
from repro.cascade.lt import LinearThreshold
from repro.cascade.pools import SnapshotPool, snapshot_initial_gains
from repro.cascade.snapshots import SnapshotOracle, sample_snapshots
from repro.errors import CascadeError
from repro.exec.executor import build_executor
from repro.obs.metrics import counter
from repro.utils.bitset import unpack_bits
from repro.utils.rng import as_rng

_POOL_SAMPLES = counter("cascade.pool_samples")
_POOL_SHARED = counter("cascade.pool_shared")


class TestSnapshotPool:
    def test_token_draws_once_and_is_stable(self, karate):
        pool = SnapshotPool(karate)
        assert not pool.seeded
        gen = np.random.default_rng(1)
        token = pool.token(gen)
        assert pool.seeded
        # Further token calls return the same value without consuming rng.
        before = gen.bit_generator.state
        assert pool.token(gen) == token
        assert gen.bit_generator.state == before

    def test_unseeded_pool_rejects_sampling(self, karate):
        pool = SnapshotPool(karate)
        with pytest.raises(CascadeError, match="unseeded"):
            pool.masks(IndependentCascade(0.1), 5)

    def test_masks_shared_per_request(self, karate):
        pool = SnapshotPool(karate)
        pool.token(np.random.default_rng(2))
        model = IndependentCascade(0.1)
        s0, sh0 = _POOL_SAMPLES.value, _POOL_SHARED.value
        first = pool.masks(model, 6)
        second = pool.masks(model, 6)
        assert first is second
        assert _POOL_SAMPLES.value - s0 == 1
        assert _POOL_SHARED.value - sh0 == 1

    def test_equal_model_params_share_different_params_do_not(self, karate):
        pool = SnapshotPool(karate)
        pool.token(np.random.default_rng(2))
        a = pool.masks(IndependentCascade(0.1), 6)
        b = pool.masks(IndependentCascade(0.1), 6)  # fresh but equal model
        c = pool.masks(IndependentCascade(0.2), 6)
        assert a is b
        assert c is not a

    def test_mask_content_is_request_order_independent(self, karate):
        model_a = IndependentCascade(0.1)
        model_b = IndependentCascade(0.3)
        one = SnapshotPool(karate)
        one.token(np.random.default_rng(9))
        two = SnapshotPool(karate)
        two.token(np.random.default_rng(9))
        first_a = one.masks(model_a, 4)
        one.masks(model_b, 4)
        two.masks(model_b, 4)  # opposite request order
        second_a = two.masks(model_a, 4)
        for x, y in zip(first_a, second_a):
            np.testing.assert_array_equal(x, y)

    def test_oracle_and_gains_are_memoized(self, karate):
        pool = SnapshotPool(karate)
        pool.token(np.random.default_rng(3))
        model = IndependentCascade(0.1)
        assert pool.oracle(model, 6) is pool.oracle(model, 6)
        assert pool.initial_gains(model, 6) is pool.initial_gains(model, 6)

    def test_lt_pool_samples_sequential_stream(self, karate):
        # LT's triggering sets cannot be drawn per edge: the pool's sample
        # is the sequential stream seeded by the request's child seed.
        model = LinearThreshold()
        pool = SnapshotPool(karate, seed=3)
        masks = pool.masks(model, 4)
        generator = as_rng(pool._child_seed(pool._request_key(model, 4)))
        for words in masks:
            np.testing.assert_array_equal(
                unpack_bits(words, karate.num_edges),
                model.sample_live_mask(karate, generator),
            )

    def test_only_pinned_pools_use_shard_memo(self, karate):
        # A token-seeded identity never recurs on another graph version,
        # so only pinned pools (the incremental session's) fill the memo.
        clear_caches()
        model = IndependentCascade(0.1)
        drawn = SnapshotPool(karate)
        drawn.token(np.random.default_rng(1))
        drawn.masks(model, 3)
        assert len(shard_memo()) == 0
        SnapshotPool(karate, seed=1).masks(model, 3)
        assert len(shard_memo()) > 0
        clear_caches()

    def test_per_group_pools_are_independent(self, karate):
        # Theorem 1: each group draws its own live-edge sample, so two
        # groups playing the same strategy see different snapshots.
        gen = np.random.default_rng(4)
        group0 = SnapshotPool(karate)
        group0.token(gen)
        group1 = SnapshotPool(karate)
        group1.token(gen)
        model = IndependentCascade(0.2)
        masks0 = group0.masks(model, 8)
        masks1 = group1.masks(model, 8)
        assert any(
            not np.array_equal(a, b) for a, b in zip(masks0, masks1)
        )


class TestPooledSelection:
    def test_mixgreedy_and_celf_share_one_sample(self, karate):
        # Both consumers of the same group pool reuse the identical masks
        # and the identical batched initial gains — and on the same sample,
        # deterministic CELF and the lazy-forward loop pick the same seeds.
        model = IndependentCascade(0.1)
        pool = SnapshotPool(karate)
        gen = np.random.default_rng(5)
        s0 = _POOL_SAMPLES.value
        mg = MixGreedy(model, num_snapshots=12).select(karate, 3, gen, pool=pool)
        celf = CELFGreedy(model, num_snapshots=12).select(karate, 3, gen, pool=pool)
        assert _POOL_SAMPLES.value - s0 == 1  # one sample served both
        assert mg == celf

    def test_non_snapshot_selector_ignores_pool(self, karate):
        pool = SnapshotPool(karate)
        gen = np.random.default_rng(6)
        with_pool = DegreeDiscount(0.1).select(karate, 3, gen, pool=pool)
        without = DegreeDiscount(0.1).select(karate, 3, np.random.default_rng(6))
        assert with_pool == without
        assert not pool.seeded  # the pool was never touched

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_pooled_matches_gains_helper(self, karate, backend):
        model = IndependentCascade(0.1)
        pool = SnapshotPool(karate)
        pool.token(np.random.default_rng(7))
        masks = pool.masks(model, 10)
        direct = snapshot_initial_gains(karate, masks)
        with build_executor(backend, workers=2) as executor:
            assert pool.initial_gains(model, 10, executor) == direct


class TestReachableMaskBatch:
    def _masks(self, graph, count, seed):
        return sample_snapshots(graph, IndependentCascade(0.3), count, seed=seed)

    def test_bit_identical_to_sequential_sweep(self, random_graph, reach_reference):
        masks = self._masks(random_graph, 7, 10)
        matrix = np.stack(masks)
        batch = reachable_mask_batch(random_graph, [0, 3], matrix)
        assert batch.shape == (7, random_graph.num_nodes)
        for s, mask in enumerate(masks):
            single = reachable_mask(random_graph, [0, 3], mask)
            np.testing.assert_array_equal(batch[s], single)
            np.testing.assert_array_equal(
                batch[s], reach_reference(random_graph, [0, 3], mask)
            )

    def test_matches_reachable_from(self, random_graph):
        masks = self._masks(random_graph, 5, 11)
        batch = reachable_mask_batch(random_graph, [1, 2], np.stack(masks))
        for row, mask in zip(batch, masks):
            np.testing.assert_array_equal(row, random_graph.reachable_from([1, 2], mask))

    def test_empty_matrix(self, random_graph):
        matrix = np.zeros((0, random_graph.num_edges), dtype=bool)
        batch = reachable_mask_batch(random_graph, [0], matrix)
        assert batch.shape == (0, random_graph.num_nodes)

    def test_shape_validation(self, random_graph):
        bad = np.zeros((3, random_graph.num_edges + 1), dtype=bool)
        with pytest.raises(CascadeError):
            reachable_mask_batch(random_graph, [0], bad)
        with pytest.raises(CascadeError):
            reachable_mask_batch(
                random_graph, [0], np.zeros(random_graph.num_edges, dtype=bool)
            )


class TestBatchedOracle:
    def test_spread_matches_per_mask_average(self, random_graph, reach_reference):
        masks = sample_snapshots(
            random_graph, IndependentCascade(0.2), 9, seed=12
        )
        oracle = SnapshotOracle(random_graph, masks)
        seeds = [0, 5]
        expected = float(
            np.mean([reach_reference(random_graph, seeds, mask).sum() for mask in masks])
        )
        assert oracle.spread(seeds) == pytest.approx(expected)

    def test_reach_rows_are_independent_and_writable(self, random_graph):
        # extend_reach mutates the returned rows in place; the batch sweep
        # must hand back per-snapshot rows that tolerate that.
        masks = sample_snapshots(
            random_graph, IndependentCascade(0.2), 4, seed=13
        )
        oracle = SnapshotOracle(random_graph, masks)
        reached = oracle.reach([0])
        baseline = [row.copy() for row in oracle.reach([0])]
        oracle.extend_reach(reached, 7)
        for row, base in zip(baseline, oracle.reach([0])):
            np.testing.assert_array_equal(row, base)
