"""Unit tests for the dense collective algorithms."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.comm.cluster import SimulatedCluster
from repro.comm.collectives import (
    allgather_bruck,
    allgather_bruck_grouped,
    allgather_recursive_doubling,
    allreduce_dense,
    allreduce_rabenseifner,
    allreduce_ring,
    reduce_scatter_direct,
)

from tests.references import seed_allreduce_rabenseifner, seed_allreduce_ring


def _items(num_workers):
    return {rank: np.array([float(rank)]) for rank in range(num_workers)}


class TestBruckAllGather:
    @pytest.mark.parametrize("num_workers", [1, 2, 3, 4, 5, 6, 7, 8, 14])
    def test_all_workers_get_all_items_in_order(self, num_workers):
        cluster = SimulatedCluster(num_workers)
        result = allgather_bruck(cluster, _items(num_workers))
        expected = [float(rank) for rank in range(num_workers)]
        for rank in range(num_workers):
            assert [float(item[0]) for item in result[rank]] == expected

    @pytest.mark.parametrize("num_workers", [2, 4, 8, 16])
    def test_round_count_is_log2_for_power_of_two(self, num_workers):
        cluster = SimulatedCluster(num_workers)
        allgather_bruck(cluster, _items(num_workers))
        assert cluster.stats.rounds == int(math.log2(num_workers))

    @pytest.mark.parametrize("num_workers", [3, 5, 6, 7, 14])
    def test_round_count_is_ceil_log2_for_any_count(self, num_workers):
        cluster = SimulatedCluster(num_workers)
        allgather_bruck(cluster, _items(num_workers))
        assert cluster.stats.rounds == math.ceil(math.log2(num_workers))

    def test_bandwidth_reaches_lower_bound(self):
        # Each worker receives exactly (P-1) items of unit size.
        num_workers = 6
        cluster = SimulatedCluster(num_workers)
        allgather_bruck(cluster, _items(num_workers))
        assert cluster.stats.max_received == num_workers - 1

    def test_grouped_execution_shares_rounds(self):
        cluster = SimulatedCluster(8)
        groups = [[0, 1, 2, 3], [4, 5, 6, 7]]
        items = _items(8)
        result = allgather_bruck_grouped(cluster, groups, items)
        assert cluster.stats.rounds == 2  # log2(4), shared by both groups
        assert [float(i[0]) for i in result[5]] == [4.0, 5.0, 6.0, 7.0]

    def test_duplicate_ranks_rejected(self):
        cluster = SimulatedCluster(4)
        with pytest.raises(ValueError):
            allgather_bruck_grouped(cluster, [[0, 0, 1]], _items(4))

    def test_single_worker_group(self):
        cluster = SimulatedCluster(3)
        result = allgather_bruck_grouped(cluster, [[2]], {2: np.array([9.0])})
        assert result[2][0][0] == 9.0
        assert cluster.stats.rounds == 0


class TestRecursiveDoublingAllGather:
    @pytest.mark.parametrize("num_workers", [1, 2, 4, 8])
    def test_gathers_in_order(self, num_workers):
        cluster = SimulatedCluster(num_workers)
        result = allgather_recursive_doubling(cluster, _items(num_workers))
        for rank in range(num_workers):
            assert [float(item[0]) for item in result[rank]] == [float(r) for r in range(num_workers)]

    def test_rejects_non_power_of_two(self):
        cluster = SimulatedCluster(6)
        with pytest.raises(ValueError):
            allgather_recursive_doubling(cluster, _items(6))

    def test_round_count(self):
        cluster = SimulatedCluster(8)
        allgather_recursive_doubling(cluster, _items(8))
        assert cluster.stats.rounds == 3


class TestReduceScatterDirect:
    @pytest.mark.parametrize("num_workers", [2, 3, 5, 8])
    def test_each_worker_holds_reduced_partition(self, num_workers):
        n = 12
        cluster = SimulatedCluster(num_workers)
        vectors = {r: np.random.default_rng(r).normal(size=n) for r in range(num_workers)}
        result = reduce_scatter_direct(cluster, vectors)
        total = sum(vectors.values())
        rebuilt = np.concatenate([result[r] for r in range(num_workers)])
        np.testing.assert_allclose(rebuilt, total)

    def test_uses_p_minus_one_rounds(self):
        cluster = SimulatedCluster(5)
        vectors = {r: np.ones(10) for r in range(5)}
        reduce_scatter_direct(cluster, vectors)
        assert cluster.stats.rounds == 4


class TestDenseAllReduce:
    @pytest.mark.parametrize("algorithm", [allreduce_ring, allreduce_dense])
    @pytest.mark.parametrize("num_workers", [1, 2, 3, 4, 6, 8])
    def test_result_equals_sum(self, algorithm, num_workers):
        n = 16
        cluster = SimulatedCluster(num_workers)
        vectors = {r: np.random.default_rng(r).normal(size=n) for r in range(num_workers)}
        result = algorithm(cluster, vectors)
        total = sum(vectors.values())
        for rank in range(num_workers):
            np.testing.assert_allclose(result[rank], total, atol=1e-10)

    @pytest.mark.parametrize("num_workers", [2, 4, 8])
    def test_rabenseifner_equals_sum(self, num_workers):
        n = 16
        cluster = SimulatedCluster(num_workers)
        vectors = {r: np.random.default_rng(r).normal(size=n) for r in range(num_workers)}
        result = allreduce_rabenseifner(cluster, vectors)
        total = sum(vectors.values())
        for rank in range(num_workers):
            np.testing.assert_allclose(result[rank], total, atol=1e-10)

    def test_rabenseifner_rejects_non_power_of_two(self):
        cluster = SimulatedCluster(6)
        with pytest.raises(ValueError):
            allreduce_rabenseifner(cluster, {r: np.ones(4) for r in range(6)})

    def test_ring_bandwidth_near_lower_bound(self):
        num_workers, n = 4, 64
        cluster = SimulatedCluster(num_workers)
        vectors = {r: np.ones(n) for r in range(num_workers)}
        allreduce_ring(cluster, vectors)
        lower_bound = 2 * n * (num_workers - 1) / num_workers
        assert cluster.stats.max_received == pytest.approx(lower_bound, rel=0.05)

    def test_dense_dispatches_by_worker_count(self):
        # Power of two -> Rabenseifner round count (2 log P); otherwise ring (2(P-1)).
        cluster = SimulatedCluster(8)
        allreduce_dense(cluster, {r: np.ones(16) for r in range(8)})
        assert cluster.stats.rounds == 6
        cluster = SimulatedCluster(6)
        allreduce_dense(cluster, {r: np.ones(18) for r in range(6)})
        assert cluster.stats.rounds == 10


def _special_vectors(num_workers, n, dtype, seed):
    """Normal draws salted with ±0.0, subnormals, ±inf and NaN."""
    rng = np.random.default_rng(seed)
    specials = np.array([0.0, -0.0, 5e-324, -2.5e-320, np.inf, -np.inf, np.nan])
    vectors = {}
    for rank in range(num_workers):
        vector = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, size=n)
        salted = rng.random(n) < 0.2
        vector[salted] = rng.choice(specials, size=int(salted.sum()))
        vectors[rank] = vector.astype(dtype)
    return vectors


_ALGORITHMS = [(allreduce_ring, seed_allreduce_ring),
               (allreduce_rabenseifner, seed_allreduce_rabenseifner)]
#: Ring at every size, Rabenseifner at the power-of-two ones.
_SEED_CASES = [pytest.param(algorithm, seed_algorithm, num_workers,
                            id=f"{algorithm.__name__}-P{num_workers}")
               for algorithm, seed_algorithm in _ALGORITHMS
               for num_workers in range(1, 10)
               if algorithm is allreduce_ring or not num_workers & (num_workers - 1)]


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestCopyFreeDenseAllReduce:
    """The collectives reduce each range once into one shared read-only
    result; bytes, rounds and volumes equal the seed's copying algorithms
    (``inf + -inf`` in the salted inputs is meant to make NaNs)."""

    @pytest.mark.parametrize("algorithm, seed_algorithm, num_workers", _SEED_CASES)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bit_identical_to_the_seed(self, algorithm, seed_algorithm, num_workers, dtype):
        for n in sorted({1, num_workers - 1, num_workers, 2 * num_workers + 1, 257}):
            vectors = _special_vectors(num_workers, n, dtype, seed=1000 * num_workers + n)
            ours, seeds = SimulatedCluster(num_workers), SimulatedCluster(num_workers)
            result = algorithm(ours, vectors)
            expected = seed_algorithm(seeds, vectors)
            for rank in range(num_workers):
                assert result[rank].dtype == np.float64
                assert result[rank].tobytes() == expected[rank].tobytes(), (n, rank)
            assert ours.stats.rounds == seeds.stats.rounds
            assert ours.stats.total_volume == seeds.stats.total_volume
            assert ours.stats.max_received == seeds.stats.max_received

    @pytest.mark.parametrize("algorithm, seed_algorithm", _ALGORITHMS,
                             ids=["ring", "rabenseifner"])
    @pytest.mark.parametrize("num_workers", [1, 2, 4, 8])
    def test_inputs_are_only_read(self, algorithm, seed_algorithm, num_workers):
        """Read-only inputs: any write into a caller's array would raise."""
        vectors = _special_vectors(num_workers, 37, np.float64, seed=num_workers)
        snapshot = {rank: vector.tobytes() for rank, vector in vectors.items()}
        for vector in vectors.values():
            vector.flags.writeable = False
        result = algorithm(SimulatedCluster(num_workers), vectors)
        expected = seed_algorithm(SimulatedCluster(num_workers), vectors)
        for rank in range(num_workers):
            assert result[rank].tobytes() == expected[rank].tobytes()
            assert vectors[rank].tobytes() == snapshot[rank]

    @pytest.mark.parametrize("num_workers", [1, 2, 3, 4, 6, 8])
    def test_every_rank_shares_one_read_only_result(self, num_workers):
        vectors = {r: np.random.default_rng(r).normal(size=11) for r in range(num_workers)}
        result = allreduce_dense(SimulatedCluster(num_workers), vectors)
        shared = result[0]
        assert all(result[rank] is shared for rank in range(num_workers))
        assert not shared.flags.writeable
        assert all(not np.shares_memory(shared, vector) for vector in vectors.values())
        with pytest.raises(ValueError):
            shared[0] = 1.0

    def test_sub_group_shares_one_result(self):
        cluster = SimulatedCluster(6)
        vectors = {r: np.full(5, float(r)) for r in (1, 3, 4, 5)}
        result = allreduce_ring(cluster, vectors, group=[1, 3, 4])
        assert sorted(result) == [1, 3, 4]
        assert result[1] is result[3] is result[4]
        np.testing.assert_array_equal(result[1], np.full(5, 8.0))


class TestDenseAllReduceInputs:
    """Mismatched inputs raise a ``ValueError`` naming the rank on both
    algorithms instead of returning a partly reduced or truncated vector."""

    @pytest.mark.parametrize("algorithm, num_workers",
                             [(allreduce_rabenseifner, 4), (allreduce_ring, 3),
                              (allreduce_ring, 4)])
    def test_length_mismatch(self, algorithm, num_workers):
        vectors = {r: np.ones(8) for r in range(num_workers)}
        vectors[1] = np.ones(9)
        with pytest.raises(ValueError, match="rank 1's input has 9 elements"):
            algorithm(SimulatedCluster(num_workers), vectors)

    @pytest.mark.parametrize("algorithm, num_workers",
                             [(allreduce_rabenseifner, 4), (allreduce_ring, 3)])
    def test_missing_rank(self, algorithm, num_workers):
        vectors = {r: np.ones(8) for r in range(num_workers - 1)}
        with pytest.raises(ValueError, match=f"rank {num_workers - 1} of the group has no input"):
            algorithm(SimulatedCluster(num_workers), vectors)

    @pytest.mark.parametrize("algorithm, num_workers",
                             [(allreduce_rabenseifner, 4), (allreduce_ring, 3),
                              (allreduce_ring, 1)])
    def test_not_one_dimensional(self, algorithm, num_workers):
        vectors = {r: np.ones(8) for r in range(num_workers)}
        vectors[0] = np.ones((2, 4))
        with pytest.raises(ValueError, match=r"rank 0's input has shape \(2, 4\)"):
            algorithm(SimulatedCluster(num_workers), vectors)


class TestVolumeAccounting:
    """Recorded volumes must equal the closed-form element counts exactly —
    control metadata (group positions, slice offsets, block ids) is free."""

    @pytest.mark.parametrize("num_workers", [2, 4, 8, 16])
    def test_recursive_doubling_allgather_volume_is_exact(self, num_workers):
        item_size = 3
        cluster = SimulatedCluster(num_workers)
        items = {r: np.full(item_size, float(r)) for r in range(num_workers)}
        allgather_recursive_doubling(cluster, items)
        # Every worker ends holding all P items, P-1 of which arrived over
        # the wire; the position ints it also receives are metadata.
        expected = float(item_size * (num_workers - 1))
        for rank in range(num_workers):
            assert cluster.stats.received_per_worker[rank] == expected

    @pytest.mark.parametrize("num_workers", [2, 4, 8, 16])
    def test_rabenseifner_volume_is_exact(self, num_workers):
        n = 16 * num_workers  # divisible so halving never truncates
        cluster = SimulatedCluster(num_workers)
        vectors = {r: np.random.default_rng(r).normal(size=n) for r in range(num_workers)}
        allreduce_rabenseifner(cluster, vectors)
        # Recursive halving: n/2 + n/4 + ... + n/P = n(P-1)/P, then the
        # all-gather mirrors it; slice offsets are metadata.
        expected = 2.0 * n * (num_workers - 1) / num_workers
        for rank in range(num_workers):
            assert cluster.stats.received_per_worker[rank] == expected

    @pytest.mark.parametrize("num_workers", [2, 3, 5, 8])
    def test_bruck_sparse_allgather_volume_is_exact(self, num_workers):
        from repro.sparse.vector import SparseGradient

        nnz = 4
        cluster = SimulatedCluster(num_workers)
        items = {
            r: SparseGradient(np.arange(nnz, dtype=np.int64) + r * nnz,
                              np.ones(nnz), num_workers * nnz)
            for r in range(num_workers)
        }
        allgather_bruck(cluster, items)
        # P-1 foreign items of 2*nnz elements each; the packed wire format's
        # bag ids and offsets must not change the count.
        expected = 2.0 * nnz * (num_workers - 1)
        for rank in range(num_workers):
            assert cluster.stats.received_per_worker[rank] == expected
