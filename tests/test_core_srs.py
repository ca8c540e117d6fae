"""Unit tests for Spar-Reduce-Scatter."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.comm.cluster import SimulatedCluster
from repro.core.residuals import ResidualManager, ResidualPolicy
from repro.core.spardl import make_teams
from repro.core.srs import spar_reduce_scatter
from repro.sparse.blocks import BlockLayout

from tests.helpers import random_gradients


def run_srs(num_workers, num_elements, k_block, *, num_teams=1, sparsify_all=False,
            policy=ResidualPolicy.GLOBAL, seed=0, bucket_sizes=None, gradients=None):
    cluster = SimulatedCluster(num_workers)
    teams = make_teams(num_workers, num_teams)
    layout = BlockLayout(num_elements, num_workers // num_teams, bucket_sizes)
    residuals = ResidualManager(num_workers, num_elements, policy)
    if gradients is None:
        gradients = random_gradients(num_workers, num_elements, seed=seed)
    output = spar_reduce_scatter(cluster, teams, residuals.apply(gradients), layout,
                                 k_block, residuals, sparsify_all=sparsify_all)
    return cluster, output, residuals, gradients


class TestSRSStructure:
    @pytest.mark.parametrize("num_workers", [2, 3, 4, 5, 6, 7, 8, 14])
    def test_each_worker_owns_its_rank_block(self, num_workers):
        _, output, _, _ = run_srs(num_workers, 200, 3)
        for rank in range(num_workers):
            assert output.owned_block[rank] == rank

    @pytest.mark.parametrize("num_workers", [2, 3, 5, 6, 8, 14])
    def test_reduced_block_stays_inside_block_bounds(self, num_workers):
        _, output, _, _ = run_srs(num_workers, 300, 4)
        for rank in range(num_workers):
            lo, hi = output.layout.bound(rank)
            indices = output.reduced_blocks[rank].indices
            assert ((indices >= lo) & (indices < hi)).all()

    @pytest.mark.parametrize("num_workers", [2, 3, 5, 6, 8, 14])
    def test_block_nnz_bounded_by_k_block(self, num_workers):
        k_block = 4
        _, output, _, _ = run_srs(num_workers, 300, k_block)
        for rank in range(num_workers):
            assert output.reduced_blocks[rank].nnz <= k_block

    @pytest.mark.parametrize("num_workers", [2, 3, 5, 6, 8, 14, 16])
    def test_number_of_rounds_is_ceil_log2(self, num_workers):
        cluster, output, _, _ = run_srs(num_workers, 300, 4)
        expected = math.ceil(math.log2(num_workers))
        assert output.num_steps == expected
        assert cluster.stats.rounds == expected

    def test_single_worker_needs_no_communication(self):
        cluster, output, _, _ = run_srs(1, 50, 5)
        assert cluster.stats.rounds == 0
        assert output.reduced_blocks[0].nnz <= 5

    def test_bandwidth_matches_equation_2(self):
        """Each worker receives at most 2k(P-1)/P elements during SRS."""
        num_workers, num_elements, k_block = 8, 400, 5
        cluster, _, _, _ = run_srs(num_workers, num_elements, k_block)
        k = k_block * num_workers
        bound = 2 * k * (num_workers - 1) / num_workers
        assert cluster.stats.max_received <= bound + 1e-9

    def test_teams_run_concurrently(self):
        # Two teams of 4 share rounds: still ceil(log2 4) = 2 rounds.
        cluster, output, _, _ = run_srs(8, 400, 5, num_teams=2)
        assert cluster.stats.rounds == 2
        for rank in range(8):
            assert output.owned_block[rank] == rank % 4


class TestSRSCorrectness:
    @pytest.mark.parametrize("num_workers", [2, 3, 6, 8])
    def test_dense_k_reduces_exactly(self, num_workers):
        """With k_block equal to the block size, SRS is an exact (dense)
        Reduce-Scatter: every owned block equals the sum of all workers'
        blocks."""
        num_elements = num_workers * 10
        cluster = SimulatedCluster(num_workers)
        teams = make_teams(num_workers, 1)
        layout = BlockLayout(num_elements, num_workers)
        residuals = ResidualManager(num_workers, num_elements, ResidualPolicy.GLOBAL)
        gradients = random_gradients(num_workers, num_elements, seed=3)
        output = spar_reduce_scatter(cluster, teams, residuals.apply(gradients), layout,
                                     10, residuals)
        total = sum(gradients.values())
        for rank in range(num_workers):
            lo, hi = layout.bound(rank)
            np.testing.assert_allclose(output.reduced_blocks[rank].to_dense()[lo:hi],
                                       total[lo:hi], atol=1e-12)

    @pytest.mark.parametrize("num_workers", [2, 5, 6, 8, 14])
    @pytest.mark.parametrize("sparsify_all", [False, True])
    def test_conservation_with_global_residuals(self, num_workers, sparsify_all):
        """Reduced blocks plus all residuals reconstruct the total gradient."""
        num_elements = 120
        _, output, residuals, gradients = run_srs(num_workers, num_elements, 2,
                                                  sparsify_all=sparsify_all)
        total = sum(gradients.values())
        reconstructed = residuals.total_residual()
        for rank in range(num_workers):
            reconstructed = reconstructed + output.reduced_blocks[rank].to_dense()
        np.testing.assert_allclose(reconstructed, total, atol=1e-9)

    def test_optimized_and_unoptimized_hold_same_owned_blocks_structure(self):
        _, fast, _, _ = run_srs(6, 200, 3, sparsify_all=False, seed=7)
        _, slow, _, _ = run_srs(6, 200, 3, sparsify_all=True, seed=7)
        for rank in range(6):
            assert fast.reduced_blocks[rank].nnz <= 3
            assert slow.reduced_blocks[rank].nnz <= 3

    def test_max_bag_nnz_never_exceeds_bag_capacity_times_k(self):
        num_workers, k_block = 6, 3
        _, output, _, _ = run_srs(num_workers, 300, k_block)
        capacities = [2, 2, 1]  # bag sizes sent at steps 1..3 for 6 workers: E=2, 2, 1
        for step_max, capacity in zip(output.max_bag_nnz_per_step, capacities):
            assert step_max <= capacity * k_block


class TestSRSWireFormat:
    """Every bag travels as one batched ``PackedBags`` message."""

    @pytest.mark.parametrize("num_workers", [2, 3, 5, 6, 8, 14])
    def test_packed_emits_one_message_per_worker_per_step(self, num_workers):
        cluster, output, _, _ = run_srs(num_workers, 300, 4)
        assert cluster.stats.total_messages == num_workers * output.num_steps


class TestSRSOverBuckets:
    """One SRS over a gradient that concatenates separately selected
    buckets: every bucket is a set of segments of the block layout, the
    result is that of one SRS per bucket, the rounds are those of one."""

    SIZES = (130, 1, 47, 2, 120)  # with tensors shorter than the team
    BUDGETS = (3, 1, 2, 1, 4)     # per segment, bucket by bucket

    @pytest.mark.parametrize("num_workers,num_teams", [(2, 1), (5, 1), (6, 2), (8, 2), (8, 1)])
    @pytest.mark.parametrize("sparsify_all", [False, True])
    def test_equals_one_srs_per_bucket(self, num_workers, num_teams, sparsify_all):
        team_size = num_workers // num_teams
        total = sum(self.SIZES)
        gradients = random_gradients(num_workers, total, seed=13)
        cluster, fused, fused_res, _ = run_srs(
            num_workers, total, np.repeat(self.BUDGETS, team_size),
            num_teams=num_teams, sparsify_all=sparsify_all,
            bucket_sizes=self.SIZES, gradients=gradients)
        residual = fused_res.total_residual()
        lo = 0
        for size, budget in zip(self.SIZES, self.BUDGETS):
            single_cluster, single, single_res, _ = run_srs(
                num_workers, size, budget, num_teams=num_teams,
                sparsify_all=sparsify_all,
                gradients={rank: grad[lo:lo + size] for rank, grad in gradients.items()})
            assert cluster.stats.rounds == single_cluster.stats.rounds
            for rank in range(num_workers):
                part = fused.reduced_blocks[rank].restrict(lo, lo + size)
                np.testing.assert_array_equal(part.indices - lo,
                                              single.reduced_blocks[rank].indices)
                np.testing.assert_array_equal(part.values,
                                              single.reduced_blocks[rank].values)
            np.testing.assert_array_equal(residual[lo:lo + size],
                                          single_res.total_residual())
            lo += size
        assert cluster.stats.total_messages == num_workers * fused.num_steps

    def test_sixteen_buckets_cost_the_rounds_of_one(self):
        """P = 64, n = 1e5 at density 0.01 in 16 buckets (weights of
        doubling size, each followed by a bias a hundredth of it): one SRS
        sends one packed message per worker per step, and one SRS per bucket
        takes exactly 16 times its rounds and messages for the same
        recorded volume."""
        P, n = 64, 100_000
        weights = 2.0 ** np.arange(8)
        sizes = []
        for share in weights / weights.sum():
            weight = int(share * n / 1.01)
            sizes += [weight, max(1, weight // 100)]
        sizes[-2] += n - sum(sizes)
        budgets = [max(1, round(0.01 * size) // P) for size in sizes]
        gradients = random_gradients(P, n)
        shared = run_srs(P, n, np.repeat(budgets, P), bucket_sizes=sizes,
                         gradients=gradients)[0].stats
        per_bucket = SimulatedCluster(P)
        lo = 0
        for size, budget in zip(sizes, budgets):
            residuals = ResidualManager(P, size)
            sliced = {rank: grad[lo:lo + size] for rank, grad in gradients.items()}
            spar_reduce_scatter(per_bucket, [list(range(P))], residuals.apply(sliced),
                                BlockLayout(size, P), budget, residuals)
            lo += size
        assert shared.total_messages == P * shared.rounds
        assert per_bucket.stats.rounds == 16 * shared.rounds
        assert per_bucket.stats.total_messages == 16 * shared.total_messages
        assert per_bucket.stats.received_per_worker == shared.received_per_worker

    def test_a_message_keeps_one_bag_per_segment(self):
        """Bag ids are segment numbers: block ``j`` of a team of 4 is the
        segments ``j, j + 4, ...``, bucket after bucket."""
        seen = []
        cluster = SimulatedCluster(4)
        inner = cluster.exchange
        cluster.exchange = lambda messages: seen.extend(messages) or inner(messages)
        layout = BlockLayout(300, 4, (200, 60, 40))
        residuals = ResidualManager(4, 300)
        gradients = random_gradients(4, 300, seed=2)
        spar_reduce_scatter(cluster, [[0, 1, 2, 3]], residuals.apply(gradients),
                            layout, 2, residuals)
        first = next(m for m in seen if m.src == 0 and m.tag == "srs-1")
        # worker 0 first sends its last bag: blocks 2 and 3
        assert first.payload.ids == (2, 6, 10, 3, 7, 11)
        for position, segment in enumerate(first.payload.ids):
            lo, hi = layout.bound(segment)
            bag = first.payload.bag(position)
            assert bag.nnz <= 2
            assert ((bag.indices >= lo) & (bag.indices < hi)).all()
        block = first.payload.span(0, 3)  # block 2 again, as one sorted COO
        assert (np.diff(block.indices) > 0).all()


class TestSRSValidation:
    def test_rejects_unequal_teams(self):
        cluster = SimulatedCluster(5)
        layout = BlockLayout(50, 3)
        residuals = ResidualManager(5, 50)
        with pytest.raises(ValueError):
            spar_reduce_scatter(cluster, [[0, 1, 2], [3, 4]],
                                random_gradients(5, 50), layout, 2, residuals)

    def test_rejects_layout_team_mismatch(self):
        cluster = SimulatedCluster(4)
        layout = BlockLayout(50, 3)
        residuals = ResidualManager(4, 50)
        with pytest.raises(ValueError):
            spar_reduce_scatter(cluster, [[0, 1, 2, 3]],
                                random_gradients(4, 50), layout, 2, residuals)

    def test_rejects_duplicate_workers_across_teams(self):
        cluster = SimulatedCluster(4)
        layout = BlockLayout(50, 2)
        residuals = ResidualManager(4, 50)
        with pytest.raises(ValueError):
            spar_reduce_scatter(cluster, [[0, 1], [1, 2]],
                                random_gradients(4, 50), layout, 2, residuals)

    def test_rejects_non_positive_k(self):
        cluster = SimulatedCluster(2)
        layout = BlockLayout(50, 2)
        residuals = ResidualManager(2, 50)
        with pytest.raises(ValueError):
            spar_reduce_scatter(cluster, [[0, 1]], random_gradients(2, 50),
                                layout, 0, residuals)

    def test_rejects_empty_teams(self):
        cluster = SimulatedCluster(2)
        layout = BlockLayout(50, 2)
        residuals = ResidualManager(2, 50)
        with pytest.raises(ValueError):
            spar_reduce_scatter(cluster, [], random_gradients(2, 50), layout, 2, residuals)
