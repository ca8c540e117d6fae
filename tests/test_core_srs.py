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
            policy=ResidualPolicy.GLOBAL, seed=0, wire_format="packed"):
    cluster = SimulatedCluster(num_workers)
    teams = make_teams(num_workers, num_teams)
    layout = BlockLayout(num_elements, num_workers // num_teams)
    residuals = ResidualManager(num_workers, num_elements, policy)
    gradients = random_gradients(num_workers, num_elements, seed=seed)
    output = spar_reduce_scatter(cluster, teams, residuals.apply(gradients), layout,
                                 k_block, residuals,
                                 sparsify_all=sparsify_all, wire_format=wire_format)
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
    """The batched (PackedBags) and per-block wire formats are equivalent."""

    @pytest.mark.parametrize("num_workers", [2, 3, 5, 6, 8, 14])
    def test_packed_and_per_block_are_bit_identical(self, num_workers):
        _, packed, packed_res, _ = run_srs(num_workers, 300, 4, seed=11,
                                           wire_format="packed")
        _, legacy, legacy_res, _ = run_srs(num_workers, 300, 4, seed=11,
                                           wire_format="per-block")
        for rank in range(num_workers):
            np.testing.assert_array_equal(packed.reduced_blocks[rank].indices,
                                          legacy.reduced_blocks[rank].indices)
            np.testing.assert_array_equal(packed.reduced_blocks[rank].values,
                                          legacy.reduced_blocks[rank].values)
        np.testing.assert_array_equal(packed_res.total_residual(),
                                      legacy_res.total_residual())

    @pytest.mark.parametrize("num_workers", [2, 3, 5, 6, 8, 14])
    def test_packed_emits_one_message_per_worker_per_step(self, num_workers):
        cluster, output, _, _ = run_srs(num_workers, 300, 4)
        assert cluster.stats.total_messages == num_workers * output.num_steps

    def test_per_block_emits_one_message_per_block(self):
        # Over all of SRS each worker ships every non-preserved block exactly
        # once: P * (m - 1) messages in the unbatched wiring.
        num_workers = 8
        cluster, _, _, _ = run_srs(num_workers, 300, 4, wire_format="per-block")
        assert cluster.stats.total_messages == num_workers * (num_workers - 1)

    @pytest.mark.parametrize("num_workers", [3, 8])
    def test_both_formats_record_identical_volumes(self, num_workers):
        packed_cluster, _, _, _ = run_srs(num_workers, 300, 4, seed=5)
        legacy_cluster, _, _, _ = run_srs(num_workers, 300, 4, seed=5,
                                          wire_format="per-block")
        assert (packed_cluster.stats.received_per_worker
                == legacy_cluster.stats.received_per_worker)
        assert packed_cluster.stats.rounds == legacy_cluster.stats.rounds

    def test_rejects_unknown_wire_format(self):
        with pytest.raises(ValueError):
            run_srs(4, 100, 2, wire_format="json")


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
