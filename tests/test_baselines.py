"""Unit tests for the baseline sparse All-Reduce methods."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.api import make
from repro.baselines.base import power_of_two_split
from repro.baselines.dense import DenseAllReduceSynchronizer
from repro.baselines.gtopk import GTopkSynchronizer
from repro.baselines.ok_topk import OkTopkSynchronizer
from repro.baselines.topk_a import TopkASynchronizer
from repro.baselines.topk_dsa import TopkDSASynchronizer
from repro.comm.cluster import SimulatedCluster

from tests.helpers import random_gradients


class TestPowerOfTwoSplit:
    def test_exact_power(self):
        assert power_of_two_split(8) == (8, 0)

    def test_non_power(self):
        assert power_of_two_split(14) == (8, 6)
        assert power_of_two_split(5) == (4, 1)

    def test_single_worker(self):
        assert power_of_two_split(1) == (1, 0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            power_of_two_split(0)


class TestDenseAllReduce:
    @pytest.mark.parametrize("num_workers", [1, 2, 4, 6, 8])
    def test_exact_sum(self, num_workers):
        cluster = SimulatedCluster(num_workers)
        sync = DenseAllReduceSynchronizer(cluster, 64)
        gradients = random_gradients(num_workers, 64)
        result = sync.synchronize(gradients)
        assert result.is_consistent
        np.testing.assert_allclose(result.gradient(0), sum(gradients.values()), atol=1e-10)

    @pytest.mark.parametrize("spec", ["dense", "dense?bits=8", "spardl?density=0.6"])
    @pytest.mark.parametrize("num_workers", [1, 3, 4])
    def test_every_worker_shares_one_read_only_result(self, spec, num_workers):
        """Dense steps (``spardl?density=0.6`` is past the dense crossover)
        hand every worker the same read-only global gradient."""
        sync = make(spec, SimulatedCluster(num_workers), num_elements=50)
        for step in range(2):
            result = sync.synchronize(random_gradients(num_workers, 50, seed=step))
            if spec.startswith("spardl"):
                assert result.info["dense_fallback"]
            shared = result.gradient(0)
            assert all(result.gradient(w) is shared for w in range(num_workers))
            assert not shared.flags.writeable
            assert result.is_consistent


class TestTopkA:
    @pytest.mark.parametrize("num_workers", [1, 2, 4, 5, 8, 14])
    def test_consistency(self, num_workers):
        cluster = SimulatedCluster(num_workers)
        sync = TopkASynchronizer(cluster, 400, k=20)
        result = sync.synchronize(random_gradients(num_workers, 400))
        assert result.is_consistent

    def test_result_is_sum_of_local_selections(self):
        num_workers = 4
        cluster = SimulatedCluster(num_workers)
        sync = TopkASynchronizer(cluster, 100, k=100)
        gradients = random_gradients(num_workers, 100)
        result = sync.synchronize(gradients)
        # k = n means nothing is pruned: exact sum.
        np.testing.assert_allclose(result.gradient(0), sum(gradients.values()), atol=1e-10)

    def test_latency_log_p_for_power_of_two(self):
        cluster = SimulatedCluster(8)
        sync = TopkASynchronizer(cluster, 400, k=20)
        result = sync.synchronize(random_gradients(8, 400))
        assert result.stats.rounds == 3

    def test_latency_non_power_of_two_adds_fold_rounds(self):
        cluster = SimulatedCluster(14)
        sync = TopkASynchronizer(cluster, 400, k=20)
        result = sync.synchronize(random_gradients(14, 400))
        assert result.stats.rounds == 3 + 2  # log2(8) + fold-in + fold-out

    def test_bandwidth_close_to_2_p_minus_1_k(self):
        """TopkA's gathered contributions grow towards 2(P-1)k elements."""
        num_workers, k = 8, 30
        cluster = SimulatedCluster(num_workers)
        sync = TopkASynchronizer(cluster, 3000, k=k)
        result = sync.synchronize(random_gradients(num_workers, 3000))
        bound = 2 * (num_workers - 1) * k
        assert result.stats.max_received <= bound + 1e-9
        assert result.stats.max_received >= 0.5 * bound

    def test_sga_dilemma_visible_in_final_density(self):
        """Because TopkA only sums at the end, the global gradient has up to
        P*k non-zeros (the SGA dilemma it does not try to compress away)."""
        num_workers, k = 8, 25
        cluster = SimulatedCluster(num_workers)
        sync = TopkASynchronizer(cluster, 5000, k=k)
        result = sync.synchronize(random_gradients(num_workers, 5000))
        assert result.info["final_nnz"] > 3 * k


class TestTopkDSA:
    @pytest.mark.parametrize("num_workers", [1, 2, 4, 5, 8, 14])
    def test_consistency(self, num_workers):
        cluster = SimulatedCluster(num_workers)
        sync = TopkDSASynchronizer(cluster, 400, k=20)
        result = sync.synchronize(random_gradients(num_workers, 400))
        assert result.is_consistent

    def test_exact_when_k_equals_n(self):
        num_workers = 6
        cluster = SimulatedCluster(num_workers)
        sync = TopkDSASynchronizer(cluster, 90, k=90)
        gradients = random_gradients(num_workers, 90)
        result = sync.synchronize(gradients)
        np.testing.assert_allclose(result.gradient(0), sum(gradients.values()), atol=1e-10)

    def test_latency_includes_direct_send_reduce_scatter(self):
        num_workers = 8
        cluster = SimulatedCluster(num_workers)
        sync = TopkDSASynchronizer(cluster, 400, k=20)
        result = sync.synchronize(random_gradients(num_workers, 400))
        # P-1 reduce-scatter rounds plus log2(P) all-gather rounds.
        assert result.stats.rounds == (num_workers - 1) + 3

    def test_dense_switching_caps_block_size(self):
        """A block's transfer never costs more than its dense representation."""
        num_workers, num_elements = 4, 80
        cluster = SimulatedCluster(num_workers)
        sync = TopkDSASynchronizer(cluster, num_elements, k=num_elements)
        result = sync.synchronize(random_gradients(num_workers, num_elements))
        block = num_elements / num_workers
        # Reduce-scatter: (P-1) COO region messages of up to 2*block elements.
        # All-gather: every received block is capped at its dense size, so the
        # busiest worker gets at most (P-1) dense blocks there.  Without the
        # dense switch the all-gather term would be twice as large.
        bound = (num_workers - 1) * block * 2 + (num_workers - 1) * block
        assert result.stats.max_received <= bound + 1e-9


class TestGTopk:
    def test_requires_power_of_two(self):
        cluster = SimulatedCluster(6)
        with pytest.raises(ValueError):
            GTopkSynchronizer(cluster, 100, k=10)

    @pytest.mark.parametrize("num_workers", [2, 4, 8])
    def test_consistency(self, num_workers):
        cluster = SimulatedCluster(num_workers)
        sync = GTopkSynchronizer(cluster, 400, k=20)
        result = sync.synchronize(random_gradients(num_workers, 400))
        assert result.is_consistent

    def test_final_gradient_has_exactly_k_nonzeros(self):
        num_workers, k = 8, 25
        cluster = SimulatedCluster(num_workers)
        sync = GTopkSynchronizer(cluster, 2000, k=k)
        result = sync.synchronize(random_gradients(num_workers, 2000))
        assert result.info["final_nnz"] == k

    def test_latency_is_log_p(self):
        cluster = SimulatedCluster(8)
        sync = GTopkSynchronizer(cluster, 400, k=20)
        result = sync.synchronize(random_gradients(8, 400))
        assert result.stats.rounds == 3

    def test_bandwidth_bounded_by_2k_log_p(self):
        num_workers, k = 8, 30
        cluster = SimulatedCluster(num_workers)
        sync = GTopkSynchronizer(cluster, 3000, k=k)
        result = sync.synchronize(random_gradients(num_workers, 3000))
        assert result.stats.max_received <= 2 * k * math.log2(num_workers) * 2 + 1e-9


class TestOkTopk:
    @pytest.mark.parametrize("num_workers", [1, 2, 4, 5, 8, 14])
    def test_consistency(self, num_workers):
        cluster = SimulatedCluster(num_workers)
        sync = OkTopkSynchronizer(cluster, 400, k=20)
        result = sync.synchronize(random_gradients(num_workers, 400))
        assert result.is_consistent

    def test_threshold_pruning_selection_fluctuates_around_k(self):
        num_workers, k = 4, 50
        cluster = SimulatedCluster(num_workers)
        sync = OkTopkSynchronizer(cluster, 2000, k=k)
        counts = []
        for iteration in range(6):
            result = sync.synchronize(random_gradients(num_workers, 2000, seed=iteration))
            counts.extend(result.info["selected_per_worker"].values())
        mean_count = np.mean(counts)
        assert 0.4 * k <= mean_count <= 3.0 * k

    def test_threshold_pruning_can_exceed_k(self):
        """The paper notes Ok-Topk's threshold pruning may select more than k."""
        num_workers, k = 4, 50
        cluster = SimulatedCluster(num_workers)
        sync = OkTopkSynchronizer(cluster, 2000, k=k)
        exceeded = False
        for iteration in range(8):
            result = sync.synchronize(random_gradients(num_workers, 2000, seed=100 + iteration))
            if any(count > k for count in result.info["selected_per_worker"].values()):
                exceeded = True
        assert exceeded

    def test_latency_higher_than_spardl(self):
        """Ok-Topk's direct-send phases make its round count grow linearly in P."""
        num_workers = 8
        cluster = SimulatedCluster(num_workers)
        sync = OkTopkSynchronizer(cluster, 400, k=20)
        result = sync.synchronize(random_gradients(num_workers, 400))
        assert result.stats.rounds >= 2 * (num_workers - 1)

    def test_rebalancing_runs_on_schedule(self):
        num_workers = 4
        cluster = SimulatedCluster(num_workers)
        sync = OkTopkSynchronizer(cluster, 400, k=20, rebalance_period=2)
        baseline_rounds = []
        for iteration in range(4):
            result = sync.synchronize(random_gradients(num_workers, 400, seed=iteration))
            baseline_rounds.append(result.stats.rounds)
        # Iterations 0 and 2 include the extra rebalancing exchange.
        assert baseline_rounds[0] > baseline_rounds[1]
        assert baseline_rounds[2] > baseline_rounds[3]

    def test_region_boundaries_remain_valid_after_rebalance(self):
        num_workers = 4
        cluster = SimulatedCluster(num_workers)
        sync = OkTopkSynchronizer(cluster, 400, k=20, rebalance_period=1)
        for iteration in range(3):
            sync.synchronize(random_gradients(num_workers, 400, seed=iteration))
            assert sync.boundaries[0] == 0
            assert sync.boundaries[-1] == 400
            assert all(b1 < b2 for b1, b2 in zip(sync.boundaries, sync.boundaries[1:]))


class TestLocalSelectionGoesThroughTheWarmSelector:
    """TopkA, TopkDSA and gTopk select through the selector SparDL uses (a
    cut per rank, the whole vector one segment, the fused add) — so that
    wall-clock comparisons pay one selection cost — and still take exactly
    ``top_k_indices`` of gradient + residual, step after step."""

    @pytest.mark.parametrize("method", [TopkASynchronizer, TopkDSASynchronizer,
                                        GTopkSynchronizer])
    @pytest.mark.parametrize("options", [{}, {"num_bits": 8}, {"momentum": 0.9}],
                             ids=["plain", "bits=8", "momentum=0.9"])
    def test_six_steps_equal_the_cold_top_k(self, method, options, monkeypatch):
        from repro.baselines.base import SparseBaseline
        from repro.sparse.topk import top_k_indices

        def cold_select(self, gradients):
            corrected = self.residuals.apply(gradients)
            return {rank: self.residuals.take(rank, top_k_indices(dense, self.k))
                    for rank, dense in corrected.items()}

        num_workers, n = 4, 6000
        warm = method(SimulatedCluster(num_workers), n, density=0.02, **options)
        cold = method(SimulatedCluster(num_workers), n, density=0.02, **options)
        monkeypatch.setattr(cold, "local_select", cold_select.__get__(cold, SparseBaseline))
        for step in range(6):
            gradients = {rank: (1.0 + 0.05 * step) * grad ** 3 for rank, grad in
                         random_gradients(num_workers, n, seed=9).items()}
            ours, theirs = warm.synchronize(gradients), cold.synchronize(gradients)
            assert ours.stats == theirs.stats
            for rank in range(num_workers):
                for mine, reference in [
                        (ours.gradient(rank), theirs.gradient(rank)),
                        (warm.residuals.store(rank).peek(),
                         cold.residuals.store(rank).peek())]:
                    np.testing.assert_array_equal(mine.view(np.uint64),
                                                  reference.view(np.uint64))
        selector = warm.selector
        assert selector.hits + selector.misses == 6 * num_workers
        assert selector.seeded == num_workers and selector.hits > 4 * num_workers
