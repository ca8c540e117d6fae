"""Integration-level tests of the SparDL synchroniser (framework of Fig. 4)."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from repro.comm.cluster import SimulatedCluster
from repro.core.config import SAGMode, SparDLConfig
from repro.core.residuals import ResidualPolicy
from repro.core.spardl import SparDLSynchronizer, make_teams

from tests.helpers import random_gradients


def build(num_workers, num_elements, *, k=None, density=0.05, num_teams=1,
          sag_mode=SAGMode.AUTO, residual_policy=ResidualPolicy.GLOBAL,
          sparsify_all=False):
    cluster = SimulatedCluster(num_workers)
    config = SparDLConfig(k=k, density=None if k else density, num_teams=num_teams,
                          sag_mode=sag_mode, residual_policy=residual_policy,
                          sparsify_all_blocks=sparsify_all)
    return cluster, SparDLSynchronizer(cluster, num_elements, config)


class TestMakeTeams:
    def test_contiguous_teams(self):
        assert make_teams(6, 3) == [[0, 1], [2, 3], [4, 5]]

    def test_single_team(self):
        assert make_teams(4, 1) == [[0, 1, 2, 3]]

    def test_invalid(self):
        with pytest.raises(ValueError):
            make_teams(6, 4)
        with pytest.raises(ValueError):
            make_teams(0, 1)


class TestSparDLBasics:
    @pytest.mark.parametrize("num_workers", [1, 2, 3, 5, 6, 8, 14])
    def test_all_workers_hold_identical_gradients(self, num_workers):
        _, sync = build(num_workers, 400)
        result = sync.synchronize(random_gradients(num_workers, 400))
        assert result.is_consistent

    @pytest.mark.parametrize("num_teams,num_workers", [(2, 8), (4, 8), (7, 14), (3, 12), (14, 14)])
    def test_consistency_with_teams(self, num_teams, num_workers):
        _, sync = build(num_workers, 400, num_teams=num_teams)
        result = sync.synchronize(random_gradients(num_workers, 400))
        assert result.is_consistent

    def test_final_nnz_close_to_k(self):
        num_workers, num_elements = 8, 800
        _, sync = build(num_workers, num_elements, k=80)
        result = sync.synchronize(random_gradients(num_workers, num_elements))
        # P blocks of k/P non-zeros each -> about k in total.
        assert result.info["final_nnz"] <= 80
        assert result.info["final_nnz"] >= 80 // 2

    def test_dense_k_equals_exact_allreduce(self):
        """With k = n the sparse pipeline degenerates to an exact dense
        All-Reduce."""
        num_workers, num_elements = 6, 120
        _, sync = build(num_workers, num_elements, k=num_elements)
        gradients = random_gradients(num_workers, num_elements)
        result = sync.synchronize(gradients)
        assert result.info["srs_steps"] > 0
        np.testing.assert_allclose(result.gradient(0), sum(gradients.values()), atol=1e-9)

    def test_latency_matches_equation_4(self):
        """SparDL (d=1) uses 2*ceil(log2 P) rounds."""
        for num_workers in (2, 3, 5, 6, 8, 14):
            cluster, sync = build(num_workers, 300)
            result = sync.synchronize(random_gradients(num_workers, 300))
            assert result.stats.rounds == 2 * math.ceil(math.log2(num_workers))

    def test_bandwidth_matches_equation_4(self):
        """SparDL (d=1) receives at most 4k(P-1)/P elements per worker."""
        num_workers, num_elements, k = 8, 800, 80
        cluster, sync = build(num_workers, num_elements, k=k)
        result = sync.synchronize(random_gradients(num_workers, num_elements))
        bound = 4 * k * (num_workers - 1) / num_workers
        assert result.stats.max_received <= bound + 1e-9

    def test_single_worker_no_communication(self):
        _, sync = build(1, 100, k=10)
        gradients = random_gradients(1, 100)
        result = sync.synchronize(gradients)
        assert result.stats.rounds == 0
        assert result.info["final_nnz"] <= 10

    def test_stats_window_is_per_synchronize_call(self):
        _, sync = build(4, 200)
        first = sync.synchronize(random_gradients(4, 200, seed=1))
        second = sync.synchronize(random_gradients(4, 200, seed=2))
        assert first.stats.rounds == second.stats.rounds

    def test_iteration_counter_advances(self):
        _, sync = build(4, 200)
        sync.synchronize(random_gradients(4, 200))
        sync.synchronize(random_gradients(4, 200))
        assert sync.iteration == 2

    def test_gradient_validation(self):
        _, sync = build(4, 200)
        with pytest.raises(ValueError):
            sync.synchronize({0: np.zeros(200)})
        with pytest.raises(ValueError):
            sync.synchronize({w: np.zeros(100) for w in range(4)})


class TestSparDLResidualConservation:
    @pytest.mark.parametrize("num_teams,num_workers,mode", [
        (1, 6, SAGMode.AUTO),
        (2, 8, SAGMode.RSAG),
        (4, 8, SAGMode.RSAG),
        (7, 14, SAGMode.BSAG),
        (3, 12, SAGMode.BSAG),
        (2, 8, SAGMode.BSAG),
    ])
    def test_global_gradient_plus_residuals_conserves_mass(self, num_teams, num_workers, mode):
        num_elements = 300
        _, sync = build(num_workers, num_elements, num_teams=num_teams, sag_mode=mode)
        gradients = random_gradients(num_workers, num_elements)
        result = sync.synchronize(gradients)
        reconstructed = result.gradient(0) + sync.residuals.total_residual()
        np.testing.assert_allclose(reconstructed, sum(gradients.values()), atol=1e-8)

    def test_conservation_holds_across_iterations(self):
        """Residuals are re-applied each iteration, so (final + residual)
        always equals the sum of everything fed in so far minus what was
        already applied to the model."""
        num_workers, num_elements = 6, 200
        _, sync = build(num_workers, num_elements, density=0.02)
        applied = np.zeros(num_elements)
        fed = np.zeros(num_elements)
        for iteration in range(4):
            gradients = random_gradients(num_workers, num_elements, seed=iteration)
            fed += sum(gradients.values())
            result = sync.synchronize(gradients)
            applied += result.gradient(0)
            np.testing.assert_allclose(applied + sync.residuals.total_residual(), fed,
                                       atol=1e-8)


class TestSparDLWithSAG:
    def test_rsag_reduces_rounds_versus_d1(self):
        num_workers, num_elements = 8, 800
        _, base = build(num_workers, num_elements, k=80, num_teams=1)
        _, teamed = build(num_workers, num_elements, k=80, num_teams=2, sag_mode=SAGMode.RSAG)
        r_base = base.synchronize(random_gradients(num_workers, num_elements))
        r_team = teamed.synchronize(random_gradients(num_workers, num_elements))
        assert r_team.stats.rounds < r_base.stats.rounds

    def test_bsag_reduces_rounds_versus_d1_on_14_workers(self):
        num_workers, num_elements = 14, 700
        _, base = build(num_workers, num_elements, k=140, num_teams=1)
        _, teamed = build(num_workers, num_elements, k=140, num_teams=7, sag_mode=SAGMode.BSAG)
        r_base = base.synchronize(random_gradients(num_workers, num_elements))
        r_team = teamed.synchronize(random_gradients(num_workers, num_elements))
        assert r_team.stats.rounds < r_base.stats.rounds

    def test_bsag_controller_tracks_history(self):
        num_workers = 12
        _, sync = build(num_workers, 600, k=120, num_teams=3, sag_mode=SAGMode.BSAG)
        for iteration in range(5):
            sync.synchronize(random_gradients(num_workers, 600, seed=iteration))
        assert sync.controller is not None
        assert len(sync.controller.history) == 5
        assert len(sync.merged_nnz_history) == 5

    def test_rsag_has_no_controller(self):
        _, sync = build(8, 400, num_teams=2, sag_mode=SAGMode.RSAG)
        assert sync.controller is None

    def test_sag_info_reported(self):
        _, sync = build(14, 700, k=140, num_teams=7, sag_mode=SAGMode.BSAG)
        result = sync.synchronize(random_gradients(14, 700))
        assert "sag_steps" in result.info
        assert result.info["sag_h"] is not None

    def test_latency_matches_equation_7_for_rsag(self):
        """2*ceil(log2(P/d)) + log2(d) rounds."""
        num_workers, num_teams = 8, 4
        _, sync = build(num_workers, 400, k=80, num_teams=num_teams, sag_mode=SAGMode.RSAG)
        result = sync.synchronize(random_gradients(num_workers, 400))
        expected = 2 * math.ceil(math.log2(num_workers // num_teams)) + int(math.log2(num_teams))
        assert result.stats.rounds == expected

    def test_latency_matches_equation_10_for_bsag(self):
        """2*ceil(log2(P/d)) + ceil(log2 d) rounds."""
        num_workers, num_teams = 12, 3
        _, sync = build(num_workers, 600, k=120, num_teams=num_teams, sag_mode=SAGMode.BSAG)
        result = sync.synchronize(random_gradients(num_workers, 600))
        expected = (2 * math.ceil(math.log2(num_workers // num_teams))
                    + math.ceil(math.log2(num_teams)))
        assert result.stats.rounds == expected


class TestHighDensity:
    """SparDL is one pipeline at every density: up to k = n every step runs
    SRS inside teams of two or more and SAG across teams, stays consistent
    and holds the ledger
    ``global + residual_after == residual_before + m * velocity_before +
    sum_w gradient_w`` to 1e-9."""

    @pytest.mark.parametrize("density", [0.5, 0.6, 0.8, 1.0])
    @pytest.mark.parametrize("num_workers", [2, 3, 4, 6, 8])
    def test_every_step_runs_the_sparse_pipeline(self, num_workers, density):
        num_elements = 240
        teams = (1, 2) if num_workers % 2 == 0 else (1,)
        for num_teams, bits, momentum, sizes in itertools.product(
                teams, (None, 8), (None, 0.9), ([num_elements], [120, 72, 48])):
            sync = SparDLSynchronizer(
                SimulatedCluster(num_workers), sizes,
                SparDLConfig(density=density, num_teams=num_teams,
                             num_bits=bits, momentum=momentum))
            factor = momentum or 0.0
            for step in range(3):
                gradients = random_gradients(num_workers, num_elements, seed=7 * step)
                residual_before = sync.residuals.total_residual()
                velocity_before = sync.residuals.total_velocity()
                result = sync.synchronize(gradients)
                if num_workers > num_teams:
                    assert result.info["srs_steps"] > 0
                if num_teams > 1:
                    assert result.info["sag_steps"] > 0
                assert "dense_fallback" not in result.info
                assert result.is_consistent
                np.testing.assert_allclose(
                    result.gradient(0) + sync.residuals.total_residual(),
                    residual_before + factor * velocity_before + sum(gradients.values()),
                    rtol=0, atol=1e-9)

    def test_k_equal_to_n_leaves_no_residual(self):
        num_workers, num_elements = 8, 400
        _, sync = build(num_workers, num_elements, density=1.0)
        sync.residuals.store(2).add_dense(np.full(num_elements, 0.5))
        gradients = random_gradients(num_workers, num_elements)
        result = sync.synchronize(gradients)
        np.testing.assert_allclose(result.gradient(0), sum(gradients.values()) + 0.5,
                                   atol=1e-9)
        assert sync.residuals.total_residual() == pytest.approx(0.0)


class TestSparDLResidualPolicies:
    @pytest.mark.parametrize("policy", [ResidualPolicy.GLOBAL, ResidualPolicy.PARTIAL,
                                        ResidualPolicy.LOCAL, ResidualPolicy.NONE])
    def test_all_policies_produce_consistent_results(self, policy):
        _, sync = build(6, 300, residual_policy=policy)
        result = sync.synchronize(random_gradients(6, 300))
        assert result.is_consistent

    def test_global_keeps_at_least_as_much_residual_mass_as_partial_and_local(self):
        gradients = random_gradients(8, 400, seed=9)
        norms = {}
        for policy in (ResidualPolicy.GLOBAL, ResidualPolicy.PARTIAL, ResidualPolicy.LOCAL):
            _, sync = build(8, 400, density=0.02, residual_policy=policy)
            sync.synchronize({k: v.copy() for k, v in gradients.items()})
            norms[policy] = float(np.abs(sync.residuals.total_residual()).sum())
        assert norms[ResidualPolicy.GLOBAL] >= norms[ResidualPolicy.PARTIAL] - 1e-9
        assert norms[ResidualPolicy.GLOBAL] >= norms[ResidualPolicy.LOCAL] - 1e-9

    def test_sparsify_all_blocks_still_consistent(self):
        _, sync = build(6, 300, sparsify_all=True)
        result = sync.synchronize(random_gradients(6, 300))
        assert result.is_consistent
