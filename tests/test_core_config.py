"""Unit tests for SparDL configuration."""

from __future__ import annotations

import pytest

from repro.baselines.dense import DenseAllReduceSynchronizer
from repro.comm.cluster import SimulatedCluster
from repro.comm.network import ETHERNET
from repro.core.config import DEFAULT_DENSE_CROSSOVER, SAGMode, SparDLConfig
from repro.core.residuals import ResidualPolicy
from repro.core.spardl import SparDLSynchronizer

from tests.helpers import random_gradients


class TestSparDLConfig:
    def test_requires_k_or_density(self):
        with pytest.raises(ValueError):
            SparDLConfig()

    def test_rejects_both_k_and_density(self):
        with pytest.raises(ValueError):
            SparDLConfig(k=10, density=0.1)

    def test_rejects_invalid_k(self):
        with pytest.raises(ValueError):
            SparDLConfig(k=0)

    def test_rejects_invalid_density(self):
        with pytest.raises(ValueError):
            SparDLConfig(density=0.0)
        with pytest.raises(ValueError):
            SparDLConfig(density=1.5)

    def test_rejects_invalid_num_teams(self):
        with pytest.raises(ValueError):
            SparDLConfig(k=10, num_teams=0)

    def test_resolve_k_from_density(self):
        config = SparDLConfig(density=0.01)
        assert config.resolve_k(10_000) == 100

    def test_resolve_k_clamps_to_at_least_one(self):
        config = SparDLConfig(density=1e-5)
        assert config.resolve_k(100) == 1

    def test_resolve_k_clamps_to_num_elements(self):
        config = SparDLConfig(k=500)
        assert config.resolve_k(100) == 100

    def test_string_modes_are_coerced(self):
        config = SparDLConfig(k=10, sag_mode="bsag", residual_policy="local")
        assert config.sag_mode is SAGMode.BSAG
        assert config.residual_policy is ResidualPolicy.LOCAL

    def test_validate_for_cluster_requires_divisibility(self):
        config = SparDLConfig(k=10, num_teams=3)
        with pytest.raises(ValueError):
            config.validate_for_cluster(8)
        config.validate_for_cluster(9)

    def test_validate_rsag_requires_power_of_two_teams(self):
        config = SparDLConfig(k=10, num_teams=3, sag_mode=SAGMode.RSAG)
        with pytest.raises(ValueError):
            config.validate_for_cluster(9)

    def test_validate_rejects_more_teams_than_workers(self):
        config = SparDLConfig(k=10, num_teams=8)
        with pytest.raises(ValueError):
            config.validate_for_cluster(4)

    def test_effective_mode_auto_picks_rsag_for_power_of_two(self):
        assert SparDLConfig(k=10, num_teams=4).effective_sag_mode() is SAGMode.RSAG
        assert SparDLConfig(k=10, num_teams=7).effective_sag_mode() is SAGMode.BSAG

    def test_effective_mode_respects_explicit_choice(self):
        config = SparDLConfig(k=10, num_teams=4, sag_mode=SAGMode.BSAG)
        assert config.effective_sag_mode() is SAGMode.BSAG

    def test_team_size(self):
        assert SparDLConfig(k=10, num_teams=7).team_size(14) == 2

    def test_describe_mentions_mode_and_teams(self):
        label = SparDLConfig(density=0.01, num_teams=7).describe()
        assert "BSAG" in label and "d=7" in label
        assert "SparDL" in SparDLConfig(k=5).describe()


class TestFallbackKnobs:
    def test_dense_crossover_defaults_to_measured_constant(self):
        assert SparDLConfig(k=10).resolve_dense_crossover() == DEFAULT_DENSE_CROSSOVER
        assert SparDLConfig(k=10, dense_fallback_ratio=0.3).resolve_dense_crossover() == 0.3

    def test_dense_fallback_ratio_must_be_positive(self):
        with pytest.raises(ValueError):
            SparDLConfig(k=10, dense_fallback_ratio=0.0)
        with pytest.raises(ValueError):
            SparDLConfig(k=10, dense_fallback_ratio=-0.5)

    def test_default_crossover_is_where_simulated_sparse_meets_dense(self):
        """At P = 8 (a power of two: the dense All-Reduce is bandwidth
        optimal) the COO volume 4k(P-1)/P meets the dense 2n(P-1)/P at
        k/n = 1/2.  SparDL's simulated time over dense's, interpolated
        across a density sweep, must cross 1 there, and the shipped default
        must be that measurement."""
        P, n = 8, 50_000
        gradients = random_gradients(P, n, seed=7)
        dense = DenseAllReduceSynchronizer(SimulatedCluster(P), n).synchronize(gradients)
        densities = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0)
        ratios = []
        for density in densities:
            sparse = SparDLSynchronizer(SimulatedCluster(P), n, SparDLConfig(
                density=density, dense_fallback_ratio=float("inf"))).synchronize(gradients)
            ratios.append(sparse.stats.simulated_time(ETHERNET)
                          / dense.stats.simulated_time(ETHERNET))
        crossing = next(i for i in range(1, len(ratios))
                        if ratios[i - 1] < 1.0 <= ratios[i])
        lo, hi = densities[crossing - 1], densities[crossing]
        below, above = ratios[crossing - 1], ratios[crossing]
        measured = lo + (1.0 - below) / (above - below) * (hi - lo)
        assert measured == pytest.approx(0.5, abs=0.1)
        assert DEFAULT_DENSE_CROSSOVER == pytest.approx(measured, abs=0.1)
