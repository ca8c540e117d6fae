"""Unit tests for SparDL configuration."""

from __future__ import annotations

import pytest

from repro.core.config import SAGMode, SparDLConfig
from repro.core.residuals import ResidualPolicy


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


class TestNoDenseFallback:
    def test_there_is_no_crossover_knob(self):
        """SparDL is one pipeline at every density; a dense All-Reduce is
        the ``dense`` method."""
        with pytest.raises(TypeError, match="dense_fallback_ratio"):
            SparDLConfig(k=1, dense_fallback_ratio=0.5)
