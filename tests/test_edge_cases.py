"""Edge-case and robustness tests across the library.

These cover behaviours not exercised by the per-module unit tests: degenerate
gradient content (zeros, single spikes, constant ties), extreme sparsity,
tiny clusters, repeated-use determinism, and label/reporting details that the
benchmarks rely on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.complexity import spardl_complexity, table1
from repro.api import available_methods, make
from repro.comm.cluster import SimulatedCluster
from repro.comm.network import ETHERNET
from repro.core.config import SAGMode, SparDLConfig
from repro.core.spardl import SparDLSynchronizer

from tests.helpers import random_gradients


class TestDegenerateGradients:
    @pytest.mark.parametrize("method", ["SparDL", "TopkA", "TopkDSA", "Ok-Topk"])
    def test_all_zero_gradients(self, method):
        """All-zero gradients synchronise to all-zero without errors."""
        cluster = SimulatedCluster(4)
        sync = make(method, cluster, num_elements=100, k=10)
        result = sync.synchronize({w: np.zeros(100) for w in range(4)})
        assert result.is_consistent
        np.testing.assert_allclose(result.gradient(0), np.zeros(100))

    def test_single_spike_gradient_survives_spardl(self):
        """A single huge coordinate is never dropped by SparDL's selections."""
        num_workers, num_elements = 6, 300
        cluster = SimulatedCluster(num_workers)
        sync = SparDLSynchronizer(cluster, num_elements, SparDLConfig(k=6))
        gradients = {w: np.zeros(num_elements) for w in range(num_workers)}
        for w in range(num_workers):
            gradients[w][137] = 100.0 + w
        result = sync.synchronize(gradients)
        expected = sum(g[137] for g in gradients.values())
        assert result.gradient(0)[137] == pytest.approx(expected)

    def test_constant_gradients_tie_breaking_is_consistent(self):
        """All-equal magnitudes are a worst case for top-k tie breaking; every
        worker must still end with identical gradients."""
        cluster = SimulatedCluster(5)
        sync = SparDLSynchronizer(cluster, 200, SparDLConfig(k=20))
        result = sync.synchronize({w: np.ones(200) for w in range(5)})
        assert result.is_consistent

    def test_extreme_sparsity_keeps_at_least_one_per_block(self):
        cluster = SimulatedCluster(8)
        sync = SparDLSynchronizer(cluster, 10_000, SparDLConfig(density=1e-5))
        result = sync.synchronize(random_gradients(8, 10_000))
        assert result.is_consistent
        assert result.info["final_nnz"] >= 1

    def test_gradient_smaller_than_worker_count(self):
        """More workers than gradient entries: blocks may be empty but the
        synchronisation still completes consistently."""
        cluster = SimulatedCluster(8)
        sync = SparDLSynchronizer(cluster, 5, SparDLConfig(k=5))
        gradients = random_gradients(8, 5)
        result = sync.synchronize(gradients)
        assert result.is_consistent
        np.testing.assert_allclose(result.gradient(0), sum(gradients.values()), atol=1e-9)


class TestTwoWorkerCluster:
    @pytest.mark.parametrize("method", ["SparDL", "TopkA", "TopkDSA", "Ok-Topk", "gTopk"])
    def test_two_workers_consistent(self, method):
        cluster = SimulatedCluster(2)
        sync = make(method, cluster, num_elements=150, k=15)
        result = sync.synchronize(random_gradients(2, 150))
        assert result.is_consistent

    def test_two_workers_spardl_single_round_each_phase(self):
        cluster = SimulatedCluster(2)
        sync = make("SparDL", cluster, num_elements=150, k=15)
        result = sync.synchronize(random_gradients(2, 150))
        assert result.stats.rounds == 2  # one SRS step + one All-Gather step


class TestDeterminism:
    def test_repeated_synchronisation_of_same_input_is_identical(self):
        gradients = random_gradients(6, 200, seed=3)
        outputs = []
        for _ in range(2):
            cluster = SimulatedCluster(6)
            sync = SparDLSynchronizer(cluster, 200, SparDLConfig(density=0.05))
            result = sync.synchronize({k: v.copy() for k, v in gradients.items()})
            outputs.append(result.gradient(0))
        np.testing.assert_array_equal(outputs[0], outputs[1])

    def test_bsag_controller_state_is_per_synchronizer(self):
        gradients = random_gradients(6, 300, seed=1)
        cluster_a = SimulatedCluster(6)
        sync_a = SparDLSynchronizer(cluster_a, 300,
                                    SparDLConfig(density=0.05, num_teams=3, sag_mode="bsag"))
        cluster_b = SimulatedCluster(6)
        sync_b = SparDLSynchronizer(cluster_b, 300,
                                    SparDLConfig(density=0.05, num_teams=3, sag_mode="bsag"))
        sync_a.synchronize({k: v.copy() for k, v in gradients.items()})
        assert len(sync_a.controller.history) == 1
        assert len(sync_b.controller.history) == 0


class TestMethodAvailabilityAndLabels:
    def test_every_available_method_runs_on_its_cluster(self):
        for num_workers in (3, 4, 14):
            for method in available_methods(num_workers, include_dense=True):
                cluster = SimulatedCluster(num_workers)
                density = {} if method == "Dense" else {"density": 0.1}
                sync = make(method, cluster, num_elements=120, **density)
                result = sync.synchronize(random_gradients(num_workers, 120))
                assert result.is_consistent, f"{method} on P={num_workers}"

    def test_spardl_name_reflects_configuration(self):
        cluster = SimulatedCluster(8)
        sync = make("SparDL", cluster, num_elements=100, density=0.01, teams=4,
                    sag=SAGMode.RSAG)
        assert "RSAG" in sync.name and "d=4" in sync.name

    def test_table1_and_measurement_share_units(self):
        """Predicted time from Table I and measured simulated time are in the
        same ballpark for SparDL (both count COO elements)."""
        num_workers, num_elements, k = 8, 2000, 200
        cluster = SimulatedCluster(num_workers)
        sync = make("SparDL", cluster, num_elements=num_elements, k=k)
        result = sync.synchronize(random_gradients(num_workers, num_elements))
        measured = result.stats.simulated_time(ETHERNET)
        predicted = spardl_complexity(num_workers, num_elements, k).time(
            ETHERNET.alpha, ETHERNET.beta)
        assert 0.3 * predicted <= measured <= 3.0 * predicted

    def test_table1_rows_have_unique_method_names(self):
        rows = table1(14, 10_000, 100, d=7)
        assert len(rows) == len({bound.method for bound in rows.values()})
