"""Property-based tests (hypothesis) for the synchronisation algorithms.

The two invariants that every method must satisfy regardless of worker count,
gradient content or sparsity are:

* **consistency** — after synchronisation every worker holds the same global
  gradient (the prerequisite of synchronous SGD), and
* **conservation** (SparDL with GRES) — the final gradient plus all collected
  residuals equals the exact dense sum, i.e. no gradient mass is ever lost.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import make
from repro.comm.cluster import SimulatedCluster
from repro.core.config import SparDLConfig
from repro.core.spardl import SparDLSynchronizer


def _gradients(num_workers, num_elements, seed):
    return {w: np.random.default_rng(seed + w).normal(size=num_elements)
            for w in range(num_workers)}


def _divisors(value):
    return [d for d in range(1, value + 1) if value % d == 0]


class TestSparDLProperties:
    @given(num_workers=st.integers(min_value=1, max_value=16),
           num_elements=st.integers(min_value=20, max_value=400),
           density=st.sampled_from([0.005, 0.02, 0.1, 0.5, 1.0]),
           seed=st.integers(min_value=0, max_value=1000),
           team_choice=st.integers(min_value=0, max_value=10))
    @settings(max_examples=40, deadline=None)
    def test_consistency_and_conservation_for_any_configuration(
            self, num_workers, num_elements, density, seed, team_choice):
        divisors = _divisors(num_workers)
        num_teams = divisors[team_choice % len(divisors)]
        cluster = SimulatedCluster(num_workers)
        config = SparDLConfig(density=density, num_teams=num_teams)
        sync = SparDLSynchronizer(cluster, num_elements, config)
        gradients = _gradients(num_workers, num_elements, seed)
        result = sync.synchronize(gradients)

        assert result.is_consistent
        reconstructed = result.gradient(0) + sync.residuals.total_residual()
        np.testing.assert_allclose(reconstructed, sum(gradients.values()), atol=1e-7)

    @given(num_workers=st.integers(min_value=2, max_value=16),
           seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=30, deadline=None)
    def test_message_volume_never_exceeds_equation_4(self, num_workers, seed):
        """The SGA resolution property: the per-worker received volume of
        SparDL (d=1) never exceeds 4k(P-1)/P regardless of gradient content.
        The bound uses the effective k (block budget times block count), which
        can exceed the requested k by rounding when P does not divide k."""
        num_elements = 300
        k = 30
        cluster = SimulatedCluster(num_workers)
        sync = SparDLSynchronizer(cluster, num_elements, SparDLConfig(k=k))
        result = sync.synchronize(_gradients(num_workers, num_elements, seed))
        effective_k = sync.k_block * num_workers
        bound = 4 * effective_k * (num_workers - 1) / num_workers
        assert result.stats.max_received <= bound + 1e-9

    @given(seed=st.integers(min_value=0, max_value=500),
           iterations=st.integers(min_value=1, max_value=4))
    @settings(max_examples=15, deadline=None)
    def test_multi_iteration_conservation(self, seed, iterations):
        num_workers, num_elements = 6, 150
        cluster = SimulatedCluster(num_workers)
        sync = SparDLSynchronizer(cluster, num_elements, SparDLConfig(density=0.03))
        applied = np.zeros(num_elements)
        fed = np.zeros(num_elements)
        for i in range(iterations):
            gradients = _gradients(num_workers, num_elements, seed + 37 * i)
            fed += sum(gradients.values())
            result = sync.synchronize(gradients)
            applied += result.gradient(0)
        np.testing.assert_allclose(applied + sync.residuals.total_residual(), fed, atol=1e-7)


class TestBaselineProperties:
    @given(num_workers=st.integers(min_value=1, max_value=16),
           method=st.sampled_from(["TopkA", "TopkDSA", "Ok-Topk"]),
           seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=40, deadline=None)
    def test_baselines_always_consistent(self, num_workers, method, seed):
        num_elements = 200
        cluster = SimulatedCluster(num_workers)
        sync = make(method, cluster, num_elements=num_elements, density=0.05)
        result = sync.synchronize(_gradients(num_workers, num_elements, seed))
        assert result.is_consistent

    @given(num_workers=st.sampled_from([2, 4, 8, 16]),
           seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=20, deadline=None)
    def test_gtopk_consistent_on_power_of_two(self, num_workers, seed):
        cluster = SimulatedCluster(num_workers)
        sync = make("gTopk", cluster, num_elements=200, density=0.05)
        result = sync.synchronize(_gradients(num_workers, 200, seed))
        assert result.is_consistent
        assert result.info["final_nnz"] == sync.k

    @given(num_workers=st.integers(min_value=1, max_value=12),
           seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=25, deadline=None)
    def test_dense_allreduce_is_exact(self, num_workers, seed):
        num_elements = 150
        cluster = SimulatedCluster(num_workers)
        sync = make("Dense", cluster, num_elements=num_elements)
        gradients = _gradients(num_workers, num_elements, seed)
        result = sync.synchronize(gradients)
        np.testing.assert_allclose(result.gradient(0), sum(gradients.values()), atol=1e-8)

    @given(num_workers=st.integers(min_value=2, max_value=12),
           method=st.sampled_from(["SparDL", "TopkA", "TopkDSA", "Ok-Topk"]),
           seed=st.integers(min_value=0, max_value=200))
    @settings(max_examples=30, deadline=None)
    def test_sparse_methods_with_k_equal_n_match_dense_sum(self, num_workers, method, seed):
        """Dense-equivalence: with k = n nothing is pruned locally, so every
        method's first synchronisation returns the exact dense sum."""
        num_elements = 60
        cluster = SimulatedCluster(num_workers)
        sync = make(method, cluster, num_elements=num_elements, k=num_elements)
        gradients = _gradients(num_workers, num_elements, seed)
        result = sync.synchronize(gradients)
        np.testing.assert_allclose(result.gradient(0), sum(gradients.values()), atol=1e-7)
