"""Deferred residual accumulation must be indistinguishable from eager.

The deferred mode buffers every sparse discard per worker and folds each
buffer through one k-way merge and one scatter at the iteration's flush
points.  Because the fold replays the exact left-to-right addition chain of
the eager scatters (seeded with the store's current content), the two modes
are required to be **bit-identical**, not merely close — these tests assert
``np.array_equal`` on ``total_residual`` and exact equality on
``residual_norms`` across the full non-power-of-two team-size suite, every
residual policy, and multiple iterations.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.cluster import SimulatedCluster
from repro.core.config import SparDLConfig
from repro.core.residuals import ResidualManager, ResidualPolicy
from repro.core.spardl import SparDLSynchronizer
from repro.sparse.vector import SparseGradient

from tests.helpers import random_gradients

TEAM_SIZES = [3, 5, 6, 7]
POLICIES = ["global", "partial", "local"]


def _run_sync(team_size, num_teams, policy, deferred, iterations=3):
    """Run the full synchroniser; return per-iteration residual snapshots."""
    num_workers = team_size * num_teams
    num_elements = 60 * team_size
    cluster = SimulatedCluster(num_workers)
    config = SparDLConfig(density=0.05, num_teams=num_teams,
                          residual_policy=policy,
                          deferred_residuals=deferred)
    sync = SparDLSynchronizer(cluster, num_elements, config)
    snapshots = []
    for iteration in range(iterations):
        gradients = random_gradients(num_workers, num_elements,
                                     seed=1000 * team_size + iteration)
        result = sync.synchronize(gradients)
        snapshots.append((
            result.gradient(0).copy(),
            sync.residuals.total_residual(),
            sync.residuals.residual_norms(),
        ))
    scatters = {worker: sync.residuals.store(worker).scatter_count
                for worker in range(num_workers)}
    return snapshots, scatters


class TestDeferredMatchesEagerEndToEnd:
    @pytest.mark.parametrize("team_size", TEAM_SIZES)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_bit_identical_residuals_single_team(self, team_size, policy):
        eager, _ = _run_sync(team_size, 1, policy, deferred=False)
        deferred, _ = _run_sync(team_size, 1, policy, deferred=True)
        for (ge, te, ne), (gd, td, nd) in zip(eager, deferred):
            np.testing.assert_array_equal(ge, gd)
            assert np.array_equal(te.view(np.int64), td.view(np.int64)), (
                "total_residual diverged bitwise")
            assert ne == nd

    @pytest.mark.parametrize("team_size", TEAM_SIZES)
    def test_bit_identical_residuals_two_teams(self, team_size):
        """d=2 exercises the SAG collection hooks on top of SRS."""
        eager, _ = _run_sync(team_size, 2, "global", deferred=False)
        deferred, _ = _run_sync(team_size, 2, "global", deferred=True)
        for (ge, te, ne), (gd, td, nd) in zip(eager, deferred):
            np.testing.assert_array_equal(ge, gd)
            assert np.array_equal(te.view(np.int64), td.view(np.int64))
            assert ne == nd

    @pytest.mark.parametrize("team_size", TEAM_SIZES)
    def test_one_scatter_per_worker_per_iteration(self, team_size):
        iterations = 3
        _, eager_scatters = _run_sync(team_size, 2, "global", deferred=False,
                                      iterations=iterations)
        _, deferred_scatters = _run_sync(team_size, 2, "global", deferred=True,
                                         iterations=iterations)
        assert max(deferred_scatters.values()) <= iterations
        assert max(deferred_scatters.values()) < max(eager_scatters.values())

    @pytest.mark.parametrize("team_size", TEAM_SIZES)
    def test_conservation_in_deferred_mode(self, team_size):
        """Gradient + residuals still reconstructs the exact dense sum."""
        num_workers, num_elements = team_size, 60 * team_size
        cluster = SimulatedCluster(num_workers)
        config = SparDLConfig(density=0.05, deferred_residuals=True)
        sync = SparDLSynchronizer(cluster, num_elements, config)
        gradients = random_gradients(num_workers, num_elements, seed=team_size)
        result = sync.synchronize(gradients)
        reconstructed = result.gradient(0) + sync.residuals.total_residual()
        np.testing.assert_allclose(reconstructed, sum(gradients.values()),
                                   atol=1e-8)


class TestDeferredManagerSemantics:
    def _sparse(self, indices, values, length=8):
        return SparseGradient(np.array(indices, dtype=np.int64),
                              np.array(values, dtype=np.float64), length)

    def test_buffered_discards_invisible_until_flush_points(self):
        manager = ResidualManager(1, 8, ResidualPolicy.GLOBAL, deferred=True)
        manager.collect_procedure(0, self._sparse([1, 3], [2.0, 4.0]))
        # total_residual is a flush point, so the buffered values appear.
        np.testing.assert_allclose(manager.total_residual(),
                                   [0, 2, 0, 4, 0, 0, 0, 0])

    def test_store_accessor_flushes(self):
        manager = ResidualManager(1, 8, ResidualPolicy.GLOBAL, deferred=True)
        manager.collect_procedure(0, self._sparse([2], [5.0]))
        assert manager.store(0).peek()[2] == 5.0

    def test_apply_flushes_then_corrects_in_place(self):
        manager = ResidualManager(1, 8, ResidualPolicy.GLOBAL, deferred=True)
        manager.collect_procedure(0, self._sparse([0], [1.5]))
        gradient = np.arange(8.0)
        corrected = manager.apply({0: gradient})
        assert corrected[0][0] == 1.5
        # the buffered discard was folded in before the add, and the store
        # now holds the corrected vector itself until a selection takes it
        np.testing.assert_array_equal(manager.total_residual(),
                                      [1.5, 1, 2, 3, 4, 5, 6, 7])
        manager.take(0, np.arange(8))
        np.testing.assert_array_equal(manager.total_residual(), np.zeros(8))
        np.testing.assert_array_equal(gradient, np.arange(8.0))

    def test_fold_matches_sequential_scatters_with_dense_base(self):
        """The fold replays eager's addition chain over a dense base."""
        rng = np.random.default_rng(7)
        base = rng.normal(size=16)
        discards = []
        for _ in range(6):
            m = rng.integers(1, 6)
            idx = np.sort(rng.choice(16, size=m, replace=False)).astype(np.int64)
            discards.append((self._sparse(idx, rng.normal(size=m), 16),
                             float(rng.choice([1.0, 0.5, 0.25]))))
        eager = ResidualManager(1, 16, ResidualPolicy.GLOBAL)
        deferred = ResidualManager(1, 16, ResidualPolicy.GLOBAL, deferred=True)
        for manager in (eager, deferred):
            manager.collect_local(0, base)
        for sparse, share in discards:
            eager.collect_procedure(0, sparse, share)
            deferred.collect_procedure(0, sparse, share)
        assert np.array_equal(eager.total_residual().view(np.int64),
                              deferred.total_residual().view(np.int64))
        assert deferred.store(0).scatter_count == 1
        assert eager.store(0).scatter_count == len(discards)

    def test_partial_policy_defers_until_finalize(self):
        manager = ResidualManager(1, 8, ResidualPolicy.PARTIAL, deferred=True)
        manager.collect_procedure(0, self._sparse([1, 4], [3.0, 6.0]))
        manager.finalize(np.array([4], dtype=np.int64))
        # Index 4 appears in the final gradient (in-procedure, dropped);
        # index 1 does not (end-procedure, kept).
        np.testing.assert_allclose(manager.total_residual(),
                                   [0, 3, 0, 0, 0, 0, 0, 0])

    def test_eager_default_unchanged(self):
        manager = ResidualManager(2, 8)
        assert manager.deferred is False
        manager.collect_procedure(1, self._sparse([3], [2.0]))
        assert manager.store(1).scatter_count == 1
