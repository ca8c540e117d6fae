"""End-to-end SparDL coverage for non-power-of-two team sizes.

The bag partitioning of Section III-B is subtlest when the team size ``m``
is not a power of two (the last sending bag is only partially filled, and
transmission distances are not symmetric).  These tests run the *full*
synchroniser at team sizes 3, 5, 6 and 7 and assert the three properties
Theorem 1 and the residual analysis guarantee:

* every bag a worker sends is a subset of the blocks the receiver still
  holds (checked statically via :func:`held_blocks_before_step`, and
  dynamically by SRS itself, which raises on violation);
* all workers finish with identical sparse gradients (index-set agreement);
* no gradient mass is lost (final gradient + residuals == exact dense sum).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.cluster import SimulatedCluster
from repro.core.config import SparDLConfig
from repro.core.partition import held_blocks_before_step, plan_bags, transmission_distances
from repro.core.spardl import SparDLSynchronizer

from tests.helpers import random_gradients

TEAM_SIZES = [3, 5, 6, 7]


class TestTheorem1BagInvariants:
    @pytest.mark.parametrize("team_size", TEAM_SIZES)
    def test_sent_bags_are_subsets_of_receiver_held_blocks(self, team_size):
        """Theorem 1: at step ``i`` the bag travelling from the worker at
        distance ``2^(l-i)`` behind is always a subset of what the receiver
        still holds."""
        distances = transmission_distances(team_size)
        for receiver in range(team_size):
            for step, distance in enumerate(distances, start=1):
                sender = (receiver - distance) % team_size
                sent = set(plan_bags(sender, team_size).bag_for_step(step))
                held = held_blocks_before_step(receiver, team_size, step)
                assert sent <= held, (
                    f"m={team_size} step={step}: sender {sender} ships {sent} "
                    f"but receiver {receiver} holds only {held}"
                )

    @pytest.mark.parametrize("team_size", TEAM_SIZES)
    def test_every_block_leaves_exactly_once(self, team_size):
        for worker in range(team_size):
            plan = plan_bags(worker, team_size)
            shipped = [b for bag in plan.sending_bags for b in bag]
            assert sorted(shipped + [plan.preserved]) == list(range(team_size))


class TestNonPowerOfTwoEndToEnd:
    @pytest.mark.parametrize("team_size", TEAM_SIZES)
    @pytest.mark.parametrize("num_teams", [1, 2])
    def test_full_sync_agreement_and_conservation(self, team_size, num_teams):
        num_workers = team_size * num_teams
        num_elements = 60 * team_size
        cluster = SimulatedCluster(num_workers)
        config = SparDLConfig(density=0.05, num_teams=num_teams)
        sync = SparDLSynchronizer(cluster, num_elements, config)
        gradients = random_gradients(num_workers, num_elements, seed=team_size)

        # SRS itself raises on any Theorem 1 violation, so a completed sync
        # doubles as the dynamic invariant check.
        result = sync.synchronize(gradients)

        # Index-set agreement: every worker holds the same non-zero support.
        reference_support = set(np.flatnonzero(result.gradient(0)).tolist())
        for rank in range(1, num_workers):
            support = set(np.flatnonzero(result.gradient(rank)).tolist())
            assert support == reference_support
        assert result.is_consistent

        # Residual conservation.
        reconstructed = result.gradient(0) + sync.residuals.total_residual()
        np.testing.assert_allclose(reconstructed, sum(gradients.values()), atol=1e-8)

    @pytest.mark.parametrize("team_size", TEAM_SIZES)
    def test_conservation_across_iterations(self, team_size):
        num_workers, num_elements = team_size, 40 * team_size
        cluster = SimulatedCluster(num_workers)
        sync = SparDLSynchronizer(cluster, num_elements, SparDLConfig(density=0.03))
        applied = np.zeros(num_elements)
        fed = np.zeros(num_elements)
        for iteration in range(3):
            gradients = random_gradients(num_workers, num_elements,
                                         seed=100 * team_size + iteration)
            fed += sum(gradients.values())
            result = sync.synchronize(gradients)
            applied += result.gradient(0)
            np.testing.assert_allclose(applied + sync.residuals.total_residual(),
                                       fed, atol=1e-8)


class TestResidualPoliciesSplitTheDiscards:
    @pytest.mark.parametrize("team_size", TEAM_SIZES)
    @pytest.mark.parametrize("num_teams", [1, 2])
    @pytest.mark.parametrize("num_bits", [None, 8], ids=["exact", "bits8"])
    def test_policies_differ_by_the_procedure_discards(self, team_size,
                                                       num_teams, num_bits):
        """Section III-C on a first step, where every policy makes the same
        selections: GRES keeps the local, end-procedure and in-procedure
        discards, PRES the first two, LRES the local ones (quantisation
        errors included) alone.  So GRES - PRES lives on the final index
        set, PRES - LRES off it, and GRES conserves the input."""
        num_workers = team_size * num_teams
        num_elements = 60 * team_size
        gradients = random_gradients(num_workers, num_elements, seed=team_size)
        delivered, residual = {}, {}
        for policy in ("global", "partial", "local"):
            sync = SparDLSynchronizer(
                SimulatedCluster(num_workers), num_elements,
                SparDLConfig(density=0.05, num_teams=num_teams,
                             num_bits=num_bits, residual_policy=policy))
            delivered[policy] = sync.synchronize(gradients).gradient(0)
            residual[policy] = sync.residuals.total_residual()
        np.testing.assert_array_equal(delivered["partial"], delivered["global"])
        np.testing.assert_array_equal(delivered["local"], delivered["global"])
        final = delivered["global"] != 0
        in_procedure = residual["global"] - residual["partial"]
        end_procedure = residual["partial"] - residual["local"]
        # the shared discards are added in the same order: exact zeros
        assert not in_procedure[~final].any()
        assert not end_procedure[final].any()
        assert np.abs(end_procedure).max() > 1e-3
        # a lone team of 3 or 6 discards nothing in-procedure on these inputs
        if (team_size, num_teams) not in {(3, 1), (6, 1)}:
            assert np.abs(in_procedure).max() > 1e-3
        np.testing.assert_allclose(delivered["global"] + residual["global"],
                                   sum(gradients.values()), atol=1e-8)
