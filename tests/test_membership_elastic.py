"""Mid-training elastic membership: crashes, joins, and re-partitioning.

On a crash/join event the synchroniser re-runs the bag planning for the new
worker count between iterations and hands residual state off so that no
gradient mass leaves the system.  The oracles are the PR 2 non-power-of-two
invariants: Theorem 1 bag subsets (SRS raises on violation), index-set
agreement across workers, and exact conservation — here asserted *across*
the membership transition, to 1e-9, on exact and on 8-bit quantized wires
(a quantisation error is a residual like any other discard).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import make
from repro.baselines.dense import DenseAllReduceSynchronizer
from repro.comm.cluster import SimulatedCluster
from repro.comm.faults import FaultPlan, MembershipEvent
from repro.comm.stats import CommStats
from repro.core.config import SparDLConfig
from repro.core.pipeline import SyncSession
from repro.core.residuals import ResidualManager
from repro.core.spardl import SparDLSynchronizer

from tests.helpers import random_gradients

NUM_ELEMENTS = 600


def _run_with_events(num_workers, events, *, num_teams=1, num_bits=None,
                     iterations=4, density=0.05):
    """Drive a session across membership events; return the conservation
    ledger (injected total, delivered total, synchroniser, membership log)."""
    cluster = SimulatedCluster(num_workers)
    cluster.install_fault_plan(FaultPlan(events=events))
    sync = SparDLSynchronizer(cluster, NUM_ELEMENTS, SparDLConfig(
        density=density, num_teams=num_teams, num_bits=num_bits))
    session = SyncSession(sync)
    injected = np.zeros(NUM_ELEMENTS)
    delivered = np.zeros(NUM_ELEMENTS)
    memberships = []
    for iteration in range(iterations):
        session.poll_membership()
        current = session.num_workers
        memberships.append(current)
        grads = random_gradients(current, NUM_ELEMENTS, seed=31 * iteration)
        injected += sum(grads.values())
        result = session.step(grads)
        assert result.is_consistent
        delivered += result.gradient(0)
    return injected, delivered, sync, session, memberships


WIRES = pytest.mark.parametrize("num_bits", [None, 8], ids=["exact", "bits8"])


class TestJoinTransition:
    @WIRES
    def test_three_to_four_join_conserves(self, num_bits):
        events = [MembershipEvent(iteration=2, kind="join")]
        injected, delivered, sync, session, memberships = _run_with_events(
            3, events, num_bits=num_bits)
        assert memberships == [3, 3, 4, 4]
        recon = delivered + sync.residuals.total_residual()
        np.testing.assert_allclose(recon, injected, atol=1e-9)

    def test_join_rebuilds_partitioning(self):
        events = [MembershipEvent(iteration=1, kind="join")]
        _, _, sync, _, _ = _run_with_events(3, events, iterations=2)
        assert sync.num_workers == 4
        assert sync.team_size == 4
        assert sync.teams == [[0, 1, 2, 3]]
        assert sync.layout.num_blocks == sync.team_size
        assert sync.residuals.num_workers == 4

    def test_join_can_restore_team_divisibility(self):
        # 3 workers cap d=2 down to 1; the join to P=4 restores d=2.
        events = [MembershipEvent(iteration=1, kind="join")]
        cluster = SimulatedCluster(3)
        cluster.install_fault_plan(FaultPlan(events=events))
        sync = SparDLSynchronizer(cluster, NUM_ELEMENTS,
                                  SparDLConfig(density=0.05, num_teams=1))
        # configured num_teams=1 stays 1; now ask for the d-recovery case
        sync.config = SparDLConfig(density=0.05, num_teams=2)
        session = SyncSession(sync)
        session.step(random_gradients(3, NUM_ELEMENTS))
        assert session.poll_membership()
        assert sync.num_teams == 2
        assert sync.teams == [[0, 1], [2, 3]]
        result = session.step(random_gradients(4, NUM_ELEMENTS, seed=5))
        assert result.is_consistent


class TestCrashTransition:
    @WIRES
    def test_eight_to_seven_crash_conserves(self, num_bits):
        # P=8 with d=2; rank 3 crashes before iteration 2. 7 is prime, so
        # the team count must degrade to d=1 with a 7-worker team.
        events = [MembershipEvent(iteration=2, kind="crash", worker=3)]
        injected, delivered, sync, session, memberships = _run_with_events(
            8, events, num_teams=2, num_bits=num_bits)
        assert memberships == [8, 8, 7, 7]
        assert sync.num_teams == 1
        assert sync.team_size == 7
        recon = delivered + sync.residuals.total_residual()
        np.testing.assert_allclose(recon, injected, atol=1e-9)

    def test_crashed_residual_hands_off_to_successor(self):
        cluster = SimulatedCluster(4)
        cluster.install_fault_plan(FaultPlan(
            events=[MembershipEvent(iteration=1, kind="crash", worker=1)]))
        sync = SparDLSynchronizer(cluster, NUM_ELEMENTS,
                                  SparDLConfig(density=0.05))
        session = SyncSession(sync)
        session.step(random_gradients(4, NUM_ELEMENTS))
        before = {w: sync.residuals.store(w).peek() for w in range(4)}
        assert session.poll_membership()
        # survivors 0,2,3 -> 0,1,2; crashed rank 1's store joins old rank 2
        np.testing.assert_array_equal(sync.residuals.store(0).peek(), before[0])
        np.testing.assert_allclose(sync.residuals.store(1).peek(),
                                   before[1] + before[2], atol=1e-12)
        np.testing.assert_array_equal(sync.residuals.store(2).peek(), before[3])

    def test_highest_rank_crash_default(self):
        events = [MembershipEvent(iteration=1, kind="crash")]
        injected, delivered, sync, _, memberships = _run_with_events(
            5, events, iterations=3)
        assert memberships == [5, 4, 4]
        recon = delivered + sync.residuals.total_residual()
        np.testing.assert_allclose(recon, injected, atol=1e-9)


class TestChurn:
    @WIRES
    def test_crash_then_join_sequence(self, num_bits):
        events = [MembershipEvent(iteration=1, kind="crash", worker=0),
                  MembershipEvent(iteration=3, kind="join"),
                  MembershipEvent(iteration=4, kind="join")]
        injected, delivered, sync, session, memberships = _run_with_events(
            6, events, num_teams=2, num_bits=num_bits, iterations=6)
        assert memberships == [6, 5, 5, 6, 7, 7]
        recon = delivered + sync.residuals.total_residual()
        np.testing.assert_allclose(recon, injected, atol=1e-9)

    def test_churn_with_message_faults(self):
        # Drops, losses and a membership change in the same run.
        events = [MembershipEvent(iteration=2, kind="crash", worker=2)]
        cluster = SimulatedCluster(6)
        cluster.install_fault_plan(FaultPlan(seed=17, drop_rate=0.4,
                                             events=events))
        sync = SparDLSynchronizer(cluster, NUM_ELEMENTS,
                                  SparDLConfig(density=0.05, num_teams=2))
        session = SyncSession(sync)
        injected = np.zeros(NUM_ELEMENTS)
        delivered = np.zeros(NUM_ELEMENTS)
        for iteration in range(4):
            session.poll_membership()
            grads = random_gradients(session.num_workers, NUM_ELEMENTS,
                                     seed=13 * iteration)
            injected += sum(grads.values())
            delivered += session.step(grads).gradient(0)
        recon = delivered + sync.residuals.total_residual()
        np.testing.assert_allclose(recon, injected, atol=1e-9)


class TestSessionAccounting:
    def test_cumulative_stats_expand_to_widest_membership(self):
        events = [MembershipEvent(iteration=1, kind="join")]
        _, _, _, session, _ = _run_with_events(3, events, iterations=3)
        assert session.cumulative_stats.num_workers == 4
        assert session.cumulative_stats.rounds > 0

    def test_cumulative_stats_keep_width_after_crash(self):
        events = [MembershipEvent(iteration=1, kind="crash")]
        _, _, _, session, _ = _run_with_events(5, events, iterations=3)
        # the widest membership seen (5) stays the accounting width
        assert session.cumulative_stats.num_workers == 5

    def test_poll_is_idempotent_per_iteration(self):
        cluster = SimulatedCluster(4)
        cluster.install_fault_plan(FaultPlan(
            events=[MembershipEvent(iteration=1, kind="join")]))
        sync = SparDLSynchronizer(cluster, NUM_ELEMENTS,
                                  SparDLConfig(density=0.05))
        session = SyncSession(sync)
        session.step(random_gradients(4, NUM_ELEMENTS))
        assert session.poll_membership()
        assert not session.poll_membership()  # second poll applies nothing
        assert session.num_workers == 5

    def test_no_plan_poll_is_a_no_op(self):
        sync = SparDLSynchronizer(SimulatedCluster(4), NUM_ELEMENTS,
                                  SparDLConfig(density=0.05))
        assert not sync.poll_membership()
        assert sync.num_workers == 4


class TestDenseElastic:
    def test_dense_survives_crash_and_join(self):
        events = [MembershipEvent(iteration=1, kind="crash", worker=0),
                  MembershipEvent(iteration=2, kind="join")]
        cluster = SimulatedCluster(4)
        cluster.install_fault_plan(FaultPlan(events=events))
        sync = DenseAllReduceSynchronizer(cluster, NUM_ELEMENTS)
        session = SyncSession(sync)
        for iteration, expected_P in enumerate([4, 3, 4]):
            session.poll_membership()
            assert session.num_workers == expected_P
            grads = random_gradients(expected_P, NUM_ELEMENTS, seed=iteration)
            result = session.step(grads)
            np.testing.assert_allclose(result.gradient(0), sum(grads.values()))

    def test_quantized_dense_hands_off_error_feedback(self):
        events = [MembershipEvent(iteration=1, kind="crash", worker=1)]
        cluster = SimulatedCluster(4)
        cluster.install_fault_plan(FaultPlan(events=events))
        sync = DenseAllReduceSynchronizer(cluster, NUM_ELEMENTS, num_bits=8)
        session = SyncSession(sync)
        g0 = random_gradients(4, NUM_ELEMENTS)
        r0 = session.step(g0)
        carried = sync.residuals.total_residual()
        session.poll_membership()
        np.testing.assert_allclose(sync.residuals.total_residual(), carried,
                                   atol=1e-12)
        g1 = random_gradients(3, NUM_ELEMENTS, seed=9)
        r1 = session.step(g1)
        recon = r0.gradient(0) + r1.gradient(0) + sync.residuals.total_residual()
        np.testing.assert_allclose(recon, sum(g0.values()) + sum(g1.values()),
                                   atol=1e-9)


class TestRemapWorkersUnit:
    def test_mapping_must_cover_old_ranks(self):
        manager = ResidualManager(3, 10)
        with pytest.raises(ValueError):
            manager.remap_workers(2, {0: 0, 1: 1})  # rank 2 unmapped
        with pytest.raises(ValueError):
            manager.remap_workers(2, {0: 0, 1: 1, 2: 5})  # out of range
        with pytest.raises(ValueError):
            manager.remap_workers(0, {})

    def test_collected_discards_follow_their_rank(self):
        from repro.sparse.vector import SparseGradient
        manager = ResidualManager(2, 10)
        sparse = SparseGradient.from_dense(np.arange(10.0))
        manager.collect_procedure(1, sparse)
        manager.remap_workers(1, {0: 0, 1: 0})
        np.testing.assert_allclose(manager.store(0).peek(), np.arange(10.0))
        assert manager.num_workers == 1


class TestCommStatsExpand:
    def test_expand_grows_and_merges(self):
        stats = CommStats(num_workers=2)
        stats.record_round([(0, 1, 5.0)])
        stats.expand(4)
        assert stats.num_workers == 4
        assert stats.sent_per_worker == [5.0, 0.0, 0.0, 0.0]
        wide = CommStats(num_workers=4)
        wide.record_round([(0, 3, 2.0)])
        stats.merge(wide)
        assert stats.received_per_worker == [0.0, 5.0, 0.0, 2.0]
        assert stats.rounds == 2

    def test_expand_refuses_to_shrink(self):
        stats = CommStats(num_workers=4)
        with pytest.raises(ValueError):
            stats.expand(3)


class TestMomentumChurn:
    """Satellite PR 10: momentum-correction velocity hands off across
    membership transitions exactly like the residual stores — a crashed
    rank's velocity is summed onto its successor (momentum history is
    conserved), joining ranks start from zero velocity, and the per-step
    conservation ledger holds to 1e-9 across the transition."""

    def test_remap_sums_crashed_velocity_onto_successor(self):
        manager = ResidualManager(4, 10, momentum=0.9)
        manager.apply(random_gradients(4, 10, seed=3))
        before = {w: manager.velocity(w) for w in range(4)}
        # Crash of rank 1: survivors 0,2,3 -> 0,1,2; the crashed store (and
        # velocity) joins old rank 2's successor, exactly like the residuals.
        manager.remap_workers(3, {0: 0, 1: 1, 2: 1, 3: 2})
        np.testing.assert_array_equal(manager.velocity(0), before[0])
        np.testing.assert_allclose(manager.velocity(1),
                                   before[1] + before[2], atol=1e-12)
        np.testing.assert_array_equal(manager.velocity(2), before[3])

    def test_remap_join_starts_with_zero_velocity(self):
        manager = ResidualManager(2, 8, momentum=0.9)
        manager.apply(random_gradients(2, 8, seed=5))
        manager.remap_workers(3, {0: 0, 1: 1})
        np.testing.assert_array_equal(manager.velocity(2), np.zeros(8))
        assert manager.velocity(0) is not None

    def test_remap_without_momentum_keeps_velocity_off(self):
        manager = ResidualManager(2, 8)
        manager.remap_workers(3, {0: 0, 1: 1})
        assert manager.velocity(0) is None

    @WIRES
    def test_churn_conserves_momentum_ledger(self, num_bits):
        """Crash then join under momentum correction: every step satisfies
        ``delivered + residual_after == residual_before
        + m * velocity_before + injected`` to 1e-9, including the steps
        straddling the membership transitions (remap preserves the residual
        and velocity totals)."""
        factor = 0.9
        events = [MembershipEvent(iteration=1, kind="crash", worker=1),
                  MembershipEvent(iteration=3, kind="join")]
        cluster = SimulatedCluster(4)
        cluster.install_fault_plan(FaultPlan(events=events))
        sync = SparDLSynchronizer(cluster, NUM_ELEMENTS, SparDLConfig(
            density=0.05, momentum=factor, num_bits=num_bits))
        session = SyncSession(sync)
        memberships = []
        for iteration in range(5):
            session.poll_membership()
            memberships.append(session.num_workers)
            grads = random_gradients(session.num_workers, NUM_ELEMENTS,
                                     seed=19 * iteration)
            residual_before = sync.residuals.total_residual()
            velocity_before = sync.residuals.total_velocity()
            result = session.step(grads)
            assert result.is_consistent
            lhs = result.gradient(0) + sync.residuals.total_residual()
            rhs = (residual_before + factor * velocity_before
                   + sum(grads.values()))
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)
        assert memberships == [4, 3, 3, 4, 4]

    def test_crashed_velocity_hand_off_through_the_synchroniser(self):
        cluster = SimulatedCluster(4)
        cluster.install_fault_plan(FaultPlan(
            events=[MembershipEvent(iteration=1, kind="crash", worker=1)]))
        sync = SparDLSynchronizer(cluster, NUM_ELEMENTS, SparDLConfig(
            density=0.05, momentum=0.9))
        session = SyncSession(sync)
        session.step(random_gradients(4, NUM_ELEMENTS))
        before = {w: sync.residuals.velocity(w) for w in range(4)}
        assert session.poll_membership()
        np.testing.assert_array_equal(sync.residuals.velocity(0), before[0])
        np.testing.assert_allclose(sync.residuals.velocity(1),
                                   before[1] + before[2], atol=1e-12)
        np.testing.assert_array_equal(sync.residuals.velocity(2), before[3])


class TestSparseBaselinesElastic:
    """The baselines hand their residual stores over on a crash or join,
    and rebuild what they cut by ``P`` (TopkDSA's
    blocks, Ok-Topk's owner regions): the GRES ledger holds on every step
    of a crash-then-join run, and the stores match the new membership."""

    EVENTS = [MembershipEvent(iteration=1, kind="crash", worker=1),
              MembershipEvent(iteration=2, kind="join"),
              MembershipEvent(iteration=3, kind="join")]

    @pytest.mark.parametrize("method", ["TopkA", "TopkDSA", "Ok-Topk"])
    def test_crash_then_join_conserves(self, method):
        num_elements = 200
        cluster = SimulatedCluster(4)
        cluster.install_fault_plan(FaultPlan(events=self.EVENTS))
        sync = make(method, cluster, num_elements=num_elements, density=0.05)
        session = SyncSession(sync)
        memberships = []
        for iteration in range(5):
            carried = sync.residuals.total_residual()
            session.poll_membership()
            np.testing.assert_allclose(sync.residuals.total_residual(), carried,
                                       atol=1e-12)
            current = session.num_workers
            memberships.append(current)
            assert sync.residuals.num_workers == cluster.num_workers == current
            grads = random_gradients(current, num_elements, seed=23 * iteration)
            residual_before = sync.residuals.total_residual()
            result = session.step(grads)
            assert result.is_consistent
            lhs = result.gradient(0) + sync.residuals.total_residual()
            np.testing.assert_allclose(
                lhs, residual_before + sum(grads.values()), atol=1e-9)
        assert memberships == [4, 3, 4, 5, 5]

    def test_gtopk_refuses_a_non_power_of_two_membership_unchanged(self):
        cluster = SimulatedCluster(4)
        cluster.install_fault_plan(FaultPlan(events=self.EVENTS[:1]))
        sync = make("gTopk", cluster, num_elements=200, density=0.05)
        session = SyncSession(sync)
        session.step(random_gradients(4, 200))
        stores = [sync.residuals.store(w).peek().copy() for w in range(4)]
        with pytest.raises(ValueError, match="power-of-two"):
            session.poll_membership()
        assert cluster.num_workers == sync.residuals.num_workers == 4
        for worker, store in enumerate(stores):
            np.testing.assert_array_equal(sync.residuals.store(worker).peek(),
                                          store)
