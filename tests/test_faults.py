"""Fault injection, retry billing, and heterogeneous timing.

Gates of the robustness layer:

* with no :class:`~repro.comm.faults.FaultPlan` installed — and with a
  zero-rate plan installed — every method's pipeline output and
  ``CommStats`` are bit-identical to the reliable path;
* a seeded plan is deterministic across runs;
* every retry, backoff idle and late arrival is billed as extra recorded
  rounds in ``CommStats``;
* messages lost past the retry budget fold their mass into the residual
  path, so conservation holds to 1e-9 under faults;
* reliable (non-lossy) messages are force-delivered, keeping the dense
  baseline exact under arbitrary drop rates.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import SYNCHRONIZER_NAMES, make
from repro.comm.cluster import Message, SimulatedCluster
from repro.comm.collectives import (allgather_bruck_grouped, allreduce_rabenseifner,
                                    allreduce_ring)
from repro.comm.faults import FaultPlan, MembershipEvent, RetryPolicy, membership_transition
from repro.comm.network import ETHERNET, PERFECT, RDMA, HeterogeneousNetwork, NetworkProfile
from repro.comm.stats import CommStats
from repro.core.config import SparDLConfig
from repro.core.pipeline import SyncSession
from repro.core.spardl import SparDLSynchronizer
from repro.obs import Tracer
from repro.baselines.dense import DenseAllReduceSynchronizer
from repro.training.timing import iteration_time, ComputeProfile

from tests.helpers import random_gradients

NUM_ELEMENTS = 500


def _spec(method: str) -> str:
    if method == "Dense":
        return "dense"
    return f"{method.lower()}?density=0.05"


def _assert_stats_equal(actual: CommStats, expected: CommStats) -> None:
    assert actual.rounds == expected.rounds
    assert actual.total_messages == expected.total_messages
    assert actual.sent_per_worker == expected.sent_per_worker
    assert actual.received_per_worker == expected.received_per_worker
    assert actual.per_round_max_received == expected.per_round_max_received
    assert actual.per_round_received == expected.per_round_received
    assert actual.dropped_messages == expected.dropped_messages
    assert actual.retried_messages == expected.retried_messages
    assert actual.lost_messages == expected.lost_messages
    assert actual.forced_deliveries == expected.forced_deliveries
    assert actual.delayed_messages == expected.delayed_messages
    assert actual.fault_extra_rounds == expected.fault_extra_rounds


# ---------------------------------------------------------------------------
# plan validation and deterministic sampling
# ---------------------------------------------------------------------------
class TestFaultPlanValidation:
    @pytest.mark.parametrize("field,value", [
        ("drop_rate", -0.1), ("drop_rate", 1.5), ("drop_rate", float("nan")),
        ("delay_rate", 2.0), ("straggler_rate", -1.0),
    ])
    def test_rates_must_be_probabilities(self, field, value):
        with pytest.raises(ValueError):
            FaultPlan(**{field: value})

    def test_slowdown_and_delay_bounds(self):
        with pytest.raises(ValueError):
            FaultPlan(straggler_slowdown=0.5)
        with pytest.raises(ValueError):
            FaultPlan(max_delay_rounds=0)
        with pytest.raises(ValueError):
            FaultPlan(timeout_rounds=-1)

    def test_event_validation(self):
        with pytest.raises(ValueError):
            MembershipEvent(iteration=-1, kind="crash")
        with pytest.raises(ValueError):
            MembershipEvent(iteration=0, kind="leave")
        with pytest.raises(ValueError):
            MembershipEvent(iteration=0, kind="crash", worker=-3)

    def test_zero_rate_plan_injects_nothing(self):
        assert not FaultPlan().injects_message_faults
        assert FaultPlan(drop_rate=0.1).injects_message_faults
        assert FaultPlan(delay_rate=0.1).injects_message_faults


class TestDeterministicSampling:
    def test_message_fate_is_pure_in_seed_and_key(self):
        plan = FaultPlan(seed=42, drop_rate=0.3, delay_rate=0.3,
                         max_delay_rounds=3, timeout_rounds=3)
        fates = [plan.message_fate(7, 1, 0, 3, "srs-2") for _ in range(5)]
        assert len(set(fates)) == 1
        again = FaultPlan(seed=42, drop_rate=0.3, delay_rate=0.3,
                          max_delay_rounds=3, timeout_rounds=3)
        assert again.message_fate(7, 1, 0, 3, "srs-2") == fates[0]

    def test_different_keys_decorrelate(self):
        plan = FaultPlan(seed=0, drop_rate=0.5)
        fates = {(r, a): plan.message_fate(r, a, 0, 1, "t")
                 for r in range(20) for a in (1, 2)}
        outcomes = {fate for fate in fates.values()}
        assert len(outcomes) > 1  # not all attempts share one fate

    def test_delay_past_timeout_is_a_drop(self):
        # delay_rate=1 with max lateness far beyond the timeout: every
        # sampled lateness above timeout_rounds must come back as a drop.
        plan = FaultPlan(seed=1, delay_rate=1.0, max_delay_rounds=50,
                         timeout_rounds=0)
        for attempt in range(1, 5):
            assert plan.message_fate(0, attempt, 0, 1, "x") == ("drop", 0)

    def test_straggler_factors_are_seeded_and_bounded(self):
        plan = FaultPlan(seed=9, straggler_rate=0.5, straggler_slowdown=4.0)
        factors = plan.straggler_factors(3, 32)
        assert factors == plan.straggler_factors(3, 32)
        assert all(1.0 <= factor <= 4.0 for factor in factors)
        assert any(factor > 1.0 for factor in factors)
        assert any(factor == 1.0 for factor in factors)
        assert FaultPlan(seed=9).straggler_factor(3, 5) == 1.0


class TestMembershipTransition:
    def test_join_is_identity_over_old_ranks(self):
        new_size, mapping = membership_transition(
            3, MembershipEvent(iteration=0, kind="join"))
        assert new_size == 4
        assert mapping == {0: 0, 1: 1, 2: 2}

    def test_crash_renumbers_and_hands_off_to_successor(self):
        new_size, mapping = membership_transition(
            8, MembershipEvent(iteration=0, kind="crash", worker=3))
        assert new_size == 7
        # survivors 0,1,2,4,...,7 renumbered contiguously
        assert mapping[4] == 3 and mapping[7] == 6
        # crashed rank's residual goes to its cyclic successor (old rank 4)
        assert mapping[3] == mapping[4]

    def test_crash_default_is_highest_rank(self):
        new_size, mapping = membership_transition(
            4, MembershipEvent(iteration=0, kind="crash"))
        assert new_size == 3
        assert mapping[3] == mapping[0] == 0

    def test_crash_errors(self):
        with pytest.raises(ValueError):
            membership_transition(4, MembershipEvent(0, "crash", worker=4))
        with pytest.raises(ValueError):
            membership_transition(1, MembershipEvent(0, "crash", worker=0))


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=float("inf"))

    def test_idle_rounds_grow_geometrically(self):
        policy = RetryPolicy(max_retries=4, backoff=2.0)
        assert policy.idle_rounds(1) == 0
        assert policy.idle_rounds(2) == 0  # first retry is immediate
        assert policy.idle_rounds(3) == 1
        assert policy.idle_rounds(4) == 3


# ---------------------------------------------------------------------------
# bit-identity gates
# ---------------------------------------------------------------------------
class TestNoPlanBitIdentity:
    """No installed plan == zero-rate plan == the reliable exchange path."""

    @pytest.mark.parametrize("method", SYNCHRONIZER_NAMES)
    def test_zero_rate_plan_is_bit_identical(self, method):
        num_workers = 8
        plain = make(_spec(method), SimulatedCluster(num_workers),
                     num_elements=NUM_ELEMENTS)
        planned_cluster = SimulatedCluster(num_workers)
        planned_cluster.install_fault_plan(FaultPlan(seed=123))
        planned = make(_spec(method), planned_cluster, num_elements=NUM_ELEMENTS)
        for iteration in range(3):
            grads = random_gradients(num_workers, NUM_ELEMENTS, seed=10 * iteration)
            expected = plain.synchronize({w: g.copy() for w, g in grads.items()})
            actual = planned.synchronize({w: g.copy() for w, g in grads.items()})
            for worker in range(num_workers):
                np.testing.assert_array_equal(
                    actual.global_gradients[worker],
                    expected.global_gradients[worker])
            _assert_stats_equal(actual.stats, expected.stats)

    def test_fault_counters_zero_on_reliable_path(self, cluster4):
        sync = SparDLSynchronizer(cluster4, NUM_ELEMENTS, SparDLConfig(density=0.05))
        result = sync.synchronize(random_gradients(4, NUM_ELEMENTS))
        stats = result.stats
        assert stats.dropped_messages == 0
        assert stats.retried_messages == 0
        assert stats.lost_messages == 0
        assert stats.forced_deliveries == 0
        assert stats.delayed_messages == 0
        assert stats.fault_extra_rounds == 0
        assert "lost_messages" not in result.info

    def test_install_returns_previous_plan(self, cluster4):
        first = FaultPlan(seed=1)
        assert cluster4.install_fault_plan(first) is None
        assert cluster4.fault_plan is first
        assert cluster4.install_fault_plan(None) is first


class TestSeededScenarioDeterminism:
    def test_same_seed_same_everything(self):
        results = []
        for _ in range(2):
            cluster = SimulatedCluster(8)
            cluster.install_fault_plan(FaultPlan(
                seed=7, drop_rate=0.25, delay_rate=0.2, max_delay_rounds=2,
                timeout_rounds=2, retry=RetryPolicy(max_retries=2)))
            sync = SparDLSynchronizer(cluster, NUM_ELEMENTS,
                                      SparDLConfig(density=0.05, num_teams=2))
            out = [sync.synchronize(random_gradients(8, NUM_ELEMENTS, seed=i))
                   for i in range(3)]
            results.append(out)
        for first, second in zip(*results):
            for worker in range(8):
                np.testing.assert_array_equal(first.global_gradients[worker],
                                              second.global_gradients[worker])
            _assert_stats_equal(first.stats, second.stats)

    def test_different_seeds_differ(self):
        def run(seed):
            cluster = SimulatedCluster(8)
            cluster.install_fault_plan(FaultPlan(seed=seed, drop_rate=0.4))
            sync = SparDLSynchronizer(cluster, NUM_ELEMENTS,
                                      SparDLConfig(density=0.05))
            return sync.synchronize(random_gradients(8, NUM_ELEMENTS)).stats
        a, b = run(1), run(2)
        assert (a.dropped_messages, a.rounds) != (b.dropped_messages, b.rounds)


# ---------------------------------------------------------------------------
# retry billing and graceful degradation
# ---------------------------------------------------------------------------
class TestRetryBilling:
    def test_retries_and_extra_rounds_are_billed(self):
        baseline_cluster = SimulatedCluster(8)
        baseline = SparDLSynchronizer(baseline_cluster, NUM_ELEMENTS,
                                      SparDLConfig(density=0.05))
        fault_free = baseline.synchronize(random_gradients(8, NUM_ELEMENTS)).stats

        cluster = SimulatedCluster(8)
        cluster.install_fault_plan(FaultPlan(seed=3, drop_rate=0.4,
                                             retry=RetryPolicy(max_retries=3)))
        sync = SparDLSynchronizer(cluster, NUM_ELEMENTS, SparDLConfig(density=0.05))
        faulted = sync.synchronize(random_gradients(8, NUM_ELEMENTS)).stats

        assert faulted.dropped_messages > 0
        assert faulted.retried_messages > 0
        assert faulted.fault_extra_rounds > 0
        assert faulted.rounds == fault_free.rounds + faulted.fault_extra_rounds

    def test_late_arrivals_bill_extra_rounds(self):
        cluster = SimulatedCluster(4)
        cluster.install_fault_plan(FaultPlan(seed=5, delay_rate=0.6,
                                             max_delay_rounds=2, timeout_rounds=2))
        sync = DenseAllReduceSynchronizer(cluster, NUM_ELEMENTS)
        grads = random_gradients(4, NUM_ELEMENTS)
        result = sync.synchronize(grads)
        assert result.stats.delayed_messages > 0
        assert result.stats.fault_extra_rounds > 0
        # Delays never corrupt the result, only the billing.
        np.testing.assert_allclose(result.gradient(0), sum(grads.values()))

    def test_volume_conserved_for_delivered_messages(self):
        # Force-delivered messages still bill their volume exactly once.
        cluster = SimulatedCluster(4)
        cluster.install_fault_plan(FaultPlan(seed=3, drop_rate=0.5,
                                             retry=RetryPolicy(max_retries=0)))
        baseline = DenseAllReduceSynchronizer(SimulatedCluster(4), NUM_ELEMENTS)
        reference = baseline.synchronize(random_gradients(4, NUM_ELEMENTS)).stats
        sync = DenseAllReduceSynchronizer(cluster, NUM_ELEMENTS)
        faulted = sync.synchronize(random_gradients(4, NUM_ELEMENTS)).stats
        assert faulted.lost_messages == 0  # dense messages are reliable
        assert faulted.forced_deliveries > 0
        assert faulted.total_volume == reference.total_volume


class TestGracefulDegradation:
    @pytest.mark.parametrize("sizes", [NUM_ELEMENTS, [NUM_ELEMENTS - 90, 3, 87]],
                             ids=["one-bucket", "three-buckets"])
    @pytest.mark.parametrize("num_bits", [None, 8], ids=["exact", "bits8"])
    def test_conservation_under_heavy_loss(self, sizes, num_bits):
        """A lost SRS bag — one bag per segment, several per block when the
        gradient spans buckets — folds into the sender's residuals, next to
        the quantisation error of every bag that did arrive."""
        cluster = SimulatedCluster(8)
        cluster.install_fault_plan(FaultPlan(seed=3, drop_rate=0.6,
                                             retry=RetryPolicy(max_retries=0)))
        sync = SparDLSynchronizer(cluster, sizes, SparDLConfig(
            density=0.05, num_teams=2, num_bits=num_bits))
        lost_total = 0
        for iteration in range(3):
            grads = random_gradients(8, NUM_ELEMENTS, seed=100 * iteration)
            # Residual state carries across iterations: this step must
            # account for the new inputs plus the carried-over residual.
            expected = sum(grads.values()) + sync.residuals.total_residual()
            result = sync.synchronize(grads)
            assert result.is_consistent
            recon = result.gradient(0) + sync.residuals.total_residual()
            lost_total += result.stats.lost_messages
            # conservation: sent + error + discards == input, under faults
            np.testing.assert_allclose(recon, expected, atol=1e-9)
            # losses reported both in stats and diagnostics
            if result.stats.lost_messages:
                assert result.info["lost_messages"] == result.stats.lost_messages
                assert result.info["lost_mass"] > 0
        assert lost_total > 0  # the scenario actually exercised the loss path

    def test_conservation_across_iterations_under_loss(self):
        cluster = SimulatedCluster(8)
        cluster.install_fault_plan(FaultPlan(seed=11, drop_rate=0.5,
                                             retry=RetryPolicy(max_retries=0)))
        sync = SparDLSynchronizer(cluster, NUM_ELEMENTS,
                                  SparDLConfig(density=0.05, num_teams=2))
        delivered = np.zeros(NUM_ELEMENTS)
        injected = np.zeros(NUM_ELEMENTS)
        for iteration in range(4):
            grads = random_gradients(8, NUM_ELEMENTS, seed=7 * iteration + 1)
            injected += sum(grads.values())
            delivered += sync.synchronize(grads).gradient(0)
        recon = delivered + sync.residuals.total_residual()
        np.testing.assert_allclose(recon, injected, atol=1e-9)

    def test_quantized_pipeline_conserves_under_loss(self):
        cluster = SimulatedCluster(4)
        cluster.install_fault_plan(FaultPlan(seed=2, drop_rate=0.5,
                                             retry=RetryPolicy(max_retries=0)))
        sync = SparDLSynchronizer(cluster, NUM_ELEMENTS,
                                  SparDLConfig(density=0.05, num_bits=8))
        grads = random_gradients(4, NUM_ELEMENTS, seed=13)
        result = sync.synchronize(grads)
        recon = result.gradient(0) + sync.residuals.total_residual()
        np.testing.assert_allclose(recon, sum(grads.values()), atol=1e-9)

    def test_dense_stays_exact_under_drops(self):
        cluster = SimulatedCluster(6)
        cluster.install_fault_plan(FaultPlan(seed=3, drop_rate=0.6,
                                             retry=RetryPolicy(max_retries=1)))
        sync = DenseAllReduceSynchronizer(cluster, NUM_ELEMENTS)
        grads = random_gradients(6, NUM_ELEMENTS)
        result = sync.synchronize(grads)
        assert result.stats.lost_messages == 0
        np.testing.assert_allclose(result.gradient(0), sum(grads.values()))


# ---------------------------------------------------------------------------
# cluster-level mechanics
# ---------------------------------------------------------------------------
class TestClusterFaultMechanics:
    def test_inbox_order_matches_submission_order(self):
        cluster = SimulatedCluster(4)
        cluster.install_fault_plan(FaultPlan(seed=1, delay_rate=0.9,
                                             max_delay_rounds=3, timeout_rounds=3))
        messages = [Message(src=s, dst=3, payload=float(s), tag="t")
                    for s in range(3)]
        inboxes = cluster.exchange(messages)
        assert [m.src for m in inboxes[3]] == [0, 1, 2]

    def test_lost_messages_are_drained_once(self):
        cluster = SimulatedCluster(2)
        cluster.install_fault_plan(FaultPlan(seed=0, drop_rate=1.0,
                                             retry=RetryPolicy(max_retries=0)))
        inboxes = cluster.exchange([Message(src=0, dst=1, payload=np.ones(3),
                                            tag="x", lossy=True)])
        assert inboxes == {}
        assert cluster.stats.lost_messages == 1
        lost = cluster.drain_lost()
        assert len(lost) == 1 and lost[0].src == 0
        assert cluster.drain_lost() == []

    def test_resize_refuses_undrained_losses(self):
        cluster = SimulatedCluster(3)
        cluster.install_fault_plan(FaultPlan(seed=0, drop_rate=1.0,
                                             retry=RetryPolicy(max_retries=0)))
        cluster.exchange([Message(src=0, dst=1, payload=np.ones(3), lossy=True)])
        with pytest.raises(RuntimeError):
            cluster.resize(4)
        cluster.drain_lost()
        cluster.resize(4)
        assert cluster.num_workers == 4
        assert cluster.stats.num_workers == 4

    def test_certain_drop_forces_reliable_delivery(self):
        cluster = SimulatedCluster(2)
        cluster.install_fault_plan(FaultPlan(seed=0, drop_rate=1.0,
                                             retry=RetryPolicy(max_retries=2)))
        message = Message(src=0, dst=1, payload=np.arange(4.0))
        inboxes = cluster.exchange([message])
        assert inboxes[1] == [message]
        stats = cluster.stats
        assert stats.forced_deliveries == 1
        assert stats.dropped_messages == 3  # one per attempt
        assert stats.retried_messages == 2
        # attempt rounds + backoff idle + forced round, minus the nominal one
        assert stats.fault_extra_rounds == stats.rounds - 1
        # volume billed exactly once, in the forced round
        assert stats.received_per_worker[1] == 4.0


class TestPriceValidation:
    """A sender's ``price`` is checked as its messages are built: a bad
    size raises before any message of the round reaches the transport."""

    @pytest.mark.parametrize("collective", [
        lambda cluster, items, price: allgather_bruck_grouped(
            cluster, [list(cluster.ranks)], items, price),
        lambda cluster, items, price: allreduce_ring(cluster, items, price=price),
        lambda cluster, items, price: allreduce_rabenseifner(cluster, items, price=price),
    ], ids=["bruck", "ring", "rabenseifner"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_invalid_price_raises(self, cluster4, collective, bad):
        calls = []

        def price(payload):
            calls.append(payload)
            return bad if len(calls) == 4 else 1.0  # the round's last message

        cluster4.install_tracer(Tracer("steps"))
        before = cluster4.tracer.snapshot()
        with pytest.raises(ValueError, match="message size must be"):
            collective(cluster4, {rank: np.ones(8) for rank in range(4)}, price)
        assert len(calls) == 4
        assert cluster4.tracer.snapshot() == before
        assert cluster4.stats.rounds == 0 and cluster4.stats.total_messages == 0

    def test_valid_price_is_billed(self, cluster4):
        allgather_bruck_grouped(cluster4, [[0, 1]], {0: np.ones(3), 1: np.ones(3)},
                                lambda payload: 2.5)
        assert cluster4.stats.received_per_worker[1] == 2.5
        assert cluster4.stats.total_volume == 5.0


# ---------------------------------------------------------------------------
# heterogeneity and straggler-aware timing
# ---------------------------------------------------------------------------
class TestScaledProfiles:
    def test_scaled_name_does_not_chain(self):
        once = ETHERNET.scaled(alpha_factor=2.0)
        twice = once.scaled(alpha_factor=2.0)
        assert once.name == "ethernet-scaled"
        assert twice.name == "ethernet-scaled"
        assert twice.alpha == ETHERNET.alpha * 4.0

    def test_scaled_explicit_name_wins(self):
        assert ETHERNET.scaled(beta_factor=3.0, name="slow").name == "slow"

    @pytest.mark.parametrize("factor", [float("nan"), float("inf"), -0.5])
    def test_scaled_validates_factors(self, factor):
        with pytest.raises(ValueError):
            ETHERNET.scaled(alpha_factor=factor)
        with pytest.raises(ValueError):
            ETHERNET.scaled(beta_factor=factor)


class TestHeterogeneousNetwork:
    def test_round_time_is_max_over_critical_paths(self):
        slow = NetworkProfile(name="slow", alpha=1.0, beta=1.0)
        fast = NetworkProfile(name="fast", alpha=0.1, beta=0.01)
        network = HeterogeneousNetwork(default=fast, overrides={1: slow})
        # worker 0: 0.1 + 0.01*100 = 1.1 ; worker 1: 1 + 10 = 11
        assert network.round_time([100.0, 10.0]) == pytest.approx(11.0)
        assert network.round_time([]) == fast.alpha
        assert network.profile_for(1) is slow
        assert network.profile_for(0) is fast

    def test_plan_builds_ingress_profiles(self):
        slow = NetworkProfile(name="slow-nic", alpha=1.0, beta=1e-6)
        congested = NetworkProfile(name="congested", alpha=0.5, beta=1e-5)
        plan = FaultPlan(worker_profiles={1: slow},
                         link_profiles={(0, 2): congested})
        network = plan.heterogeneous_network(4, ETHERNET)
        assert network.profile_for(1) is slow
        # link override folds in element-wise max against the default
        ingress = network.profile_for(2)
        assert ingress.alpha == max(ETHERNET.alpha, congested.alpha)
        assert ingress.beta == max(ETHERNET.beta, congested.beta)
        assert network.profile_for(3) is ETHERNET

    def test_simulated_time_uses_per_round_volumes(self):
        cluster = SimulatedCluster(3)
        cluster.exchange([Message(src=0, dst=1, size=100.0),
                          Message(src=0, dst=2, size=10.0)])
        cluster.exchange([Message(src=1, dst=2, size=50.0)])
        stats = cluster.stats
        slow = NetworkProfile(name="slow", alpha=1.0, beta=1.0)
        network = HeterogeneousNetwork(default=PERFECT, overrides={2: slow})
        # round 1: worker 2 receives 10 -> 11 ; round 2: receives 50 -> 51
        assert stats.simulated_time(network) == pytest.approx(62.0)
        # uniform pricing is unchanged
        assert stats.simulated_time(RDMA) == pytest.approx(
            RDMA.alpha * 2 + RDMA.beta * 150.0)

    def test_rounds_without_rows_price_at_default_alpha(self):
        stats = CommStats(num_workers=2)
        stats.rounds = 3  # e.g. merged from pre-heterogeneity data
        network = HeterogeneousNetwork(default=NetworkProfile("n", 2.0, 0.0))
        assert stats.simulated_time(network) == pytest.approx(6.0)


class TestStragglerTiming:
    def test_compute_scales_by_slowest_worker(self):
        stats = CommStats(num_workers=2)
        profile = ComputeProfile(compute_time_per_update=2.0, paper_parameters=1e6)
        timing = iteration_time(stats, PERFECT, profile,
                                compute_factors=[1.0, 3.0, 1.5])
        assert timing.compute_time == pytest.approx(6.0)
        assert iteration_time(stats, PERFECT, profile).compute_time == 2.0

    def test_compute_factors_validated(self):
        stats = CommStats(num_workers=2)
        profile = ComputeProfile(compute_time_per_update=1.0, paper_parameters=1e6)
        with pytest.raises(ValueError):
            iteration_time(stats, PERFECT, profile, compute_factors=[])
        with pytest.raises(ValueError):
            iteration_time(stats, PERFECT, profile, compute_factors=[-1.0])

    def test_plan_straggler_factors_feed_timing(self):
        plan = FaultPlan(seed=4, straggler_rate=1.0, straggler_slowdown=2.0)
        stats = CommStats(num_workers=4)
        profile = ComputeProfile(compute_time_per_update=1.0, paper_parameters=1e6)
        factors = plan.straggler_factors(0, 4)
        timing = iteration_time(stats, PERFECT, profile, compute_factors=factors)
        assert timing.compute_time == pytest.approx(max(factors))
        assert 1.0 < timing.compute_time <= 2.0

    @pytest.mark.parametrize("spec", ["spardl?density=0.02&teams=2", "dense"])
    def test_simulated_time_grows_with_straggler_severity(self, spec):
        """Severity 1x .. 8x: stragglers at rate 0.3 and worker 0's NIC
        slowed as much.  The factors are common random numbers across
        severities, so six steps' simulated time grows strictly."""
        profile = ComputeProfile(compute_time_per_update=5e-3, paper_parameters=1e6)
        times = []
        for severity in (1.0, 2.0, 4.0, 8.0):
            plan = FaultPlan(seed=2024, straggler_rate=0.0 if severity == 1.0 else 0.3,
                             straggler_slowdown=severity,
                             worker_profiles={0: ETHERNET.scaled(beta_factor=severity)})
            cluster = SimulatedCluster(8)
            cluster.install_fault_plan(plan)
            session = SyncSession(make(spec, cluster, num_elements=3_000))
            network = plan.heterogeneous_network(8, ETHERNET)
            total = 0.0
            for iteration in range(6):
                stats = session.step(random_gradients(8, 3_000, seed=9000 + 100 * iteration)).stats
                total += iteration_time(stats, network, profile,
                                        compute_factors=plan.straggler_factors(iteration, 8)).total
            times.append(total)
        assert all(faster < slower for faster, slower in zip(times, times[1:])), times
