"""Overlap-aware iteration timing: closed-form timelines, monotonicity,
sequential equivalence, straggler composition, plan determinism and
fused training on the overlap-aware clock."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import make
from repro.comm.cluster import SimulatedCluster
from repro.comm.faults import FaultPlan
from repro.comm.network import ETHERNET, NetworkProfile
from repro.comm.stats import CommStats
from repro.core.pipeline import SyncSession
from repro.nn.models import build_mlp
from repro.training.timing import (
    ComputeProfile,
    iteration_time,
    overlap_timeline,
)

from tests.helpers import case5_trainer

NUM_WORKERS = 4


def _bucket_stats(volumes, num_workers=NUM_WORKERS):
    """One single-round CommStats per volume (rank 1 receives everything)."""
    out = []
    for volume in volumes:
        stats = CommStats(num_workers=num_workers)
        stats.record_round([(0, 1, float(volume))])
        out.append(stats)
    return out


class TestClosedFormTimelines:
    """Hand-computed 2–3 bucket pipelines (times in seconds)."""

    def test_full_overlap_three_buckets(self):
        # Backward slices of 1s each; every 0.5s exchange fits inside the
        # following slice, so only the last exchange's tail is exposed.
        tl = overlap_timeline([1.0, 1.0, 1.0], [0.5, 0.5, 0.5])
        assert tl.backward_finish == (1.0, 2.0, 3.0)
        assert tl.comm_start == (1.0, 2.0, 3.0)
        assert tl.comm_finish == (1.5, 2.5, 3.5)
        assert tl.critical_path == 3.5
        assert tl.exposed_comm == pytest.approx(0.5)
        assert tl.hidden_comm == pytest.approx(1.0)
        assert tl.overlap_ratio == pytest.approx(1.0 / 1.5)

    def test_zero_overlap_two_buckets(self):
        # All compute happens before the first exchange: nothing can hide.
        tl = overlap_timeline([2.0, 0.0], [1.0, 1.0])
        assert tl.comm_start == (2.0, 3.0)
        assert tl.comm_finish == (3.0, 4.0)
        assert tl.critical_path == 4.0
        assert tl.critical_path == tl.backward_total + tl.comm_total
        assert tl.hidden_comm == pytest.approx(0.0)
        assert tl.overlap_ratio == pytest.approx(0.0)

    def test_partial_overlap_two_buckets(self):
        # First exchange (2s) outlives the 1s slice it follows; the second
        # exchange starts the instant both gradient and channel are ready.
        tl = overlap_timeline([1.0, 2.0], [2.0, 1.0])
        assert tl.backward_finish == (1.0, 3.0)
        assert tl.comm_start == (1.0, 3.0)
        assert tl.comm_finish == (3.0, 4.0)
        assert tl.critical_path == 4.0
        assert tl.exposed_comm == pytest.approx(1.0)
        assert tl.hidden_comm == pytest.approx(2.0)

    def test_channel_contention_serialises_exchanges(self):
        # Three tiny slices, one huge first exchange: later buckets queue
        # on the shared channel even though their gradients are long ready.
        tl = overlap_timeline([0.1, 0.1, 0.1], [3.0, 1.0, 1.0])
        assert tl.comm_start == (0.1, 3.1, 4.1)
        assert tl.critical_path == pytest.approx(5.1)

    def test_single_bucket_degenerates_to_flat_sum(self):
        tl = overlap_timeline([1.25], [0.75])
        assert tl.critical_path == 1.25 + 0.75
        assert tl.hidden_comm == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            overlap_timeline([], [])
        with pytest.raises(ValueError):
            overlap_timeline([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            overlap_timeline([-1.0], [1.0])
        with pytest.raises(ValueError):
            overlap_timeline([1.0], [-0.5])


class TestMonotonicity:
    @given(
        times=st.lists(
            st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 5.0)),
            min_size=1, max_size=6),
        index=st.integers(0, 5),
        delta=st.floats(0.001, 5.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_more_compute_never_shortens_the_timeline(self, times, index, delta):
        computes = [c for c, _ in times]
        comms = [m for _, m in times]
        index %= len(computes)
        base = overlap_timeline(computes, comms)
        slowed = list(computes)
        slowed[index] += delta
        assert (overlap_timeline(slowed, comms).critical_path
                >= base.critical_path)

    @given(
        times=st.lists(
            st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 5.0)),
            min_size=1, max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_overlap_never_beats_compute_or_comm_alone(self, times):
        computes = [c for c, _ in times]
        comms = [m for _, m in times]
        tl = overlap_timeline(computes, comms)
        assert tl.critical_path >= sum(computes) - 1e-12
        assert tl.critical_path >= sum(comms) - 1e-12
        assert tl.critical_path <= sum(computes) + sum(comms) + 1e-12
        assert tl.hidden_comm >= -1e-12


class TestIterationTimeEquivalence:
    def test_no_bucket_stats_is_the_sequential_sum_bit_exact(self):
        stats = _bucket_stats([12345.0])[0]
        profile = ComputeProfile(0.13, 35.2e6)
        timing = iteration_time(stats, ETHERNET, profile, model_parameters=1000)
        expected = (profile.compute_time_per_update
                    + stats.simulated_time(ETHERNET, profile.volume_scale(1000)))
        assert timing.total == expected  # bit-exact, not approx
        assert timing.hidden_comm_time == 0.0
        assert timing.timeline is None

    def test_fusing_all_buckets_reproduces_flat_timing_bit_exact(self):
        """One merged bucket cannot overlap anything: the overlap model must
        reproduce the sequential ``compute + comm`` sum exactly."""
        stats = _bucket_stats([5000.0])[0]
        profile = ComputeProfile(0.13, 35.2e6)
        flat = iteration_time(stats, ETHERNET, profile, model_parameters=1000)
        fused = iteration_time(stats, ETHERNET, profile, model_parameters=1000,
                               bucket_stats=[stats], bucket_sizes=[1000])
        assert fused.total == flat.total
        assert fused.hidden_comm_time == 0.0

    def test_overlap_shortens_a_multi_bucket_iteration(self):
        per_bucket = _bucket_stats([400.0, 400.0, 200.0])
        merged = CommStats.merged(NUM_WORKERS, per_bucket)
        profile = ComputeProfile(0.5, 1000)
        sequential = iteration_time(merged, ETHERNET, profile,
                                    model_parameters=1000)
        overlapped = iteration_time(merged, ETHERNET, profile,
                                    model_parameters=1000,
                                    bucket_stats=per_bucket,
                                    bucket_sizes=[400, 400, 200])
        assert overlapped.communication_time == pytest.approx(
            sequential.communication_time)
        assert overlapped.total < sequential.total
        assert overlapped.hidden_comm_time > 0.0
        assert overlapped.total == pytest.approx(
            sequential.total - overlapped.hidden_comm_time)

    def test_forward_and_optimiser_time_never_overlaps(self):
        """Only the backward fraction hides communication: with
        backward_fraction=0 the overlap model must degrade to sequential."""
        per_bucket = _bucket_stats([400.0, 200.0])
        merged = CommStats.merged(NUM_WORKERS, per_bucket)
        profile = ComputeProfile(0.5, 1000, backward_fraction=0.0)
        sequential = iteration_time(merged, ETHERNET, profile,
                                    model_parameters=1000)
        overlapped = iteration_time(merged, ETHERNET, profile,
                                    model_parameters=1000,
                                    bucket_stats=per_bucket,
                                    bucket_sizes=[600, 400])
        assert overlapped.total == pytest.approx(sequential.total)
        assert overlapped.hidden_comm_time == pytest.approx(0.0)

    def test_mismatched_bucket_lists_raise(self):
        stats = _bucket_stats([100.0, 100.0])
        profile = ComputeProfile(0.1, 1e6)
        with pytest.raises(ValueError):
            iteration_time(stats[0], ETHERNET, profile,
                           bucket_stats=stats, bucket_sizes=[10])
        with pytest.raises(ValueError):
            iteration_time(stats[0], ETHERNET, profile, bucket_stats=stats)


class TestStragglerComposition:
    """Satellite: FaultPlan ``compute_factors`` compose with the overlap
    model, not just with the flat ``compute + comm`` sum."""

    def test_straggler_scales_every_backward_slice(self):
        fault_plan = FaultPlan(seed=3, straggler_rate=1.0,
                               straggler_slowdown=3.0)
        factors = fault_plan.straggler_factors(0, NUM_WORKERS)
        slowdown = max(factors)
        assert slowdown > 1.0  # rate 1.0 guarantees a straggler

        per_bucket = _bucket_stats([400.0, 400.0, 200.0])
        merged = CommStats.merged(NUM_WORKERS, per_bucket)
        profile = ComputeProfile(0.5, 1000)
        kwargs = dict(model_parameters=1000, bucket_stats=per_bucket,
                      bucket_sizes=[400, 400, 200])
        fast = iteration_time(merged, ETHERNET, profile, **kwargs)
        slow = iteration_time(merged, ETHERNET, profile,
                              compute_factors=factors, **kwargs)
        # Synchronous training waits for the slowest worker, in every slice.
        assert slow.compute_time == pytest.approx(
            profile.compute_time_per_update * slowdown)
        assert slow.timeline.backward_total == pytest.approx(
            fast.timeline.backward_total * slowdown)
        assert slow.timeline.compute_times == pytest.approx(
            tuple(t * slowdown for t in fast.timeline.compute_times))
        # Communication is untouched; the straggler only slows compute.
        assert slow.communication_time == pytest.approx(
            fast.communication_time)
        assert slow.total > fast.total

    def test_straggler_can_hide_more_communication(self):
        """A slower backward pass leaves more room to hide exchanges: the
        iteration gets slower overall, but the hidden share grows."""
        per_bucket = _bucket_stats([400.0, 400.0, 200.0])
        merged = CommStats.merged(NUM_WORKERS, per_bucket)
        profile = ComputeProfile(0.5, 1000)
        kwargs = dict(model_parameters=1000, bucket_stats=per_bucket,
                      bucket_sizes=[400, 400, 200])
        fast = iteration_time(merged, ETHERNET, profile, **kwargs)
        slow = iteration_time(merged, ETHERNET, profile,
                              compute_factors=[1.0, 4.0, 1.0, 1.0], **kwargs)
        assert slow.hidden_comm_time >= fast.hidden_comm_time - 1e-12
        assert slow.total > fast.total


class TestAutoPlanDeterminism:
    """``buckets=auto`` must plan the identical layout for a fixed
    seed/profile — the plan is a pure function of (model, cluster,
    network, compute profile)."""

    SPEC = "spardl?density=0.05&buckets=auto"

    def _plan(self):
        model = build_mlp(20, [32, 16], 4, seed=0)
        sync = make(self.SPEC, SimulatedCluster(NUM_WORKERS), model=model,
                    network=ETHERNET,
                    compute_profile=ComputeProfile(0.13, 35.2e6))
        return sync.fusion_plan

    def test_identical_plans_across_builds(self):
        first, second = self._plan(), self._plan()
        assert first.groups == second.groups
        assert first.sizes == second.sizes
        assert first.network == second.network
        assert (first.predicted.critical_path
                == second.predicted.critical_path)

    def test_plan_partitions_the_model(self):
        model = build_mlp(20, [32, 16], 4, seed=0)
        plan = self._plan()
        assert sum(plan.sizes) == model.num_parameters()
        assert plan.total_elements == model.num_parameters()


class TestFusedTraining:
    """One epoch of case 5 on four workers at density 0.02 on the
    overlap-aware clock: flat, per-layer, and the layout MG-WFBP plans."""

    LAYOUTS = {"flat": "", "layer": "&buckets=layer",
               "mgwfbp": "&buckets=auto"}

    @classmethod
    def _trainer(cls, layout):
        return case5_trainer("spardl?density=0.02" + cls.LAYOUTS[layout],
                             check_consistency=True)

    @pytest.fixture(scope="class")
    def histories(self):
        return {layout: self._trainer(layout).train(1) for layout in self.LAYOUTS}

    def test_fused_beats_flat_and_hides_the_recorded_shares(self, histories):
        """MG-WFBP's fused buckets finish strictly before flat SparDL and
        hide 71.6 % of their communication behind the backward pass."""
        assert histories["mgwfbp"].total_time < histories["flat"].total_time
        mgwfbp = histories["mgwfbp"]
        share = round(100 * mgwfbp.total_hidden_comm_time
                      / mgwfbp.total_communication_time, 1)
        assert share == 71.6

    def test_every_iteration_accounts_for_its_overlap(self, histories):
        """``0 <= hidden <= comm`` and ``total == compute + comm - hidden``
        in every iteration; a flat run hides nothing, a fused one hides
        communication in every iteration."""
        for history in histories.values():
            for r in history.iterations:
                assert 0.0 <= r.hidden_comm_time <= r.communication_time + 1e-9
                assert r.total_time == pytest.approx(
                    r.compute_time + r.communication_time - r.hidden_comm_time, abs=1e-9)
            assert history.epochs[0].hidden_comm_time == pytest.approx(
                sum(r.hidden_comm_time for r in history.iterations))
        assert histories["flat"].total_hidden_comm_time == 0.0
        assert all(r.hidden_comm_time > 0.0 for r in histories["mgwfbp"].iterations)
        epoch = histories["mgwfbp"].epochs[0]
        assert epoch.epoch_time < epoch.compute_time + epoch.communication_time

    def test_overlap_off_restores_the_sequential_sum(self, histories):
        """Every iteration's step statistics priced without ``bucket_stats``
        hide nothing and total compute + comm bit for bit; compute is the
        overlapped record's exactly, communication up to the order of
        summation — overlap only re-schedules."""
        trainer = self._trainer("mgwfbp")
        results, step = [], trainer.session.step
        trainer.session.step = lambda gradients: results.append(step(gradients)) or results[-1]
        history = trainer.train(1)
        assert len(results) == len(history.iterations)
        for fast, record, result in zip(histories["mgwfbp"].iterations,
                                        history.iterations, results):
            assert record == fast
            slow = iteration_time(result.stats, trainer.network, trainer.compute_profile,
                                  model_parameters=trainer.num_elements)
            assert slow.hidden_comm_time == 0.0 and slow.timeline is None
            assert slow.total == slow.compute_time + slow.communication_time
            assert slow.compute_time == record.compute_time
            assert slow.communication_time == pytest.approx(record.communication_time,
                                                            abs=1e-9)
