"""The staged pipeline must reproduce the legacy one-shot call bit for bit.

Acceptance criterion of the staged-pipeline redesign: for every method in
``SYNCHRONIZER_NAMES``, driving the stages through a
:class:`~repro.core.pipeline.SyncSession` (and, for SparDL, through a
single-flat-bucket :class:`~repro.core.bucketed.BucketedSynchronizer`) with a constant
schedule produces bit-identical ``SyncResult.global_gradients`` and equal
``CommStats`` volumes to the legacy ``synchronize()`` adapter, across
multiple iterations (i.e. with residual state evolving).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import SYNCHRONIZER_NAMES, make
from repro.comm.cluster import SimulatedCluster
from repro.core.bucketed import BucketedSynchronizer
from repro.core.config import SparDLConfig
from repro.core.pipeline import PIPELINE_STAGES, SyncSession, SyncStage
from repro.training.cases import get_case

from tests.helpers import case5_trainer

NUM_ELEMENTS = 600
ITERATIONS = 3


def _spec(method: str) -> str:
    if method == "Dense":
        return "dense"
    return f"{method.lower()}?density=0.05"


def _gradients(num_workers: int, iteration: int):
    return {
        worker: np.random.default_rng(1000 * iteration + worker)
                  .normal(size=NUM_ELEMENTS)
        for worker in range(num_workers)
    }


def _assert_stats_equal(actual, expected):
    assert actual.rounds == expected.rounds
    assert actual.total_messages == expected.total_messages
    assert actual.sent_per_worker == expected.sent_per_worker
    assert actual.received_per_worker == expected.received_per_worker
    assert actual.per_round_max_received == expected.per_round_max_received


def _methods_for(num_workers: int):
    return [name for name in SYNCHRONIZER_NAMES
            if name != "gTopk" or (num_workers & (num_workers - 1)) == 0]


class TestSessionEqualsLegacySynchronize:
    @pytest.mark.parametrize("num_workers", [5, 8])
    @pytest.mark.parametrize("method", SYNCHRONIZER_NAMES)
    def test_bit_identical_gradients_and_stats(self, method, num_workers):
        if method not in _methods_for(num_workers):
            pytest.skip("gTopk needs a power-of-two worker count")
        legacy = make(_spec(method), SimulatedCluster(num_workers),
                      num_elements=NUM_ELEMENTS)
        staged = make(_spec(method), SimulatedCluster(num_workers),
                      num_elements=NUM_ELEMENTS)
        session = SyncSession(staged)
        for iteration in range(ITERATIONS):
            grads = _gradients(num_workers, iteration)
            expected = legacy.synchronize({w: g.copy() for w, g in grads.items()})
            actual = session.step({w: g.copy() for w, g in grads.items()})
            for worker in range(num_workers):
                np.testing.assert_array_equal(
                    actual.global_gradients[worker],
                    expected.global_gradients[worker],
                    err_msg=f"{method}: worker {worker} diverged at iteration {iteration}")
            _assert_stats_equal(actual.stats, expected.stats)
            assert actual.info.get("k") == expected.info.get("k")
            assert actual.info.get("final_nnz") == expected.info.get("final_nnz")
        assert session.iteration == ITERATIONS

    def test_single_flat_bucket_is_bit_identical(self):
        num_workers = 8
        legacy = make(_spec("SparDL"), SimulatedCluster(num_workers),
                      num_elements=NUM_ELEMENTS)
        bucketed = BucketedSynchronizer(SimulatedCluster(num_workers), [NUM_ELEMENTS],
                                        SparDLConfig(density=0.05))
        for iteration in range(ITERATIONS):
            grads = _gradients(num_workers, iteration)
            expected = legacy.synchronize({w: g.copy() for w, g in grads.items()})
            actual = bucketed.synchronize({w: g.copy() for w, g in grads.items()})
            for worker in range(num_workers):
                np.testing.assert_array_equal(
                    actual.global_gradients[worker],
                    expected.global_gradients[worker])
            _assert_stats_equal(actual.stats, expected.stats)

    def test_cumulative_stats_accumulate_across_steps(self):
        sync = make("spardl?density=0.05", SimulatedCluster(4),
                    num_elements=NUM_ELEMENTS)
        session = SyncSession(sync)
        per_step = []
        for iteration in range(ITERATIONS):
            result = session.step(_gradients(4, iteration))
            per_step.append(result.stats)
        assert session.cumulative_stats.rounds == sum(s.rounds for s in per_step)
        assert session.cumulative_stats.total_volume == pytest.approx(
            sum(s.total_volume for s in per_step))

    def test_factory_built_training_equals_a_prebuilt_synchroniser(self):
        """One epoch of case 5 on four workers: the trainer that builds its
        synchroniser from the spec trains exactly like one handed a
        synchroniser built the legacy way, over a precomputed size."""
        facade = case5_trainer("spardl?density=0.02", check_consistency=True).train(1)
        cluster = SimulatedCluster(4)
        legacy = make("SparDL", cluster,
                      num_elements=get_case(5).build_model(0).num_parameters(),
                      density=0.02)
        prebuilt = case5_trainer(legacy, cluster=cluster, check_consistency=True).train(1)
        assert ([epoch.train_loss for epoch in facade.epochs]
                == [epoch.train_loss for epoch in prebuilt.epochs])
        assert ([record.loss for record in facade.iterations]
                == [record.loss for record in prebuilt.iterations])


class TestStageProtocol:
    def test_stages_fire_in_order_with_context(self):
        sync = make("spardl?density=0.05", SimulatedCluster(4),
                    num_elements=NUM_ELEMENTS)
        session = SyncSession(sync)
        seen = []

        def hook(stage, context):
            seen.append(stage)
            if stage is SyncStage.SELECT:
                assert context.selected is not None
            if stage is SyncStage.COMPRESS:
                assert context.wire is not None
            if stage is SyncStage.EXCHANGE:
                assert context.exchanged is not None
            if stage is SyncStage.COMBINE:
                assert context.global_gradients is not None
                assert context.reference is not None

        session.add_stage_hook(hook)
        session.step(_gradients(4, 0))
        assert seen == list(PIPELINE_STAGES)

    def test_exchange_stage_owns_all_traffic(self):
        """Every round of cluster traffic happens inside the exchange and
        combine stages (select/compress are communication-free)."""
        cluster = SimulatedCluster(6)
        sync = make("spardl?density=0.05", cluster, num_elements=NUM_ELEMENTS)
        session = SyncSession(sync)
        rounds_at_stage = {}

        def hook(stage, context):
            rounds_at_stage[stage] = cluster.stats.rounds

        session.add_stage_hook(hook)
        result = session.step(_gradients(6, 0))
        assert rounds_at_stage[SyncStage.SELECT] == 0
        assert rounds_at_stage[SyncStage.COMPRESS] == 0
        assert rounds_at_stage[SyncStage.RESIDUAL_UPDATE] == result.stats.rounds
