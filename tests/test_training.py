"""Unit tests for timing, metrics, cases and the distributed trainer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import make, make_factory
from repro.comm.cluster import SimulatedCluster
from repro.comm.network import ETHERNET, PERFECT, NetworkProfile
from repro.comm.stats import CommStats
from repro.data.datasets import DataLoader, TaskType
from repro.nn.losses import CrossEntropyLoss, MSELoss
from repro.nn.parameter import flatten_values
from repro.training.cases import CASES, get_case
from repro.training.metrics import EpochRecord, IterationRecord, TrainingHistory
from repro.training.timing import ComputeProfile, communication_time, iteration_time
from repro.training.trainer import (
    DistributedTrainer,
    TrainerConfig,
    _local_step,
    default_loss_for_task,
    default_metric_for_task,
)

from tests.helpers import lanes


class TestComputeProfile:
    def test_volume_scale(self):
        profile = ComputeProfile(compute_time_per_update=0.1, paper_parameters=1e7)
        assert profile.volume_scale(1e5) == pytest.approx(100.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ComputeProfile(compute_time_per_update=-1.0, paper_parameters=1e6)
        with pytest.raises(ValueError):
            ComputeProfile(compute_time_per_update=0.1, paper_parameters=0)
        profile = ComputeProfile(0.1, 1e6)
        with pytest.raises(ValueError):
            profile.volume_scale(0)


class TestTimingFunctions:
    def _stats(self):
        stats = CommStats(num_workers=2)
        stats.record_round([(0, 1, 100.0)])
        stats.record_round([(1, 0, 50.0)])
        return stats

    def test_communication_time(self):
        network = NetworkProfile("n", alpha=1.0, beta=0.01)
        assert communication_time(self._stats(), network) == pytest.approx(2.0 + 1.5)

    def test_volume_scale_multiplies_bandwidth_only(self):
        network = NetworkProfile("n", alpha=1.0, beta=0.01)
        scaled = communication_time(self._stats(), network, volume_scale=10.0)
        assert scaled == pytest.approx(2.0 + 15.0)

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            communication_time(self._stats(), ETHERNET, volume_scale=0.0)

    def test_iteration_time_combines_compute_and_comm(self):
        profile = ComputeProfile(compute_time_per_update=0.5, paper_parameters=1000)
        timing = iteration_time(self._stats(), NetworkProfile("n", alpha=1.0, beta=0.0),
                                profile, model_parameters=1000)
        assert timing.compute_time == 0.5
        assert timing.communication_time == pytest.approx(2.0)
        assert timing.total == pytest.approx(2.5)


class TestTrainingHistory:
    def _history(self):
        history = TrainingHistory(method="SparDL", case="test")
        for i in range(4):
            history.add_iteration(IterationRecord(iteration=i, epoch=i // 2, loss=1.0 - 0.1 * i,
                                                  compute_time=0.1, communication_time=0.2))
        history.add_epoch(EpochRecord(epoch=0, train_loss=1.0, eval_loss=0.9, eval_metric=0.5,
                                      metric_name="accuracy", epoch_time=0.6,
                                      cumulative_time=0.6, communication_time=0.4,
                                      compute_time=0.2))
        history.add_epoch(EpochRecord(epoch=1, train_loss=0.8, eval_loss=0.7, eval_metric=0.8,
                                      metric_name="accuracy", epoch_time=0.6,
                                      cumulative_time=1.2, communication_time=0.4,
                                      compute_time=0.2))
        return history

    def test_totals(self):
        history = self._history()
        assert history.total_time == pytest.approx(1.2)
        assert history.total_communication_time == pytest.approx(0.8)
        assert history.total_compute_time == pytest.approx(0.4)

    def test_means(self):
        history = self._history()
        assert history.mean_iteration_time() == pytest.approx(0.3)
        assert history.mean_communication_time() == pytest.approx(0.2)

    def test_final_metric_and_loss(self):
        history = self._history()
        assert history.final_metric == 0.8
        assert history.final_eval_loss == 0.7

    def test_time_to_metric(self):
        history = self._history()
        assert history.time_to_metric(0.75) == pytest.approx(1.2)
        assert history.time_to_metric(0.95) is None
        # With lower-is-better, 0.5 at epoch 0 already satisfies a 0.71 target.
        assert history.time_to_metric(0.71, higher_is_better=False) == pytest.approx(0.6)
        assert history.time_to_metric(0.1, higher_is_better=False) is None

    def test_metric_curve(self):
        curve = self._history().metric_curve()
        assert curve["time"] == [0.6, 1.2]
        assert curve["metric"] == [0.5, 0.8]

    def test_empty_history_raises(self):
        history = TrainingHistory()
        with pytest.raises(ValueError):
            history.final_metric
        with pytest.raises(ValueError):
            history.mean_iteration_time()


class TestCases:
    def test_all_seven_cases_defined(self):
        assert sorted(CASES) == [1, 2, 3, 4, 5, 6, 7]

    def test_get_case_unknown(self):
        with pytest.raises(ValueError):
            get_case(9)

    @pytest.mark.parametrize("case_id", [1, 2, 3, 4, 5, 6, 7])
    def test_case_models_and_data_are_compatible(self, case_id):
        case = get_case(case_id)
        model = case.build_model(seed=0)
        train, test = case.build_datasets(num_samples=32, seed=0)
        loss = default_loss_for_task(case.task)
        outputs = model.forward(train.inputs[:4])
        value, grad = loss(outputs, train.targets[:4])
        assert np.isfinite(value)
        model.backward(grad)

    def test_paper_parameters_match_table(self):
        assert get_case(1).compute_profile.paper_parameters == pytest.approx(14.7e6)
        assert get_case(7).compute_profile.paper_parameters == pytest.approx(133.5e6)

    def test_case_descriptions(self):
        assert "VGG-16" in get_case(1).describe()
        assert "BERT" in get_case(7).describe()

    def test_default_loss_and_metric_for_task(self):
        assert isinstance(default_loss_for_task(TaskType.IMAGE_REGRESSION), MSELoss)
        assert isinstance(default_loss_for_task(TaskType.MASKED_LM), CrossEntropyLoss)
        assert default_metric_for_task(TaskType.IMAGE_CLASSIFICATION) == ("accuracy", True)
        assert default_metric_for_task(TaskType.LANGUAGE_MODELING) == ("loss", False)


def _build_trainer(method="SparDL", num_workers=4, case_id=5, samples=64, epochs_seed=0,
                   check_consistency=False, **sync_kwargs):
    case = get_case(case_id)
    train, test = case.build_datasets(num_samples=samples, seed=epochs_seed)
    cluster = SimulatedCluster(num_workers)
    num_elements = case.build_model(0).num_parameters()
    sync_kwargs.setdefault("density", 0.02)
    if method == "Dense":
        sync_kwargs = {}
    sync = make(method, cluster, num_elements=num_elements, **sync_kwargs)
    config = TrainerConfig(batch_size=8, learning_rate=case.learning_rate,
                           momentum=case.momentum, seed=0,
                           check_consistency=check_consistency)
    return DistributedTrainer(cluster, sync, case.build_model, train, test,
                              config=config, compute_profile=case.compute_profile,
                              case_name=case.name)


class TestDistributedTrainer:
    def test_replicas_start_identical(self):
        trainer = _build_trainer()
        reference = flatten_values(trainer.replicas[0].parameters())
        for replica in trainer.replicas[1:]:
            np.testing.assert_array_equal(flatten_values(replica.parameters()), reference)

    def test_replicas_stay_identical_after_training(self):
        trainer = _build_trainer(check_consistency=True)
        trainer.train(1)
        reference = flatten_values(trainer.replicas[0].parameters())
        for replica in trainer.replicas[1:]:
            np.testing.assert_allclose(flatten_values(replica.parameters()), reference)

    def test_history_records_iterations_and_epochs(self):
        trainer = _build_trainer()
        history = trainer.train(2)
        assert len(history.epochs) == 2
        steps_per_epoch = min(-(-len(shard) // 8) for shard in trainer.shards)
        assert len(history.iterations) == 2 * steps_per_epoch

    def test_simulated_time_accumulates(self):
        trainer = _build_trainer()
        history = trainer.train(1)
        assert history.total_time > 0
        assert history.total_communication_time > 0
        assert history.total_compute_time > 0

    def test_eval_every_controls_evaluation(self):
        trainer = _build_trainer()
        history = trainer.train(2, eval_every=2)
        assert np.isnan(history.epochs[0].eval_metric)
        assert not np.isnan(history.epochs[1].eval_metric)

    def test_training_reduces_loss(self):
        trainer = _build_trainer(method="Dense", samples=96)
        history = trainer.train(4)
        assert history.epochs[-1].train_loss < history.epochs[0].train_loss

    def test_dense_training_averages_into_one_row_per_step(self):
        """Dense All-Reduce hands every rank one shared array, so ``_average``
        divides once and every rank applies update row 0."""
        trainer = _build_trainer(method="Dense", samples=32)
        average, rows_per_step = trainer._average, []

        def spy(result):
            rows = average(result)
            rows_per_step.append(rows)
            return rows

        trainer._average = spy
        trainer.train(1)
        assert rows_per_step and all(rows == [0] * 4 for rows in rows_per_step)
        assert trainer._updates[0].any() and not trainer._updates[1:].any()

    def test_num_elements_mismatch_raises(self):
        case = get_case(5)
        train, test = case.build_datasets(num_samples=32, seed=0)
        cluster = SimulatedCluster(2)
        sync = make("SparDL", cluster, num_elements=123, density=0.1)
        with pytest.raises(ValueError):
            DistributedTrainer(cluster, sync, case.build_model, train, test,
                               config=TrainerConfig(batch_size=8))

    def test_invalid_epoch_count(self):
        trainer = _build_trainer()
        with pytest.raises(ValueError):
            trainer.train(0)

    def test_evaluate_returns_loss_and_metric(self):
        trainer = _build_trainer()
        loss, metric = trainer.evaluate()
        assert np.isfinite(loss)
        assert 0.0 <= metric <= 1.0 or np.isfinite(metric)

    def test_regression_case_uses_loss_metric(self):
        trainer = _build_trainer(case_id=4, samples=48)
        assert trainer.metric_name == "loss"
        assert not trainer.higher_is_better

    def test_network_profile_affects_time(self):
        slow = _build_trainer()
        slow.network = ETHERNET
        fast = _build_trainer()
        fast.network = PERFECT
        slow_hist = slow.train(1)
        fast_hist = fast.train(1)
        assert slow_hist.total_communication_time > fast_hist.total_communication_time == 0.0


def _case_trainer(case_id):
    """Case ``case_id`` on ``sim:4``, 64 samples, batch 8, traced."""
    case = get_case(case_id)
    return DistributedTrainer(
        SimulatedCluster(4), make_factory("spardl?density=0.01"), case.build_model,
        *case.build_datasets(num_samples=64, seed=0),
        config=TrainerConfig(batch_size=8, seed=0, learning_rate=case.learning_rate,
                             momentum=case.momentum, trace="steps"),
        compute_profile=case.compute_profile)


class TestReplicasSideBySide:
    @pytest.mark.parametrize("case_id", range(1, 7))
    def test_pooled_training_equals_one_lane(self, case_id):
        """Forward/backward and the optimizer steps on three threads, or all
        on the calling thread: the same bits after two epochs."""
        runs = []
        for width in (3, 0):
            trainer = _case_trainer(case_id)
            with lanes(width):
                history = trainer.train(num_epochs=2)
            runs.append((flatten_values(trainer.global_model.parameters()).tobytes(),
                         [record.loss for record in history.iterations],
                         history.epochs[-1].eval_loss))
            assert trainer.tracer.snapshot()[
                "transport.run_workers_lanes{task=_worker_compute_gradient}"] == max(width, 1)
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("case_id", range(1, 8))
    def test_no_layer_keeps_its_activations_after_a_local_step(self, case_id):
        case = get_case(case_id)
        model = case.build_model(0)
        train, _ = case.build_datasets(num_samples=16, seed=0)
        inputs, targets = next(iter(DataLoader(train, 8, shuffle=True, seed=0)))
        model.forward(inputs)
        assert any(module._cache is not None for module in model.modules())
        _local_step(model, model.parameters(), default_loss_for_task(case.task),
                    (inputs, targets), 0.0, np.empty(model.num_parameters()))
        assert [module for module in model.modules() if module._cache is not None] == []
