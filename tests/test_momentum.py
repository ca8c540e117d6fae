"""DGC momentum correction.

Momentum correction (Lin et al., ICLR'18) moves the momentum recursion
*inside* the synchroniser: the per-worker velocity ``u = m*u + g`` is what
enters error feedback, and the velocity is masked at the final global
indices so delayed coordinates keep their momentum history.  The anchor
facts these tests pin down:

* dense paths never mask, which makes synchroniser-side momentum on a dense
  All-Reduce *mathematically identical* to naive optimizer momentum — the
  trainer-level equivalence test exploits exactly this;
* the factor is fixed when the synchroniser is built (a spec's
  ``momentum=`` key), and the trainer hands ``TrainerConfig.momentum`` to
  its optimizers as given: a ``momentum=`` spec trains with
  ``TrainerConfig(momentum=0.0)``, so velocity is applied exactly once.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import make, make_factory
from repro.baselines.dense import DenseAllReduceSynchronizer
from repro.comm.cluster import SimulatedCluster
from repro.core.config import SparDLConfig
from repro.core.residuals import ResidualManager
from repro.data.datasets import Dataset, TaskType
from repro.nn.models import build_mlp
from repro.nn.parameter import flatten_values
from repro.training.cases import get_case
from repro.training.timing import ComputeProfile
from repro.training.trainer import DistributedTrainer, TrainerConfig

from tests.helpers import case5_trainer, random_gradients


# ---------------------------------------------------------------------------
# velocity semantics on the ResidualManager
# ---------------------------------------------------------------------------
class TestVelocitySemantics:
    def test_apply_advances_velocity_recursion(self):
        manager = ResidualManager(1, 4, momentum=0.5)
        g1 = np.array([1.0, 2.0, -1.0, 0.0])
        corrected = manager.apply({0: g1})
        np.testing.assert_array_equal(corrected[0], g1)
        np.testing.assert_array_equal(manager.velocity(0), g1)
        # Correction is in place: the store accumulates velocity (DGC's
        # v_t = v_{t-1} + u_t) until a selection takes entries out.
        manager.take(0, np.array([1]))
        g2 = np.array([0.0, 1.0, 1.0, 2.0])
        corrected = manager.apply({0: g2})
        np.testing.assert_array_equal(manager.velocity(0), 0.5 * g1 + g2)
        unsent = np.array([1.0, 0.0, -1.0, 0.0])
        np.testing.assert_array_equal(corrected[0], unsent + 0.5 * g1 + g2)
        np.testing.assert_array_equal(g1, [1.0, 2.0, -1.0, 0.0])

    def test_finalize_masks_velocity_at_final_indices_only(self):
        manager = ResidualManager(2, 5, momentum=0.9)
        manager.apply(random_gradients(2, 5, seed=1))
        before = {w: manager.velocity(w) for w in range(2)}
        manager.finalize(np.array([0, 3]))
        for worker in range(2):
            after = manager.velocity(worker)
            assert after[0] == 0.0 and after[3] == 0.0
            np.testing.assert_array_equal(after[[1, 2, 4]],
                                          before[worker][[1, 2, 4]])

    def test_finalize_none_masks_nothing(self):
        manager = ResidualManager(1, 4, momentum=0.9)
        manager.apply({0: np.ones(4)})
        manager.finalize(None)
        np.testing.assert_array_equal(manager.velocity(0), np.ones(4))

    def test_momentum_is_fixed_at_construction(self):
        assert ResidualManager(1, 4).velocity(0) is None
        manager = ResidualManager(1, 4, momentum=0.9)
        assert manager.momentum == 0.9
        np.testing.assert_array_equal(manager.velocity(0), np.zeros(4))
        assert not hasattr(manager, "set_momentum")

    def test_momentum_range_validated(self):
        with pytest.raises(ValueError, match="momentum"):
            ResidualManager(1, 4, momentum=1.0)
        with pytest.raises(ValueError, match="momentum"):
            ResidualManager(1, 4, momentum=-0.1)

    def test_config_rejects_momentum_without_error_feedback(self):
        with pytest.raises(ValueError, match="residual_policy"):
            SparDLConfig(density=0.05, momentum=0.9, residual_policy="none")

    def test_config_describe_mentions_momentum(self):
        assert "m=0.9" in SparDLConfig(density=0.05, momentum=0.9).describe()

    def test_one_worker_masks_velocity_at_the_final_indices(self):
        """Momentum factor masking does not depend on the worker count: a
        single worker's velocity restarts at every index it applied."""
        sync = make("spardl?density=0.1&momentum=0.5", SimulatedCluster(1),
                    num_elements=200)
        for step in range(2):
            result = sync.synchronize(random_gradients(1, 200, seed=step))
            final = np.flatnonzero(result.gradient(0))
            velocity = sync.residuals.velocity(0)
            assert final.size
            np.testing.assert_array_equal(velocity[final], 0.0)
            assert np.count_nonzero(velocity) == 200 - final.size


# ---------------------------------------------------------------------------
# dense path == naive momentum SGD
# ---------------------------------------------------------------------------
class TestDenseEquivalence:
    def test_dense_allreduce_momentum_matches_velocity_recursion(self):
        """A dense All-Reduce never calls finalize, so its returned sum is
        exactly the velocity recursion of the summed gradient stream."""
        num_workers, num_elements, factor = 3, 40, 0.9
        cluster = SimulatedCluster(num_workers)
        sync = DenseAllReduceSynchronizer(cluster, num_elements, momentum=factor)
        reference = np.zeros(num_elements)
        for i in range(4):
            grads = random_gradients(num_workers, num_elements, seed=23 + i)
            result = sync.synchronize(grads)
            reference = factor * reference + sum(grads.values())
            np.testing.assert_allclose(result.gradient(0), reference,
                                       rtol=1e-12, atol=1e-12)
            assert result.info.get("momentum") == factor

    def _trainer(self, spec: str, momentum: float) -> DistributedTrainer:
        rng = np.random.default_rng(11)
        inputs = rng.normal(size=(64, 8))
        targets = (inputs[:, :4].sum(axis=1) > 0).astype(np.int64)
        train = Dataset(inputs[:48], targets[:48],
                        TaskType.IMAGE_CLASSIFICATION, name="toy")
        test = Dataset(inputs[48:], targets[48:],
                       TaskType.IMAGE_CLASSIFICATION, name="toy")
        cluster = SimulatedCluster(2)
        config = TrainerConfig(batch_size=8, learning_rate=0.1, momentum=momentum,
                               seed=0)
        return DistributedTrainer(
            cluster, make_factory(spec),
            lambda seed: build_mlp(8, [8], 2, seed=seed),
            train, test, config=config)

    def test_dense_corrected_training_matches_naive_momentum(self):
        naive = self._trainer("dense", momentum=0.9)
        corrected = self._trainer("dense?momentum=0.9", momentum=0.0)
        naive.train(2)
        corrected.train(2)
        np.testing.assert_allclose(
            flatten_values(corrected.global_model.parameters()),
            flatten_values(naive.global_model.parameters()),
            rtol=1e-9, atol=1e-10)


# ---------------------------------------------------------------------------
# momentum from the spec, optimizers as configured
# ---------------------------------------------------------------------------
class TestSpecMomentum:
    def _datasets(self):
        rng = np.random.default_rng(2)
        inputs = rng.normal(size=(32, 8))
        targets = (inputs[:, 0] > 0).astype(np.int64)
        dataset = Dataset(inputs, targets, TaskType.IMAGE_CLASSIFICATION,
                          name="toy")
        return dataset, dataset

    def _trainer(self, spec, **config_kwargs):
        train, test = self._datasets()
        config = TrainerConfig(batch_size=8, seed=0, **config_kwargs)
        return DistributedTrainer(
            SimulatedCluster(2), make_factory(spec),
            lambda seed: build_mlp(8, [8], 2, seed=seed),
            train, test, config=config)

    def test_spec_momentum_with_momentum_free_optimizers(self):
        trainer = self._trainer("spardl?density=0.1&momentum=0.9")
        assert all(opt.momentum == 0.0 for opt in trainer.optimizers)
        assert trainer.synchronizer.residuals.momentum == 0.9

    def test_without_spec_momentum_optimizers_keep_momentum(self):
        trainer = self._trainer("spardl?density=0.1", momentum=0.9)
        assert all(opt.momentum == 0.9 for opt in trainer.optimizers)
        assert trainer.synchronizer.residuals.momentum == 0.0

    def test_trainer_has_no_momentum_handoff(self):
        with pytest.raises(TypeError, match="momentum_correction"):
            TrainerConfig(momentum=0.9, momentum_correction=True)
        assert not hasattr(DenseAllReduceSynchronizer, "enable_momentum_correction")

    def test_optimizers_take_the_configured_momentum_as_given(self):
        trainer = self._trainer("spardl?density=0.1&momentum=0.5", momentum=0.9)
        assert all(opt.momentum == 0.9 for opt in trainer.optimizers)
        assert trainer.synchronizer.residuals.momentum == 0.5

    def test_spec_momentum_reaches_every_bucket(self):
        trainer = self._trainer("spardl?density=0.1&buckets=layer&momentum=0.9")
        residuals = trainer.synchronizer.residuals
        assert residuals.momentum == 0.9
        assert residuals.velocity(0).size == trainer.num_elements

    def test_spec_momentum_reaches_every_exchange_group(self):
        train, test = self._datasets()
        trainer = DistributedTrainer(
            SimulatedCluster(2), make_factory("spardl?density=0.1&buckets=auto&momentum=0.9"),
            lambda seed: build_mlp(8, [8], 2, seed=seed), train, test,
            config=TrainerConfig(batch_size=8, seed=0),
            compute_profile=ComputeProfile(0.13, 35.2e6))
        assert len(trainer.synchronizer.sessions) > 1
        for session in trainer.synchronizer.sessions:
            assert session.synchronizer.residuals.momentum == 0.9

    def test_dense_builds_its_manager_for_momentum_only(self):
        cluster = SimulatedCluster(2)
        assert DenseAllReduceSynchronizer(cluster, 10).residuals is None
        sync = DenseAllReduceSynchronizer(cluster, 10, momentum=0.9)
        assert sync.residuals.momentum == 0.9

    def test_training_with_correction_converges(self):
        trainer = self._trainer("spardl?density=0.1&momentum=0.9",
                                learning_rate=0.1)
        history = trainer.train(3)
        assert history.epochs[-1].train_loss < history.epochs[0].train_loss

    def test_correction_beats_naive_momentum_at_high_sparsity(self):
        """Case 5 on eight workers at density 0.01, twice the case's
        learning rate, momentum 0.5, six epochs, seeds 0-2: naive momentum
        (the optimizer's, on the bursty sparse aggregate) destabilises on a
        seed where the corrected runs stay on track, so the corrected mean
        final training loss is strictly lower."""
        final = {}
        for correction, spec, momentum in ((False, "spardl?density=0.01", 0.5),
                                           (True, "spardl?density=0.01&momentum=0.5", 0.0)):
            final[correction] = np.mean([
                case5_trainer(spec, workers=8, samples=192, seed=seed,
                              learning_rate=2 * get_case(5).learning_rate,
                              momentum=momentum).train(6).epochs[-1].train_loss
                for seed in (0, 1, 2)])
        assert final[True] < final[False]
