"""DGC momentum correction and the hybrid dense/sparse bucket policy.

Momentum correction (Lin et al., ICLR'18) moves the momentum recursion
*inside* the synchroniser: the per-worker velocity ``u = m*u + g`` is what
enters error feedback, and the velocity is masked at the final global
indices so delayed coordinates keep their momentum history.  The anchor
facts these tests pin down:

* dense paths never mask, which makes synchroniser-side momentum on a dense
  All-Reduce *mathematically identical* to naive optimizer momentum — the
  trainer-level equivalence test exploits exactly this;
* the trainer handoff (``TrainerConfig.momentum_correction``) builds the
  SGD optimizers momentum-free, so velocity is applied exactly once;
* the ``hybrid=dense<SIZE`` bucket policy runs small buckets as exact dense
  All-Reduce (billed at the closed-form ``2n(P-1)`` ring volume) while
  large buckets keep the sparse method, byte for byte.
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
from repro.training.trainer import DistributedTrainer, TrainerConfig

from tests.helpers import case5_trainer, ledger, random_gradients


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

    def test_set_momentum_idempotent_but_conflicting_factor_raises(self):
        manager = ResidualManager(1, 4, momentum=0.9)
        manager.set_momentum(0.9)  # same factor: fine
        with pytest.raises(ValueError, match="already active"):
            manager.set_momentum(0.5)

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

    @pytest.mark.parametrize("method", ["spardl", "ok-topk", "topka", "topkdsa", "gtopk"])
    def test_one_worker_masks_velocity_at_the_final_indices(self, method):
        """Momentum factor masking does not depend on the worker count: a
        single worker's velocity restarts at every index it applied."""
        sync = make(f"{method}?density=0.1&momentum=0.5", SimulatedCluster(1),
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

    def _trainer(self, correction: bool) -> DistributedTrainer:
        rng = np.random.default_rng(11)
        inputs = rng.normal(size=(64, 8))
        targets = (inputs[:, :4].sum(axis=1) > 0).astype(np.int64)
        train = Dataset(inputs[:48], targets[:48],
                        TaskType.IMAGE_CLASSIFICATION, name="toy")
        test = Dataset(inputs[48:], targets[48:],
                       TaskType.IMAGE_CLASSIFICATION, name="toy")
        cluster = SimulatedCluster(2)
        config = TrainerConfig(batch_size=8, learning_rate=0.1, momentum=0.9,
                               momentum_correction=correction, seed=0)
        return DistributedTrainer(
            cluster, make_factory("dense"),
            lambda seed: build_mlp(8, [8], 2, seed=seed),
            train, test, config=config)

    def test_dense_corrected_training_matches_naive_momentum(self):
        naive = self._trainer(correction=False)
        corrected = self._trainer(correction=True)
        naive.train(2)
        corrected.train(2)
        np.testing.assert_allclose(
            flatten_values(corrected.global_model.parameters()),
            flatten_values(naive.global_model.parameters()),
            rtol=1e-9, atol=1e-10)


# ---------------------------------------------------------------------------
# trainer handoff
# ---------------------------------------------------------------------------
class TestTrainerHandoff:
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

    def test_handoff_disables_optimizer_momentum(self):
        trainer = self._trainer("spardl?density=0.1", momentum=0.9,
                                momentum_correction=True)
        assert all(opt.momentum == 0.0 for opt in trainer.optimizers)
        assert trainer.synchronizer.residuals.momentum == 0.9

    def test_without_handoff_optimizers_keep_momentum(self):
        trainer = self._trainer("spardl?density=0.1", momentum=0.9)
        assert all(opt.momentum == 0.9 for opt in trainer.optimizers)
        assert trainer.synchronizer.residuals.momentum == 0.0

    def test_handoff_requires_positive_momentum(self):
        with pytest.raises(ValueError, match="momentum_correction"):
            self._trainer("spardl?density=0.1", momentum_correction=True)

    def test_handoff_agrees_with_spec_momentum(self):
        # Spec already enabled the same factor: the handoff is idempotent.
        trainer = self._trainer("spardl?density=0.1&momentum=0.9",
                                momentum=0.9, momentum_correction=True)
        assert trainer.synchronizer.residuals.momentum == 0.9

    def test_handoff_conflicting_with_spec_momentum_raises(self):
        with pytest.raises(ValueError, match="already active"):
            self._trainer("spardl?density=0.1&momentum=0.5",
                          momentum=0.9, momentum_correction=True)

    def test_handoff_reaches_every_bucket(self):
        trainer = self._trainer("spardl?density=0.1&buckets=layer",
                                momentum=0.9, momentum_correction=True)
        for session in trainer.synchronizer.sessions:
            assert session.synchronizer.residuals.momentum == 0.9

    def test_methods_without_error_feedback_refuse_the_handoff(self):
        cluster = SimulatedCluster(2)
        sync = DenseAllReduceSynchronizer(cluster, 10)
        sync.enable_momentum_correction(0.9)  # Dense creates the manager
        assert sync.residuals.momentum == 0.9

    def test_training_with_correction_converges(self):
        trainer = self._trainer("spardl?density=0.1", momentum=0.9,
                                momentum_correction=True, learning_rate=0.1)
        history = trainer.train(3)
        assert history.epochs[-1].train_loss < history.epochs[0].train_loss

    def test_correction_beats_naive_momentum_at_high_sparsity(self):
        """Case 5 on eight workers at density 0.01, twice the case's
        learning rate, momentum 0.5, six epochs, seeds 0-2: naive momentum
        (the optimizer's, on the bursty sparse aggregate) destabilises on a
        seed where the corrected runs stay on track, so the corrected mean
        final training loss is strictly lower."""
        final = {}
        for correction in (False, True):
            final[correction] = np.mean([
                case5_trainer("spardl?density=0.01", workers=8, samples=192, seed=seed,
                              learning_rate=2 * get_case(5).learning_rate, momentum=0.5,
                              momentum_correction=correction).train(6).epochs[-1].train_loss
                for seed in (0, 1, 2)])
        assert final[True] < final[False]


# ---------------------------------------------------------------------------
# hybrid dense/sparse bucket policy
# ---------------------------------------------------------------------------
class TestHybridPolicy:
    """``hybrid=dense<SIZE``: buckets smaller than SIZE run exact dense
    All-Reduce; the rest keep the sparse method untouched."""

    def _make(self, spec, num_workers=4):
        model = build_mlp(8, [8], 2, seed=0)
        return make(spec, SimulatedCluster(num_workers), model=model), model

    def test_small_buckets_go_dense(self):
        # build_mlp(8, [8], 2) buckets: weights 64 and 16, biases 8 and 2.
        sync, _ = self._make("spardl?density=0.2&buckets=layer&hybrid=dense<10")
        methods = dict(zip(sync.bucket_names, [s.synchronizer.name
                                               for s in sync.sessions]))
        for name, method in methods.items():
            if name.endswith(".bias"):
                assert method == "Dense", name
            else:
                assert method.startswith("SparDL"), name

    def test_hybrid_requires_bucketed_layout(self):
        with pytest.raises(ValueError, match="non-flat buckets"):
            make("spardl?density=0.1&hybrid=dense<100", SimulatedCluster(4),
                 num_elements=100)

    def test_hybrid_on_dense_method_raises(self):
        with pytest.raises(ValueError, match="sparse"):
            make("dense?buckets=layer&hybrid=dense<100", SimulatedCluster(4),
                 model=build_mlp(8, [8], 2, seed=0))

    @pytest.mark.parametrize("bad", ["dense<0", "dense<", "sparse<10", "10"])
    def test_malformed_hybrid_raises(self, bad):
        with pytest.raises(ValueError):
            make(f"spardl?density=0.1&buckets=layer&hybrid={bad}",
                 SimulatedCluster(4), model=build_mlp(8, [8], 2, seed=0))

    @pytest.mark.parametrize("flat,threshold,shape,steps,seed", [
        ("spardl?density=0.2", 10, (8, [8], 2), 1, 41),
        ("spardl?density=0.05&momentum=0.9&bits=8", 64, (32, [32], 4), 8, 9000),
    ], ids=["plain", "momentum-bits"])
    def test_dense_buckets_bill_closed_form_ring_volume(self, flat, threshold,
                                                         shape, steps, seed):
        """Volume accounting gate, step after step: every dense bucket
        bills exactly the ring All-Reduce ``2 * n * (P - 1)``, every sparse
        exchange group bills what its buckets bill run sparse on their own,
        in the rounds of one, the two partition the step's volume, and the
        conservation ledger — the momentum credit included — holds to
        1e-9."""
        P = 4
        model = build_mlp(*shape, seed=0)
        hybrid = make(f"{flat}&buckets=layer&hybrid=dense<{threshold}",
                      SimulatedCluster(P), model=model)
        pure = [make(flat, SimulatedCluster(P), num_elements=size)
                for size in hybrid.bucket_sizes]
        edges = np.cumsum([0] + hybrid.bucket_sizes)
        for step in range(steps):
            grads = random_gradients(P, model.num_parameters(), seed=seed + 100 * step)
            residual, velocity = ledger(hybrid)
            result = hybrid.synchronize(grads)
            alone = [sync.synchronize({w: g[lo:hi] for w, g in grads.items()}).stats
                     for sync, lo, hi in zip(pure, edges, edges[1:])]
            info = result.info
            assert len(info["groups"]) == len(info["bucket_stats"]) == len(hybrid.slices)
            for group, (lo, hi), billed in zip(info["groups"], hybrid.slices,
                                               info["bucket_stats"]):
                names = [hybrid.bucket_names[index] for index in group]
                if info["bucket_methods"][group[0]] == "Dense":
                    assert len(group) == 1  # a dense bucket never shares an exchange
                    assert billed.total_volume == 2 * (hi - lo) * (P - 1), names
                else:
                    assert billed.total_volume == sum(alone[i].total_volume for i in group), names
                    assert billed.rounds == max(alone[i].rounds for i in group), names
            assert sum(billed.total_volume for billed in info["bucket_stats"]) \
                == result.stats.total_volume
            assert result.is_consistent
            np.testing.assert_allclose(result.gradient(0) + hybrid.total_residual(),
                                       residual + velocity + sum(grads.values()),
                                       atol=1e-9)

    def test_hybrid_composes_with_momentum_and_bits(self):
        sync, _ = self._make(
            "spardl?density=0.2&buckets=layer&hybrid=dense<10"
            "&momentum=0.9&bits=8")
        for session in sync.sessions:
            inner = session.synchronizer
            assert inner.residuals.momentum == 0.9
            if inner.name == "Dense":
                # Dense buckets stay full precision: momentum lives on their
                # residual manager, and there is no quantizer.
                assert inner.stack is None
            else:
                assert inner.stack.num_bits == 8

    def test_hybrid_spec_round_trips(self):
        from repro.api import describe, parse_spec
        spec = "spardl?density=0.2&buckets=layer&momentum=0.9&hybrid=dense<10"
        sync, _ = self._make(spec)
        assert describe(sync) == spec
        assert parse_spec(spec).canonical() == spec
