"""Per-layer bucketed synchronisation: layout, equivalence, trainer wiring."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hyp_st

from repro.api import make, make_factory
from repro.comm.cluster import SimulatedCluster
from repro.core.bucketed import BucketedSynchronizer, layer_buckets
from repro.core.config import SparDLConfig
from repro.core.spardl import SparDLSynchronizer
from repro.nn.models import build_mlp
from repro.training.cases import get_case
from repro.training.timing import ComputeProfile
from repro.training.trainer import DistributedTrainer, TrainerConfig

from tests.helpers import case5_trainer

NUM_WORKERS = 4


def _model():
    return build_mlp(20, [32, 16], 4, seed=0)


def _gradients(num_elements: int, iteration: int = 0):
    return {w: np.random.default_rng(100 * iteration + w).normal(size=num_elements)
            for w in range(NUM_WORKERS)}


class TestBucketLayout:
    def test_layer_buckets_cover_every_parameter(self):
        model = _model()
        buckets = layer_buckets(model)
        assert sum(size for _, size in buckets) == model.num_parameters()
        assert len(buckets) == len(model.parameters())

    def test_invalid_inputs(self):
        config = SparDLConfig(density=0.1)
        with pytest.raises(ValueError):
            BucketedSynchronizer(SimulatedCluster(2), [], config)
        with pytest.raises(ValueError, match="bucket_names must match"):
            BucketedSynchronizer(SimulatedCluster(2), [10, 20], config,
                                 bucket_names=["a"])


class TestBucketedVersusFlat:
    def test_k_equal_to_n_is_the_exact_sum_like_flat(self):
        """At ``density=1`` every bucket keeps every entry: the per-layer
        run and the flat run both hand back the exact sum through the
        sparse pipeline, with nothing left in the residuals."""
        model = _model()
        n = model.num_parameters()
        grads = _gradients(n)
        flat = make("spardl?density=1.0", SimulatedCluster(NUM_WORKERS), num_elements=n)
        bucketed = make("spardl?density=1.0&buckets=layer",
                        SimulatedCluster(NUM_WORKERS), model=model)
        flat_result = flat.synchronize({w: g.copy() for w, g in grads.items()})
        bucketed_result = bucketed.synchronize({w: g.copy() for w, g in grads.items()})
        assert bucketed_result.info["srs_steps"] > 0
        assert bucketed_result.info["final_nnz"] == n
        exact = sum(grads.values())
        for worker in range(NUM_WORKERS):
            for result in (flat_result, bucketed_result):
                np.testing.assert_allclose(result.global_gradients[worker],
                                           exact, rtol=1e-9, atol=1e-12)
        assert not bucketed.residuals.total_residual().any()
        assert not flat.residuals.total_residual().any()

    def test_spardl_path_equivalent_conservation(self):
        """Satellite requirement for the SparDL path: per-bucket top-k picks
        *different* indices than flat top-k (small layers are guaranteed
        representation), but both pipelines conserve gradient mass exactly:
        global + residuals == exact dense sum."""
        model = _model()
        n = model.num_parameters()
        grads = _gradients(n)
        exact = sum(grads.values())
        flat = make("spardl?density=0.05", SimulatedCluster(NUM_WORKERS), num_elements=n)
        bucketed = make("spardl?density=0.05&buckets=layer",
                        SimulatedCluster(NUM_WORKERS), model=model)
        flat_result = flat.synchronize({w: g.copy() for w, g in grads.items()})
        bucketed_result = bucketed.synchronize({w: g.copy() for w, g in grads.items()})
        assert flat_result.is_consistent and bucketed_result.is_consistent
        np.testing.assert_allclose(
            flat_result.gradient(0) + flat.residuals.total_residual(),
            exact, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(
            bucketed_result.gradient(0) + bucketed.residuals.total_residual(),
            exact, rtol=1e-9, atol=1e-12)

    def test_spardl_buckets_give_small_layers_representation(self):
        """Per-layer selection is not flat selection: every bucket
        contributes at least one non-zero to the global gradient."""
        model = _model()
        bucketed = make("spardl?density=0.05&buckets=layer",
                        SimulatedCluster(NUM_WORKERS), model=model)
        result = bucketed.synchronize(_gradients(model.num_parameters()))
        shares = result.info["bucket_final_nnz"]
        assert len(shares) == len(bucketed.bucket_sizes) == len(model.parameters())
        assert min(shares) >= 1

    def test_stats_aggregate_per_exchange_group(self):
        """SparDL layers share one exchange: one SparDL runs them at the
        rounds of a flat step.  With several planned buckets the statistics
        add up over the buckets, and the overlap model prices every
        bucket's own."""
        model = _model()
        n = model.num_parameters()
        uniform = make("spardl?density=0.05&buckets=layer",
                       SimulatedCluster(NUM_WORKERS), model=model)
        assert type(uniform) is SparDLSynchronizer
        assert uniform.bucket_sizes == [size for _, size in layer_buckets(model)]
        uniform_result = uniform.synchronize(_gradients(n))
        assert "bucket_stats" not in uniform_result.info
        flat = make("spardl?density=0.05", SimulatedCluster(NUM_WORKERS), num_elements=n)
        assert uniform_result.stats.rounds == flat.synchronize(_gradients(n)).stats.rounds

        bucketed = make("spardl?density=0.05&buckets=auto",
                        SimulatedCluster(NUM_WORKERS), model=model,
                        compute_profile=ComputeProfile(0.13, 35.2e6))
        result = bucketed.synchronize(_gradients(n))
        sessions = bucketed.sessions
        assert result.stats.rounds == sum(s.cumulative_stats.rounds for s in sessions)
        assert result.stats.total_volume == pytest.approx(
            sum(s.cumulative_stats.total_volume for s in sessions))
        info = result.info
        assert info["buckets"] == bucketed.num_buckets == len(info["bucket_names"])
        assert len(sessions) == bucketed.num_buckets > 1
        assert info["group_sizes"] == bucketed.bucket_sizes
        assert len(info["bucket_stats"]) == len(info["per_bucket_info"]) == len(sessions)

    def test_training_per_layer_costs_the_flat_rounds_at_comparable_volume(self):
        """One epoch of case 5 on four workers: per-layer selection shares
        one exchange, so it takes the flat run's rounds, and moves a volume
        within 3x of it (per-layer top-k rounds differently; wholesale
        inflation would be a bug)."""
        flat, layer = (case5_trainer(spec, check_consistency=True)
                       for spec in ("spardl?density=0.02", "spardl?density=0.02&buckets=layer"))
        flat.train(1)
        layer.train(1)
        flat_stats, layer_stats = flat.session.cumulative_stats, layer.session.cumulative_stats
        assert layer_stats.rounds == flat_stats.rounds
        volume = flat_stats.total_volume
        assert volume / 3 <= layer_stats.total_volume <= 3 * volume

    def test_a_plan_fuses_layers_into_fewer_buckets(self):
        model = _model()
        per_layer = make("spardl?density=0.05&buckets=layer",
                         SimulatedCluster(NUM_WORKERS), model=model)
        planned = make("spardl?density=0.05&buckets=auto",
                       SimulatedCluster(NUM_WORKERS), model=model,
                       compute_profile=ComputeProfile(0.13, 35.2e6))
        assert 1 < len(planned.bucket_sizes) < len(per_layer.bucket_sizes)
        assert planned.num_elements == per_layer.num_elements

    def test_absolute_k_is_a_global_budget_not_per_bucket(self):
        """k=50 over 6 buckets must select ~50 entries in total, not 6x50."""
        model = _model()
        bucketed = make("spardl?k=50&buckets=layer",
                        SimulatedCluster(NUM_WORKERS), model=model)
        total_k = bucketed.k
        assert total_k is not None
        # Pro-rata split with a 1-entry floor per bucket: close to 50, never
        # anywhere near 6 * 50.
        assert 50 <= total_k <= 50 + len(bucketed.bucket_sizes)

    def test_bucketed_requires_model(self):
        with pytest.raises(ValueError, match="needs the model"):
            make("spardl?density=0.05&buckets=layer", SimulatedCluster(4),
                 num_elements=100)


class _Stack:
    """The shape of the ledger's ``bucketed_stack`` model at a small size:
    eight weight tensors of doubling sizes, each followed by a bias."""

    @staticmethod
    def parameters():
        return [type("P", (), {"name": f"layer{index}.{kind}", "size": size})()
                for index in range(8)
                for kind, size in (("weight", 64 << index), ("bias", 8))]


class TestConstruction:
    """A bucketed spec constructs one ``SparDLSynchronizer`` per exchange
    and nothing it throws away: ``buckets=layer`` is that one SparDL, and
    ``buckets=auto`` wraps one per planned bucket."""

    @staticmethod
    def _constructions(monkeypatch, spec, model, **kwargs):
        built = []
        original = SparDLSynchronizer.__init__

        def counting(self, *args, **keys):
            built.append(self)
            original(self, *args, **keys)

        monkeypatch.setattr(SparDLSynchronizer, "__init__", counting)
        sync = make(spec, SimulatedCluster(8), model=model, **kwargs)
        if isinstance(sync, BucketedSynchronizer):
            assert built == [session.synchronizer for session in sync.sessions]
        else:
            assert built == [sync]
        return sync, len(built)

    def test_one_synchronizer_for_the_stack(self, monkeypatch):
        sync, built = self._constructions(
            monkeypatch, "spardl?density=0.01&buckets=layer&bits=8&momentum=0.9&teams=2",
            _Stack())
        assert type(sync) is SparDLSynchronizer
        assert sync.bucket_sizes == [size for _, size in layer_buckets(_Stack())]
        assert (sync.stack.num_bits, sync.residuals.momentum, sync.num_teams) == (8, 0.9, 2)
        assert built == 1

    def test_one_synchronizer_per_group(self, monkeypatch):
        sync, built = self._constructions(
            monkeypatch, "spardl?density=0.01&buckets=auto&bits=8&momentum=0.9&teams=2",
            _Stack(), compute_profile=ComputeProfile(0.13, 35.2e6))
        assert built == len(sync.sessions) == sync.num_buckets > 1
        for session in sync.sessions:
            inner = session.synchronizer
            assert (inner.stack.num_bits, inner.residuals.momentum, inner.num_teams) == (
                8, 0.9, 2)

    def test_one_synchronizer_per_planned_bucket(self, monkeypatch):
        sync, built = self._constructions(
            monkeypatch, "spardl?density=0.05&buckets=auto", _model(),
            compute_profile=ComputeProfile(0.13, 35.2e6))
        assert built == sync.num_buckets > 1


class TestTrainerWiring:
    def test_trainer_builds_bucketed_synchronizer_from_factory(self):
        case = get_case(5)
        train, test = case.build_datasets(num_samples=48, seed=0)
        cluster = SimulatedCluster(NUM_WORKERS)
        trainer = DistributedTrainer(
            cluster, make_factory("spardl?density=0.05&buckets=layer"),
            case.build_model, train, test,
            config=TrainerConfig(batch_size=8, learning_rate=case.learning_rate,
                                 momentum=case.momentum, seed=0,
                                 check_consistency=True),
            compute_profile=case.compute_profile,
        )
        assert type(trainer.synchronizer) is SparDLSynchronizer
        assert trainer.synchronizer.bucket_sizes == [
            size for _, size in layer_buckets(trainer.replicas[0])]
        assert trainer.synchronizer.num_elements == trainer.num_elements
        history = trainer.train(1)
        assert np.isfinite(history.epochs[0].train_loss)
        # The trainer's session accumulated the whole epoch's traffic.
        assert trainer.session.iteration == len(history.iterations)
        assert trainer.session.cumulative_stats.rounds > 0

    def test_trainer_accepts_flat_factory_and_prebuilt(self):
        case = get_case(5)
        train, test = case.build_datasets(num_samples=32, seed=0)
        cluster = SimulatedCluster(2)
        trainer = DistributedTrainer(
            cluster, make_factory("spardl?density=0.1"), case.build_model,
            train, test, config=TrainerConfig(batch_size=8),
            compute_profile=case.compute_profile,
        )
        assert trainer.synchronizer.num_elements == trainer.num_elements

    def test_prebuilt_mismatch_still_raises(self):
        case = get_case(5)
        train, test = case.build_datasets(num_samples=32, seed=0)
        cluster = SimulatedCluster(2)
        sync = make("spardl?density=0.1", cluster, num_elements=123)
        with pytest.raises(ValueError, match="parameters"):
            DistributedTrainer(cluster, sync, case.build_model, train, test,
                               config=TrainerConfig(batch_size=8))


class TestBucketLayoutProperties:
    """Properties of a bucketed layout, and edge cases of layer_buckets."""

    sizes_strategy = hyp_st.lists(hyp_st.integers(1, 400), min_size=1, max_size=8)

    @given(sizes=sizes_strategy)
    @settings(max_examples=30, deadline=None)
    def test_slices_partition_the_gradient_in_order(self, sizes):
        sync = BucketedSynchronizer(SimulatedCluster(2), sizes, SparDLConfig(density=0.1))
        assert sync.num_elements == sum(sizes)
        assert [hi - lo for lo, hi in sync.slices] == sizes
        assert sync.slices[0][0] == 0 and sync.slices[-1][1] == sum(sizes)
        assert all(a[1] == b[0] for a, b in zip(sync.slices, sync.slices[1:]))
        assert [s.synchronizer.num_elements for s in sync.sessions] == sizes

    @given(sizes=sizes_strategy, bad=hyp_st.integers(-5, 0), at=hyp_st.integers(0, 7))
    @settings(max_examples=10, deadline=None)
    def test_rejects_non_positive_sizes(self, sizes, bad, at):
        sizes.insert(at % (len(sizes) + 1), bad)
        with pytest.raises(ValueError, match="must be positive"):
            BucketedSynchronizer(SimulatedCluster(2), sizes, SparDLConfig(density=0.1))

    def test_single_parameter_model_produces_one_bucket(self):
        class _OneParam:
            name = "w"
            size = 7

        class _Module:
            def parameters(self):
                return [_OneParam()]

        assert layer_buckets(_Module()) == [("w", 7)]

    def test_empty_and_invalid_modules_rejected(self):
        class _Empty:
            def parameters(self):
                return []

        class _ZeroParam:
            def parameters(self):
                class P:
                    name = "z"
                    size = 0
                return [P()]

        with pytest.raises(ValueError):
            layer_buckets(_Empty())
        with pytest.raises(ValueError):
            layer_buckets(_ZeroParam())
