"""Per-layer bucketed synchronisation: layout, equivalence, trainer wiring."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hyp_st

from repro.api import make, make_factory
from repro.comm.cluster import SimulatedCluster
from repro.core.bucketed import BucketedSynchronizer, fuse_buckets, layer_buckets
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

    def test_fuse_respects_cap_except_oversized_tensors(self):
        buckets = [("a", 100), ("b", 50), ("c", 400), ("d", 30), ("e", 30)]
        fused = fuse_buckets(buckets, 200)
        assert sum(size for _, size in fused) == 610
        # The 400-element tensor keeps its own bucket; the others fuse.
        assert ("c", 400) in fused
        assert all(size <= 200 for _, size in fused if size != 400)

    def test_fuse_preserves_order(self):
        fused = fuse_buckets([("a", 10), ("b", 10), ("c", 10)], 25)
        assert fused == [("a+b", 20), ("c", 10)]

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            fuse_buckets([("a", 10)], 0)
        with pytest.raises(ValueError):
            BucketedSynchronizer(SimulatedCluster(2), [], [])
        with pytest.raises(ValueError, match="configs must match"):
            BucketedSynchronizer(SimulatedCluster(2), [10, 20],
                                 [SparDLConfig(density=0.1)])


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
        """Equally configured SparDL layers share one exchange: one SparDL
        runs them at the rounds of a flat step.  With several exchange
        groups the statistics add up over the groups, and the overlap model
        prices every group's own."""
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

        bucketed = make("spardl?density=0.05&buckets=layer&bits=8,bias:32",
                        SimulatedCluster(NUM_WORKERS), model=model)
        result = bucketed.synchronize(_gradients(n))
        sessions = bucketed.sessions
        assert result.stats.rounds == sum(s.cumulative_stats.rounds for s in sessions)
        assert result.stats.total_volume == pytest.approx(
            sum(s.cumulative_stats.total_volume for s in sessions))
        info = result.info
        assert info["buckets"] == bucketed.num_buckets == len(info["bucket_names"])
        assert len(sessions) == len(info["groups"]) == bucketed.num_buckets
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

    def test_size_fusion_reduces_bucket_count(self):
        model = _model()
        per_layer = make("spardl?density=0.05&buckets=layer",
                         SimulatedCluster(NUM_WORKERS), model=model)
        fused = make("spardl?density=0.05&buckets=size:100000",
                     SimulatedCluster(NUM_WORKERS), model=model)
        assert len(fused.bucket_sizes) < len(per_layer.bucket_sizes)
        assert fused.num_elements == per_layer.num_elements

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
    group and nothing it throws away; with one group, that SparDL is what
    ``make`` returns."""

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
            monkeypatch, "spardl?density=0.01&buckets=layer&bits=8,bias:32", _Stack())
        assert built == len(sync.groups) == 16

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
    """Property backfill for fuse_buckets / layer_buckets (previously only
    exercised through hand-picked examples)."""

    buckets_strategy = hyp_st.lists(
        hyp_st.tuples(hyp_st.text("abcdef", min_size=1, max_size=3),
                      hyp_st.integers(1, 10_000)),
        min_size=1, max_size=12)

    @given(buckets=buckets_strategy, cap=hyp_st.integers(1, 20_000))
    @settings(max_examples=60, deadline=None)
    def test_fusion_preserves_total_size_and_ordering(self, buckets, cap):
        fused = fuse_buckets(buckets, cap)
        assert sum(size for _, size in fused) == sum(size for _, size in buckets)
        # Ordering: the fused names, joined, reproduce the original order.
        assert ("+".join(name for name, _ in fused)
                == "+".join(name for name, _ in buckets))
        # Never more groups than inputs; a huge cap fuses everything.
        assert 1 <= len(fused) <= len(buckets)

    @given(buckets=buckets_strategy)
    @settings(max_examples=30, deadline=None)
    def test_unbounded_cap_fuses_everything(self, buckets):
        total = sum(size for _, size in buckets)
        assert len(fuse_buckets(buckets, total)) == 1

    @given(buckets=buckets_strategy, cap=hyp_st.integers(1, 20_000))
    @settings(max_examples=60, deadline=None)
    def test_groups_respect_cap_except_oversized_singletons(self, buckets, cap):
        for name, size in fuse_buckets(buckets, cap):
            assert size <= cap or "+" not in name

    @given(cap=hyp_st.integers(-5, 0))
    @settings(max_examples=10, deadline=None)
    def test_rejects_non_positive_cap(self, cap):
        with pytest.raises(ValueError):
            fuse_buckets([("a", 10)], cap)

    def test_single_parameter_model_produces_one_bucket(self):
        class _OneParam:
            name = "w"
            size = 7

        class _Module:
            def parameters(self):
                return [_OneParam()]

        buckets = layer_buckets(_Module())
        assert buckets == [("w", 7)]
        # And fusion at any cap keeps the single bucket intact.
        assert fuse_buckets(buckets, 1) == [("w", 7)]
        assert fuse_buckets(buckets, 10_000) == [("w", 7)]

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
