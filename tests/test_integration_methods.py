"""Cross-method integration tests: measured costs vs Table I, end-to-end
training with every synchroniser, and the qualitative claims of the paper."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis.complexity import table1
from repro.api import available_methods, make
from repro.comm.cluster import SimulatedCluster
from repro.comm.network import ETHERNET
from repro.training.cases import get_case
from repro.training.trainer import DistributedTrainer, TrainerConfig

from tests.helpers import random_gradients


class TestMeasuredVersusTableI:
    """The simulator's measured rounds/volumes against the closed forms."""

    @pytest.mark.parametrize("num_workers,k", [(8, 200), (14, 210)])
    def test_spardl_measured_matches_formula(self, num_workers, k):
        # k is chosen divisible by P so the per-block budget k/P is exact and
        # the Table I expression applies without rounding slack.
        num_elements = 2000
        cluster = SimulatedCluster(num_workers)
        sync = make("SparDL", cluster, num_elements=num_elements, k=k)
        result = sync.synchronize(random_gradients(num_workers, num_elements))
        bound = table1(num_workers, num_elements, k)["SparDL"]
        assert result.stats.rounds == bound.latency_rounds
        assert result.stats.max_received <= bound.bandwidth_high + 1e-9

    @pytest.mark.parametrize("num_workers", [8, 14])
    def test_topka_measured_within_formula(self, num_workers):
        num_elements, k = 2000, 200
        cluster = SimulatedCluster(num_workers)
        sync = make("TopkA", cluster, num_elements=num_elements, k=k)
        result = sync.synchronize(random_gradients(num_workers, num_elements))
        bound = table1(num_workers, num_elements, k)["TopkA"]
        assert result.stats.max_received <= bound.bandwidth_high + 1e-9
        # Fold-in/fold-out rounds are allowed on top of log2 P.
        assert result.stats.rounds <= bound.latency_rounds + 2

    def test_gtopk_measured_within_formula(self):
        num_workers, num_elements, k = 8, 2000, 200
        cluster = SimulatedCluster(num_workers)
        sync = make("gTopk", cluster, num_elements=num_elements, k=k)
        result = sync.synchronize(random_gradients(num_workers, num_elements))
        bound = table1(num_workers, num_elements, k)["gTopk"]
        assert result.stats.max_received <= bound.bandwidth_high + 1e-9
        assert result.stats.rounds <= bound.latency_rounds

    @pytest.mark.parametrize("num_workers", [8, 14])
    def test_oktopk_latency_grows_linearly_with_p(self, num_workers):
        num_elements, k = 2000, 200
        cluster = SimulatedCluster(num_workers)
        sync = make("Ok-Topk", cluster, num_elements=num_elements, k=k)
        result = sync.synchronize(random_gradients(num_workers, num_elements))
        bound = table1(num_workers, num_elements, k)["Ok-Topk"]
        assert result.stats.rounds >= 2 * (num_workers - 1)
        assert result.stats.rounds <= bound.latency_rounds + num_workers

    def test_spardl_latency_below_oktopk_and_topkdsa(self):
        num_workers, num_elements, k = 14, 2000, 200
        rounds = {}
        for method in ("SparDL", "Ok-Topk", "TopkDSA"):
            cluster = SimulatedCluster(num_workers)
            sync = make(method, cluster, num_elements=num_elements, k=k)
            result = sync.synchronize(random_gradients(num_workers, num_elements))
            rounds[method] = result.stats.rounds
        assert rounds["SparDL"] < rounds["Ok-Topk"]
        assert rounds["SparDL"] < rounds["TopkDSA"]

    def test_spardl_bandwidth_below_topka(self):
        num_workers, num_elements, k = 14, 4000, 400
        volumes = {}
        for method in ("SparDL", "TopkA"):
            cluster = SimulatedCluster(num_workers)
            sync = make(method, cluster, num_elements=num_elements, k=k)
            result = sync.synchronize(random_gradients(num_workers, num_elements))
            volumes[method] = result.stats.max_received
        assert volumes["SparDL"] < volumes["TopkA"]


class TestPaperTimingClaims:
    """Fig. 8-style claim: priced at the paper's model scale, SparDL has the
    lowest communication time of all sparse methods."""

    @pytest.mark.parametrize("num_workers", [8, 14])
    def test_spardl_fastest_at_paper_scale(self, num_workers):
        num_elements = 5000
        density = 0.01
        case = get_case(2)  # VGG-19 profile
        scale = case.compute_profile.volume_scale(num_elements)
        times = {}
        for method in available_methods(num_workers):
            cluster = SimulatedCluster(num_workers)
            sync = make(method, cluster, num_elements=num_elements, density=density)
            result = sync.synchronize(random_gradients(num_workers, num_elements))
            times[method] = result.stats.simulated_time(ETHERNET, scale)
        assert min(times, key=times.get) == "SparDL"

    def test_oktopk_is_the_strongest_baseline(self):
        """As in the paper, Ok-Topk beats TopkA and TopkDSA (but not SparDL)."""
        num_workers, num_elements, density = 14, 5000, 0.01
        case = get_case(2)
        scale = case.compute_profile.volume_scale(num_elements)
        times = {}
        for method in ("SparDL", "Ok-Topk", "TopkA", "TopkDSA"):
            cluster = SimulatedCluster(num_workers)
            sync = make(method, cluster, num_elements=num_elements, density=density)
            result = sync.synchronize(random_gradients(num_workers, num_elements))
            times[method] = result.stats.simulated_time(ETHERNET, scale)
        assert times["SparDL"] < times["Ok-Topk"] < times["TopkDSA"]
        assert times["Ok-Topk"] < times["TopkA"]


class TestEndToEndTraining:
    @pytest.mark.parametrize("method", ["SparDL", "Ok-Topk", "TopkA", "TopkDSA", "gTopk"])
    def test_every_method_trains_and_keeps_replicas_consistent(self, method):
        case = get_case(5)
        train, test = case.build_datasets(num_samples=48, seed=0)
        cluster = SimulatedCluster(4)
        num_elements = case.build_model(0).num_parameters()
        sync = make(method, cluster, num_elements=num_elements, density=0.02)
        trainer = DistributedTrainer(
            cluster, sync, case.build_model, train, test,
            config=TrainerConfig(batch_size=8, learning_rate=case.learning_rate,
                                 momentum=case.momentum, seed=0, check_consistency=True),
            compute_profile=case.compute_profile,
        )
        history = trainer.train(1)
        assert len(history.epochs) == 1
        assert np.isfinite(history.epochs[0].train_loss)

    def test_spardl_with_teams_trains(self):
        case = get_case(5)
        train, test = case.build_datasets(num_samples=48, seed=0)
        cluster = SimulatedCluster(4)
        num_elements = case.build_model(0).num_parameters()
        sync = make("SparDL", cluster, num_elements=num_elements, density=0.02,
                    teams=2)
        trainer = DistributedTrainer(
            cluster, sync, case.build_model, train, test,
            config=TrainerConfig(batch_size=8, learning_rate=case.learning_rate,
                                 momentum=case.momentum, seed=0, check_consistency=True),
            compute_profile=case.compute_profile,
        )
        history = trainer.train(1)
        assert np.isfinite(history.epochs[0].eval_loss)

    def test_sparse_training_approaches_dense_training(self):
        """Convergence sanity: sparse SparDL training reaches a loss in the
        same ballpark as dense training after the same number of epochs."""
        case = get_case(5)
        train, test = case.build_datasets(num_samples=96, seed=1)
        losses = {}
        for method, kwargs in (("Dense", {}), ("SparDL", {"density": 0.05})):
            cluster = SimulatedCluster(4)
            num_elements = case.build_model(0).num_parameters()
            sync = make(method, cluster, num_elements=num_elements, **kwargs)
            trainer = DistributedTrainer(
                cluster, sync, case.build_model, train, test,
                config=TrainerConfig(batch_size=8, learning_rate=case.learning_rate,
                                     momentum=case.momentum, seed=0),
                compute_profile=case.compute_profile,
            )
            history = trainer.train(6, eval_every=6)
            losses[method] = history.epochs[-1].eval_loss
        assert losses["SparDL"] < losses["Dense"] * 3 + 0.5
