"""Property tests for the MGWFBP bucket-fusion planner, its pricing on the
network profile, and the spec-grammar wiring."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import make, parse_spec
from repro.comm import make_transport
from repro.comm.cluster import SimulatedCluster
from repro.comm.faults import FaultPlan
from repro.comm.network import ETHERNET, RDMA, HeterogeneousNetwork, NetworkProfile
from repro.comm.transport import Message
from repro.core.fusion import (
    FusionPlan,
    bucket_comm_model,
    plan_buckets,
    plan_mgwfbp,
)
from repro.core.spardl import SparDLSynchronizer
from repro.nn.models import build_mlp
from repro.obs import Tracer
from repro.training.cases import get_case
from repro.training.timing import ComputeProfile

from tests.helpers import case5_trainer

def _linear_estimator(rounds: float = 1.0):
    """A purely additive comm model: one round, volume == elements."""
    return lambda elements: (rounds, float(elements))


def _layers(sizes):
    return [(f"l{i}", size) for i, size in enumerate(sizes)]


# ---------------------------------------------------------------------------
# hypothesis strategies
# ---------------------------------------------------------------------------
layer_sizes = st.lists(st.integers(1, 50_000), min_size=1, max_size=8)
alpha_values = st.floats(0.0, 1.0)
beta_values = st.floats(0.0, 1e-4)


@st.composite
def layout_and_computes(draw):
    sizes = draw(layer_sizes)
    computes = draw(st.lists(st.floats(0.0, 0.5), min_size=len(sizes),
                             max_size=len(sizes)))
    return sizes, computes


class TestPlanIsValidPartition:
    @given(data=layout_and_computes(), alpha=alpha_values, beta=beta_values)
    @settings(max_examples=60, deadline=None)
    def test_sizes_sum_and_order_preserved(self, data, alpha, beta):
        sizes, computes = data
        network = NetworkProfile("n", alpha=alpha, beta=beta)
        plan = plan_mgwfbp(_layers(sizes), computes, _linear_estimator(), network)
        # Sizes sum to the model's parameter count.
        assert sum(plan.sizes) == sum(sizes)
        # Order preserved: joining the fused names reproduces the layer
        # names in their original order.
        assert "+".join(plan.names) == "+".join(name for name, _ in _layers(sizes))
        # Groups are a contiguous ordered cover (FusionPlan validates too).
        assert plan.groups[0][0] == 0
        assert plan.groups[-1][1] == len(sizes)
        for (_, stop), (start, _) in zip(plan.groups, plan.groups[1:]):
            assert stop == start

    @given(data=layout_and_computes(), workers=st.sampled_from([2, 4, 8]))
    @settings(max_examples=40, deadline=None)
    def test_partition_holds_under_table_one_models(self, data, workers):
        sizes, computes = data
        profile = ComputeProfile(0.1, 1e6,
                                 bucket_backward_times=tuple(computes))
        plan = plan_buckets(_layers(sizes),
                            num_workers=workers, density=0.05,
                            network=ETHERNET, compute_profile=profile)
        assert sum(plan.sizes) == sum(sizes)
        assert plan.num_buckets <= len(sizes)


class TestPlanNeverExceedsSequential:
    @given(data=layout_and_computes(), alpha=alpha_values, beta=beta_values)
    @settings(max_examples=60, deadline=None)
    def test_critical_path_bounded_by_sequential(self, data, alpha, beta):
        sizes, computes = data
        network = NetworkProfile("n", alpha=alpha, beta=beta)
        plan = plan_mgwfbp(_layers(sizes), computes, _linear_estimator(), network)
        assert (plan.predicted.critical_path
                <= plan.predicted_sequential * (1 + 1e-9) + 1e-12)

    @given(data=layout_and_computes(), alpha=alpha_values)
    @settings(max_examples=40, deadline=None)
    def test_bounded_even_under_superadditive_volumes(self, data, alpha):
        """Per-bucket k-rounding can make a merged bucket's estimated volume
        exceed the sum of its parts; the plan must still never predict
        worse than the sequential per-layer baseline."""
        sizes, computes = data
        network = NetworkProfile("n", alpha=alpha, beta=1e-6)
        superadditive = lambda n: (1.0, float(n) ** 1.5)
        plan = plan_mgwfbp(_layers(sizes), computes, superadditive, network)
        assert (plan.predicted.critical_path
                <= plan.predicted_sequential * (1 + 1e-9) + 1e-12)


class TestDegenerateRegimes:
    @given(data=layout_and_computes())
    @settings(max_examples=40, deadline=None)
    def test_alpha_dominant_fuses_to_a_single_bucket(self, data):
        """With a latency-only network every extra bucket costs a full
        round and saves nothing: the planner must fuse everything."""
        sizes, computes = data
        network = NetworkProfile("n", alpha=1.0, beta=0.0)
        plan = plan_mgwfbp(_layers(sizes), computes, _linear_estimator(), network)
        assert plan.num_buckets == 1

    @given(sizes=layer_sizes, computes=st.data())
    @settings(max_examples=40, deadline=None)
    def test_beta_dominant_keeps_per_layer_buckets(self, sizes, computes):
        """With zero latency, fusing only delays gradients that could have
        been on the wire (the merged exchange cannot start before the whole
        group's backward finishes), so per-layer buckets are optimal."""
        times = computes.draw(st.lists(st.floats(1e-3, 0.5),
                                       min_size=len(sizes),
                                       max_size=len(sizes)))
        network = NetworkProfile("n", alpha=0.0, beta=1e-3)
        plan = plan_mgwfbp(_layers(sizes), times, _linear_estimator(), network)
        assert plan.num_buckets == len(sizes)

    def test_single_layer_is_always_one_bucket(self):
        plan = plan_mgwfbp(_layers([123]), [0.1], _linear_estimator(),
                           NetworkProfile("n", alpha=0.1, beta=1e-6))
        assert plan.num_buckets == 1
        assert plan.sizes == [123]


class TestPlanInputValidation:
    def test_rejects_empty_and_mismatched_inputs(self):
        network = NetworkProfile("n", alpha=0.1, beta=1e-6)
        with pytest.raises(ValueError):
            plan_mgwfbp([], [], _linear_estimator(), network)
        with pytest.raises(ValueError):
            plan_mgwfbp(_layers([10, 20]), [0.1], _linear_estimator(), network)
        with pytest.raises(ValueError):
            plan_mgwfbp(_layers([10]), [-0.1], _linear_estimator(), network)
        with pytest.raises(ValueError):
            plan_mgwfbp([("a", 0)], [0.1], _linear_estimator(), network)

    def test_sparse_method_needs_density(self):
        with pytest.raises(ValueError, match="density"):
            plan_buckets(_layers([10]), num_workers=4, network=ETHERNET)

    def test_needs_a_network(self):
        with pytest.raises(TypeError, match="network"):
            plan_buckets(_layers([10]), num_workers=4, density=0.1)

    def test_fusion_plan_rejects_invalid_groups(self):
        network = NetworkProfile("n", alpha=0.1, beta=1e-6)
        good = plan_mgwfbp(_layers([10, 20]), [0.1, 0.1],
                           _linear_estimator(), network)
        with pytest.raises(ValueError):
            FusionPlan(layers=good.layers,
                       groups=((0, 1),), network=network, volume_scale=1.0,
                       predicted=good.predicted,
                       predicted_sequential=good.predicted_sequential)
        with pytest.raises(ValueError):
            FusionPlan(layers=good.layers,
                       groups=((0, 1), (0, 2)), network=network, volume_scale=1.0,
                       predicted=good.predicted,
                       predicted_sequential=good.predicted_sequential)


class TestPlanPricesOnTheProfile:
    def test_building_an_auto_plan_sends_nothing(self):
        """``buckets=auto`` prices on the profile it is handed: building
        the synchroniser puts no message on the transport."""
        case = get_case(1)
        cluster = SimulatedCluster(4)
        tracer = Tracer("comm")
        cluster.install_tracer(tracer)
        make("spardl?density=0.01&buckets=auto", cluster,
             model=case.build_model(0), compute_profile=case.compute_profile)
        assert [e.name for e in tracer.events if e.cat == "message"] == []
        assert cluster.stats.rounds == 0

    @pytest.mark.parametrize("profile", [ETHERNET, RDMA], ids=["ethernet", "rdma"])
    def test_plan_reports_the_profile(self, profile):
        plan = plan_buckets(_layers([4000, 300, 20000, 50]), num_workers=4,
                            density=0.01, network=profile)
        assert plan.network is profile
        summary = plan.breakdown()
        assert (summary["alpha"], summary["beta"], summary["network"]) == (
            profile.alpha, profile.beta, profile.name)

    def test_plan_prices_on_the_profile_it_is_handed(self):
        layers = _layers([4000, 300, 20000, 50])
        cheap = NetworkProfile("cheap", alpha=1e-4, beta=1e-9)
        slow = cheap.scaled(alpha_factor=10.0, name="slow")
        plans = [plan_buckets(layers, num_workers=4, density=0.01, network=network)
                 for network in (cheap, slow)]
        assert plans[1].predicted_sequential > plans[0].predicted_sequential

    def test_overrides_equal_to_the_default_plan_as_that_profile(self):
        layers = _layers([4000, 300, 20000, 50])
        copy = NetworkProfile("copy", alpha=ETHERNET.alpha, beta=ETHERNET.beta)
        network = HeterogeneousNetwork(default=ETHERNET, overrides={1: ETHERNET, 3: copy})
        compute = ComputeProfile(0.13, 35.2e6)
        plans = [plan_buckets(layers, num_workers=4, density=0.01,
                              network=profile, compute_profile=compute)
                 for profile in (network, ETHERNET)]
        assert plans[0] == plans[1]
        assert plans[0].network is ETHERNET

    def test_a_heterogeneous_network_plans_on_its_slowest_profile(self):
        """A synchronous round waits for its slowest receiver: the planner
        prices on the largest alpha and the largest beta the network holds."""
        layers = _layers([4000, 300, 20000, 50])
        late = ETHERNET.scaled(alpha_factor=10.0, name="late")
        narrow = ETHERNET.scaled(beta_factor=10.0, name="narrow")
        network = HeterogeneousNetwork(default=ETHERNET, overrides={0: late, 2: narrow})
        worst = NetworkProfile("worst", alpha=late.alpha, beta=narrow.beta)
        compute = ComputeProfile(0.13, 35.2e6)
        plan, expected = (plan_buckets(layers, num_workers=4, density=0.01,
                                       network=profile, compute_profile=compute)
                          for profile in (network, worst))
        assert (plan.network.alpha, plan.network.beta) == (worst.alpha, worst.beta)
        assert plan.groups == expected.groups
        assert plan.predicted == expected.predicted

    def test_a_trainer_plans_on_a_fault_plans_network(self):
        """``buckets=auto`` under a ``FaultPlan``'s per-worker profiles:
        the trainer builds the plan and trains an epoch on ``sim:4``."""
        slow = ETHERNET.scaled(alpha_factor=4.0, beta_factor=4.0, name="slow")
        network = FaultPlan(worker_profiles={1: slow}).heterogeneous_network(4, ETHERNET)
        trainer = case5_trainer("spardl?density=0.02&buckets=auto", samples=64,
                                network=network)
        history = trainer.train(1)
        assert trainer.synchronizer.fusion_plan.network.alpha == slow.alpha
        assert len(history.epochs) == 1

    @pytest.mark.parametrize("alpha, beta", [(-1.0, 0.0), (0.0, -1e-9)],
                             ids=["alpha", "beta"])
    def test_negative_costs_rejected(self, alpha, beta):
        # The profile the planner prices on admits no negative cost.
        with pytest.raises(ValueError):
            NetworkProfile("bad", alpha=alpha, beta=beta)

    def test_single_worker_plans_on_the_profile(self):
        plan = plan_buckets(_layers([10, 20]), num_workers=1, density=0.1,
                            network=ETHERNET)
        assert plan.network is ETHERNET
        assert sum(plan.sizes) == 30

    @pytest.mark.parametrize("backend", ["sim:2", "mp:2"])
    def test_building_leaves_the_stats_as_they_were(self, backend):
        case = get_case(1)
        with make_transport(backend) as cluster:
            cluster.stats.record_round([(0, 1, 500.0)])
            before = cluster.stats.copy()
            make("spardl?density=0.01&buckets=auto", cluster,
                 model=case.build_model(0), compute_profile=case.compute_profile)
            assert cluster.stats.rounds == before.rounds
            assert cluster.stats.received_per_worker == before.received_per_worker
            assert cluster.stats.per_round_received == before.per_round_received

    def test_building_leaves_the_fault_draws_as_they_were(self):
        """Fault fates are keyed by the transport's round counter: building
        an auto plan must not advance it, so the first step after ``make``
        draws the fates it would have drawn without the build."""
        case = get_case(1)

        def faulty_rounds(build):
            cluster = SimulatedCluster(4)
            cluster.install_fault_plan(FaultPlan(seed=3, drop_rate=0.3))
            if build:
                make("spardl?density=0.01&buckets=auto", cluster,
                     model=case.build_model(0), compute_profile=case.compute_profile)
            for _ in range(6):
                cluster.exchange([Message(src=rank, dst=(rank + 1) % 4,
                                          payload=np.zeros(8), tag="x")
                                  for rank in range(4)])
            stats = cluster.stats
            return (stats.rounds, stats.dropped_messages, stats.retried_messages,
                    stats.per_round_received)

        assert faulty_rounds(build=True) == faulty_rounds(build=False)

    def test_mp_and_sim_plan_the_same_layout(self):
        """``buckets=auto`` is a pure function of the spec, the layout and
        the profiles: case 1's plan is the same on ``mp:2`` and ``sim:2``."""
        case = get_case(1)
        model = case.build_model(0)
        plans = []
        for backend in ("sim:2", "mp:2"):
            with make_transport(backend) as cluster:
                sync = make("spardl?density=0.01&buckets=auto", cluster,
                            model=model, compute_profile=case.compute_profile)
                plans.append(sync.fusion_plan)
        assert plans[0] == plans[1]
        assert plans[0].network is ETHERNET


class TestCommModels:
    def test_needs_a_density(self):
        with pytest.raises(ValueError, match="density"):
            bucket_comm_model(num_workers=4)

    def test_sparse_bucket_keeps_at_least_one_entry(self):
        model = bucket_comm_model(num_workers=4, density=0.001)
        _, tiny_volume = model(10)  # k would round to 0 without the clamp
        assert tiny_volume > 0

    def test_quantization_shrinks_the_volume(self):
        full = bucket_comm_model(num_workers=4, density=0.05)
        quant = bucket_comm_model(num_workers=4, density=0.05,
                                  num_bits=4)
        assert quant(10_000)[1] < full(10_000)[1]
        assert quant(10_000)[0] == full(10_000)[0]  # rounds unchanged

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            bucket_comm_model(num_workers=0, density=0.1)
        with pytest.raises(ValueError):
            bucket_comm_model(num_workers=4, density=1.5)
        with pytest.raises(ValueError):
            bucket_comm_model(num_workers=4, density=0.1)(0)


class TestSpecGrammar:
    def test_auto_specs_round_trip(self):
        spec = parse_spec("spardl?density=0.05&buckets=auto")
        assert spec.buckets == "auto"
        assert parse_spec(spec.canonical()).buckets == "auto"

    def test_a_planner_suffix_is_rejected_at_parse_time(self):
        with pytest.raises(ValueError, match="was removed"):
            parse_spec("spardl?density=0.05&buckets=auto:bogus")

    def test_make_attaches_the_plan(self):
        model = build_mlp(20, [32, 16], 4, seed=0)
        profile = ComputeProfile(0.13, 35.2e6)
        sync = make("spardl?density=0.05&buckets=auto",
                    SimulatedCluster(4), model=model,
                    network=ETHERNET, compute_profile=profile)
        assert sync.fusion_plan is not None
        assert sync.bucket_sizes == sync.fusion_plan.sizes
        assert sum(sync.bucket_sizes) == model.num_parameters()

    def test_a_trainer_runs_the_planned_partition(self):
        """Case 5 on four workers: the synchroniser the trainer builds runs
        the layout its planner chose, and the layout partitions the model."""
        trainer = case5_trainer("spardl?density=0.02&buckets=auto")
        sync, plan = trainer.synchronizer, trainer.synchronizer.fusion_plan
        assert sync.bucket_sizes == plan.sizes and sync.num_buckets == plan.num_buckets
        assert sum(plan.sizes) == plan.total_elements == trainer.num_elements

    def test_non_auto_buckets_have_no_plan(self):
        model = build_mlp(20, [32, 16], 4, seed=0)
        profile = ComputeProfile(0.13, 35.2e6)
        planned = make("spardl?density=0.05&buckets=auto&bits=8",
                       SimulatedCluster(4), model=model, compute_profile=profile)
        assert planned.fusion_plan is not None and len(planned.sessions) == 3
        for spec in ("spardl?density=0.05&buckets=layer",
                     "spardl?density=0.05&buckets=layer&bits=8"):
            uniform = make(spec, SimulatedCluster(4), model=model, compute_profile=profile)
            assert type(uniform) is SparDLSynchronizer
            assert not hasattr(uniform, "fusion_plan")

    def test_breakdown_is_json_serialisable(self):
        import json

        plan = plan_buckets(_layers([100, 200, 300]), num_workers=4,
                            density=0.05, network=ETHERNET,
                            compute_profile=ComputeProfile(0.1, 1e6))
        payload = json.loads(json.dumps(plan.breakdown()))
        assert payload["num_buckets"] == plan.num_buckets
        assert payload["predicted"]["critical_path_s"] == pytest.approx(
            plan.predicted.critical_path)
