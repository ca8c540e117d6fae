"""The repro.api facade: spec grammar, round-trips, and clear errors."""

from __future__ import annotations

import pytest

from repro.api import (
    SYNCHRONIZER_NAMES,
    SyncSpec,
    available_methods,
    describe,
    make,
    make_factory,
    make_synchronizer,
    parse_spec,
)
from repro.baselines.dense import DenseAllReduceSynchronizer
from repro.baselines.gtopk import GTopkSynchronizer
from repro.baselines.ok_topk import OkTopkSynchronizer
from repro.baselines.topk_a import TopkASynchronizer
from repro.baselines.topk_dsa import TopkDSASynchronizer
from repro.comm.cluster import SimulatedCluster
from repro.core.bucketed import BucketedSynchronizer
from repro.core.schedules import WarmupSchedule
from repro.core.spardl import SparDLSynchronizer
from repro.nn.models import build_mlp


class TestParseSpec:
    def test_bare_name(self):
        spec = parse_spec("dense")
        assert spec.method == "Dense"
        assert spec.canonical() == "dense"

    def test_full_spec(self):
        spec = parse_spec("spardl?density=0.01&schedule=warmup:5&buckets=layer")
        assert spec.method == "SparDL"
        assert spec.density == 0.01
        assert spec.schedule == "warmup:5"
        assert spec.buckets == "layer"

    @pytest.mark.parametrize("alias", ["oktopk", "Ok-Topk", "ok_topk", "OK-TOPK "])
    def test_aliases(self, alias):
        assert parse_spec(f"{alias.strip()}?k=10").method == "Ok-Topk"

    def test_canonical_is_stable_under_reparsing(self):
        spec = "spardl?density=0.01&teams=4&sag=bsag&schedule=warmup:5&buckets=layer"
        assert parse_spec(spec).canonical() == spec
        assert parse_spec(parse_spec(spec).canonical()).canonical() == spec

    @pytest.mark.parametrize("bad,match", [
        ("nope?k=10", "unknown synchroniser"),
        ("spardl?frobnicate=1", "unknown spec key"),
        ("spardl?density=0.01&wire=packed", "unknown spec key"),  # removed with the per-block wire
        ("spardl?density=0.01&deferred=true", "unknown spec key"),  # removed with deferred residuals
        ("spardl?density", "malformed spec parameter"),
        ("spardl?k=5&k=6", "duplicate spec key"),
        ("spardl?k=5&density=0.1", "only one of k and density"),
        ("", "empty synchroniser spec"),
    ])
    def test_malformed_specs_raise(self, bad, match):
        with pytest.raises(ValueError, match=match):
            parse_spec(bad)


class TestMake:
    @pytest.mark.parametrize("spec,cls", [
        ("spardl?density=0.1", SparDLSynchronizer),
        ("ok-topk?density=0.1", OkTopkSynchronizer),
        ("topka?density=0.1", TopkASynchronizer),
        ("topkdsa?density=0.1", TopkDSASynchronizer),
        ("gtopk?density=0.1", GTopkSynchronizer),
        ("dense", DenseAllReduceSynchronizer),
    ])
    def test_builds_right_class(self, spec, cls):
        sync = make(spec, SimulatedCluster(8), num_elements=100)
        assert isinstance(sync, cls)

    def test_overrides_replace_spec_keys(self):
        sync = make("spardl?density=0.1", SimulatedCluster(8), num_elements=100,
                    teams=4, sag="rsag")
        assert sync.num_teams == 4
        assert describe(sync) == "spardl?density=0.1&teams=4&sag=rsag"

    def test_model_supplies_num_elements(self):
        model = build_mlp(8, [8], 2, seed=0)
        sync = make("spardl?density=0.1", SimulatedCluster(4), model=model)
        assert sync.num_elements == model.num_parameters()

    def test_missing_size_raises(self):
        with pytest.raises(ValueError, match="num_elements"):
            make("spardl?density=0.1", SimulatedCluster(4))

    def test_missing_sparsity_raises(self):
        with pytest.raises(ValueError, match="either k or density"):
            make("spardl", SimulatedCluster(4), num_elements=100)

    def test_gtopk_power_of_two_error_is_clear_and_early(self):
        """Satellite requirement: requesting gTopk on non-power-of-two P
        names the power-of-two requirement instead of failing mid-exchange."""
        with pytest.raises(ValueError, match="power-of-two"):
            make("gtopk?density=0.1", SimulatedCluster(14), num_elements=100)
        with pytest.raises(ValueError, match="power-of-two"):
            make_synchronizer("gTopk", SimulatedCluster(6), 100, k=10)

    def test_dense_rejects_schedule(self):
        with pytest.raises(ValueError, match="no sparsity knob"):
            make("dense?schedule=warmup:5", SimulatedCluster(4), num_elements=100)

    def test_bucketed_build(self):
        model = build_mlp(8, [8], 2, seed=0)
        sync = make("spardl?density=0.1&buckets=layer", SimulatedCluster(4), model=model)
        assert isinstance(sync, BucketedSynchronizer)
        assert sync.num_elements == model.num_parameters()


class TestDescribeRoundTrip:
    @pytest.mark.parametrize("spec", [
        "dense",
        "spardl?density=0.01",
        "spardl?k=50&teams=2",
        "spardl?density=0.01&schedule=warmup:5&buckets=layer",
        "gtopk?density=0.01&schedule=adaptive",
        "ok-topk?k=500",
        "spardl?density=0.02&residuals=partial",
    ])
    def test_make_then_describe_round_trips(self, spec):
        cluster = SimulatedCluster(8)
        needs_model = "buckets" in spec
        model = build_mlp(8, [8], 2, seed=0) if needs_model else None
        sync = make(spec, cluster, num_elements=None if needs_model else 200,
                    model=model)
        assert describe(sync) == spec
        assert parse_spec(describe(sync)).canonical() == spec

    def test_describe_factory_and_string(self):
        factory = make_factory("spardl?density=0.01&schedule=warmup:5")
        assert describe(factory) == "spardl?density=0.01&schedule=warmup:5"
        assert describe("SparDL?density=0.01") == "spardl?density=0.01"

    def test_describe_rejects_foreign_objects(self):
        with pytest.raises(ValueError, match="cannot describe"):
            describe(object())


class TestRegistryCompatibility:
    """The old registry interface must keep working, re-exported verbatim."""

    def test_reexports(self):
        from repro.baselines.registry import (
            SYNCHRONIZER_NAMES as reexported_names,
            available_methods as reexported_available,
            make_synchronizer as reexported_make,
        )
        assert reexported_names is SYNCHRONIZER_NAMES
        assert reexported_available is available_methods
        assert reexported_make is make_synchronizer

    def test_make_synchronizer_accepts_spec_strings(self):
        sync = make_synchronizer("spardl?density=0.01&schedule=warmup:5",
                                 SimulatedCluster(8), 1000)
        assert isinstance(sync, SparDLSynchronizer)
        assert isinstance(sync.schedule, WarmupSchedule)

    def test_make_synchronizer_kwargs_override_spec(self):
        sync = make_synchronizer("spardl?density=0.5", SimulatedCluster(8), 1000,
                                 density=0.01, num_teams=2)
        assert sync.k == 10
        assert sync.num_teams == 2

    def test_available_methods(self):
        assert "gTopk" not in available_methods(14)
        assert "gTopk" in available_methods(8)
        assert "Dense" in available_methods(8, include_dense=True)


class TestSyncSpecDataclass:
    def test_direct_construction_canonicalises_method(self):
        assert SyncSpec(method="oktopk", k=5).method == "Ok-Topk"

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError, match="unknown synchroniser"):
            SyncSpec(method="carrier-pigeon")
