"""The repro.api facade: spec grammar, round-trips, and clear errors."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    _METHODS,
    SYNCHRONIZER_NAMES,
    SyncSpec,
    available_methods,
    describe,
    make,
    make_factory,
    parse_spec,
)
from repro.baselines.dense import DenseAllReduceSynchronizer
from repro.baselines.gtopk import GTopkSynchronizer
from repro.baselines.ok_topk import OkTopkSynchronizer
from repro.baselines.topk_a import TopkASynchronizer
from repro.baselines.topk_dsa import TopkDSASynchronizer
from repro.comm.cluster import SimulatedCluster
from repro.comm.network import ETHERNET
from repro.core.bucketed import BucketedSynchronizer
from repro.core.schedules import WarmupSchedule
from repro.core.spardl import SparDLSynchronizer
from repro.nn.models import build_mlp
from repro.training.timing import ComputeProfile


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

    def test_floats_keep_every_digit(self):
        """Regression: ``:g`` printed six significant digits, so
        ``density=0.0123456789`` came back as ``0.0123457``."""
        text = "spardl?density=0.0123456789&momentum=0.987654321"
        spec = parse_spec(text)
        assert spec.canonical() == text
        assert parse_spec(spec.canonical()) == spec
        numpy_spec = SyncSpec("spardl", density=np.float64(0.0123456789),
                              momentum=np.float64(0.987654321))
        assert numpy_spec.canonical() == text

    @pytest.mark.parametrize("bad,match", [
        ("nope?k=10", "unknown synchroniser"),
        ("spardl?frobnicate=1", "unknown spec key"),
        ("spardl?density=0.01&wire=packed", "unknown spec key"),  # removed with the per-block wire
        ("spardl?density=0.01&deferred=true", "unknown spec key"),  # removed with deferred residuals
        ("spardl?density", "malformed spec parameter"),
        ("spardl?k=5&k=6", "duplicate spec key"),
        ("spardl?k=5&density=0.1", "only one of k and density"),
        ("spardl?density=0.1&buckets=size:0", "unknown buckets mode"),
        ("spardl?density=0.1&buckets=auto:greedy", "was removed"),
        ("", "empty synchroniser spec"),
    ])
    def test_malformed_specs_raise(self, bad, match):
        with pytest.raises(ValueError, match=match):
            parse_spec(bad)


#: Every removed spelling: the spec string, and the same as keywords of
#: ``make`` on top of a bare method name.
REMOVED = [
    ("spardl?density=0.1&buckets=layer&hybrid=dense<64",
     "spardl", {"density": 0.1, "buckets": "layer", "hybrid": "dense<64"}),
    ("spardl?density=0.1&schedule=adaptive",
     "spardl", {"density": 0.1, "schedule": "adaptive"}),
    ("spardl?density=0.1&schedule=adaptive:0.25",
     "spardl", {"density": 0.1, "schedule": "adaptive:0.25"}),
    ("spardl?density=0.1&buckets=auto:asc",
     "spardl", {"density": 0.1, "buckets": "auto:asc"}),
    ("spardl?density=0.1&buckets=auto:mgwfbp",
     "spardl", {"density": 0.1, "buckets": "auto:mgwfbp"}),
    ("spardl?density=0.1&buckets=size:40",
     "spardl", {"density": 0.1, "buckets": "size:40"}),
    ("spardl?density=0.1&buckets=layer&bits=8,out:32",
     "spardl", {"density": 0.1, "buckets": "layer", "bits": "8,out:32"}),
    ("spardl?density=0.1&buckets=auto&bits=out:32",
     "spardl", {"density": 0.1, "buckets": "auto", "bits": "out:32"}),
    ("spardl?density=0.1&bits=8,emb:32",
     "spardl", {"density": 0.1, "bits": "8,emb:32"}),
    ("topka?density=0.01&buckets=layer",
     "topka", {"density": 0.01, "buckets": "layer"}),
    ("topkdsa?density=0.01&buckets=size:40",
     "topkdsa", {"density": 0.01, "buckets": "size:40"}),
    ("gtopk?density=0.01&buckets=auto", "gtopk", {"density": 0.01, "buckets": "auto"}),
    ("ok-topk?k=5&buckets=layer", "ok-topk", {"k": 5, "buckets": "layer"}),
    ("dense?buckets=layer", "dense", {"buckets": "layer"}),
    ("topka?density=0.01&bits=8", "topka", {"density": 0.01, "bits": 8}),
    ("gtopk?density=0.01&momentum=0.9", "gtopk", {"density": 0.01, "momentum": 0.9}),
    ("topka?density=0.01&teams=2", "topka", {"density": 0.01, "teams": 2}),
    ("ok-topk?density=0.01&residuals=local",
     "ok-topk", {"density": 0.01, "residuals": "local"}),
    ("gtopk?density=0.01&sag=bsag", "gtopk", {"density": 0.01, "sag": "bsag"}),
    ("dense?density=0.1", "dense", {"density": 0.1}),
    ("dense?schedule=warmup:5", "dense", {"schedule": "warmup:5"}),
    ("dense?teams=2", "dense", {"teams": 2}),
]


class TestRemovedSpellings:
    @pytest.mark.parametrize("spec,_name,_keys", REMOVED, ids=[r[0] for r in REMOVED])
    def test_parse_names_the_removal(self, spec, _name, _keys):
        with pytest.raises(ValueError, match="was removed"):
            parse_spec(spec)

    @pytest.mark.parametrize("_spec,name,keys", REMOVED, ids=[r[0] for r in REMOVED])
    def test_make_keywords_name_the_removal(self, _spec, name, keys):
        with pytest.raises(ValueError, match="was removed"):
            make(name, SimulatedCluster(4), model=build_mlp(8, [8], 2, seed=0), **keys)


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

    @pytest.mark.parametrize("name,cls", [
        ("spardl", SparDLSynchronizer), ("SparDL", SparDLSynchronizer),
        ("ok-topk", OkTopkSynchronizer), ("oktopk", OkTopkSynchronizer),
        ("ok_topk", OkTopkSynchronizer), ("topka", TopkASynchronizer),
        ("topk-a", TopkASynchronizer), ("topk_a", TopkASynchronizer),
        ("topkdsa", TopkDSASynchronizer), ("topk-dsa", TopkDSASynchronizer),
        ("topk_dsa", TopkDSASynchronizer), ("gtopk", GTopkSynchronizer),
        ("gtop-k", GTopkSynchronizer), ("dense", DenseAllReduceSynchronizer),
        ("allreduce", DenseAllReduceSynchronizer),
    ])
    def test_every_alias_builds_its_class(self, name, cls):
        density = {} if cls is DenseAllReduceSynchronizer else {"density": 0.1}
        sync = make(name, SimulatedCluster(8), num_elements=100, **density)
        assert isinstance(sync, cls)

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError, match="unknown synchroniser"):
            make("nope", SimulatedCluster(4), num_elements=100, k=10)

    def test_overrides_replace_spec_keys(self):
        sync = make("spardl?density=0.5", SimulatedCluster(8), num_elements=1000,
                    density=0.01, teams=4, sag="rsag")
        assert sync.k == 10 and sync.num_teams == 4
        assert describe(sync) == "spardl?density=0.01&teams=4&sag=rsag"

    @pytest.mark.parametrize("spec", ["spardl?density=0.1", "ok-topk?density=0.1",
                                      "topka?density=0.1", "topkdsa?density=0.1",
                                      "gtopk?density=0.1", "dense"])
    def test_unknown_keywords_raise(self, spec):
        """Regression: unknown keywords landed in a side dict only SparDL
        read, so the baselines built silently and SparDL died on a bare
        ``TypeError``."""
        with pytest.raises(ValueError, match="unknown spec key 'tpyo'"):
            make(spec, SimulatedCluster(8), num_elements=100, tpyo=3)
        with pytest.raises(ValueError, match="unknown spec key 'tpyo'"):
            make_factory(spec, tpyo=3)  # when called, not when the trainer builds

    def test_factory_keywords_join_its_spec(self):
        factory = make_factory("spardl?density=0.01", teams=2, network=ETHERNET)
        assert factory.spec == "spardl?density=0.01&teams=2"
        sync = factory(SimulatedCluster(4), build_mlp(8, [8], 2, seed=0))
        assert sync.num_teams == 2 and describe(sync) == factory.spec

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
            make("gTopk", SimulatedCluster(6), num_elements=100, k=10)

    def test_dense_rejects_schedule(self):
        with pytest.raises(ValueError, match="schedule=warmup:5 on Dense was removed"):
            make("dense?schedule=warmup:5", SimulatedCluster(4), num_elements=100)

    def test_bucketed_build(self):
        model = build_mlp(8, [8], 2, seed=0)
        sync = make("spardl?density=0.1&buckets=layer", SimulatedCluster(4), model=model)
        assert type(sync) is SparDLSynchronizer
        assert sync.bucket_sizes == [p.size for p in model.parameters()]
        assert sync.num_elements == model.num_parameters()
        grouped = make("spardl?density=0.1&buckets=auto", SimulatedCluster(4), model=model,
                       compute_profile=ComputeProfile(0.13, 35.2e6))
        assert isinstance(grouped, BucketedSynchronizer)
        assert grouped.bucket_sizes == [72, 18] and len(grouped.sessions) == 2
        assert grouped.num_elements == model.num_parameters()

    def test_available_methods(self):
        assert SYNCHRONIZER_NAMES == ("SparDL", "Ok-Topk", "TopkA", "TopkDSA",
                                      "gTopk", "Dense")
        assert "gTopk" not in available_methods(14)
        assert "gTopk" in available_methods(8)
        assert "Dense" in available_methods(8, include_dense=True)
        assert "Dense" not in available_methods(8)


#: Workers of the round-trip property, and the model its bucketed specs use
#: (tensors ``mlp.fc0.weight`` / ``.bias``, ``mlp.out.weight`` / ``.bias``).
WORKERS = 8
MODEL = build_mlp(8, [8], 2, seed=0)
#: Every spelling a spec may give a method.
SPELLINGS = ["spardl", "SparDL", "ok-topk", "oktopk", "ok_topk", "topka", "topk-a",
             "topk_a", "topkdsa", "topk-dsa", "topk_dsa", "gtopk", "gtop-k",
             "dense", "allreduce"]


@st.composite
def spec_strings(draw):
    """A runnable spec string with a value drawn for every key its method
    reads (its row of ``repro.api._METHODS``)."""
    name = draw(st.sampled_from(SPELLINGS))
    reads = _METHODS[parse_spec(name).method].keys
    momentum = draw(st.none() | st.floats(0.01, 0.99)) if "momentum" in reads else None
    values = {
        "teams": st.sampled_from([1, 2, 4]),
        "sag": st.sampled_from(["auto", "rsag", "bsag"]),
        # momentum correction keeps its velocity in the residual stores
        "residuals": st.sampled_from(
            ["global", "partial", "local"] + (["none"] if momentum is None else [])),
        "schedule": st.sampled_from(["constant", "warmup:3", "warmup:2:0.5"]),
        "buckets": st.sampled_from(["flat", "layer", "auto"]),
        "bits": st.none() | st.integers(1, 32),
        "momentum": st.just(momentum),
        "backend": st.sampled_from([None, f"sim:{WORKERS}"]),
        "trace": st.sampled_from(["off", "steps", "comm"]),
    }
    keys = {key: draw(value) for key, value in values.items() if key in reads}
    if "k" in reads:
        if draw(st.booleans()):
            keys["k"] = draw(st.integers(1, 120))
        else:
            keys["density"] = draw(st.floats(1e-4, 1.0))
    query = "&".join(f"{key}={value}" for key, value in keys.items() if value is not None)
    return f"{name}?{query}"


class TestDescribeRoundTrip:
    @given(spec=spec_strings())
    @settings(max_examples=60, deadline=None)
    def test_make_then_describe_round_trips(self, spec):
        expected = parse_spec(spec)
        sync = make(spec, SimulatedCluster(WORKERS), network=ETHERNET,
                    **({"model": MODEL} if expected.is_bucketed else {"num_elements": 200}))
        assert parse_spec(describe(sync)) == expected
        canonical = expected.canonical()
        assert parse_spec(canonical).canonical() == canonical

    def test_describe_factory_and_string(self):
        factory = make_factory("spardl?density=0.01&schedule=warmup:5")
        assert describe(factory) == "spardl?density=0.01&schedule=warmup:5"
        assert describe("SparDL?density=0.01") == "spardl?density=0.01"

    def test_describe_rejects_foreign_objects(self):
        with pytest.raises(ValueError, match="cannot describe"):
            describe(object())


#: A value other than its default for every spec key, and how a synchroniser
#: built with it shows that it runs it.
NON_DEFAULT = {
    "k": (7, lambda sync: sync.k == 7),
    "density": (0.1, lambda sync: sync.k == 9),  # of MODEL's 90 parameters
    "teams": (2, lambda sync: sync.num_teams == 2),
    "sag": ("bsag", lambda sync: sync.config.sag_mode.value == "bsag"),
    "residuals": ("local", lambda sync: sync.residuals.policy.value == "local"),
    "schedule": ("warmup:3", lambda sync: isinstance(sync.schedule, WarmupSchedule)),
    "buckets": ("layer", lambda sync: sync.bucket_sizes == [p.size for p in MODEL.parameters()]),
    "bits": (8, lambda sync: sync.stack.num_bits == 8),
    "momentum": (0.9, lambda sync: sync.residuals.momentum == 0.9),
    "backend": (f"sim:{WORKERS}", lambda sync: sync.cluster.num_workers == WORKERS),
    "trace": ("steps", lambda sync: sync.tracer is not None),
}
_SPARSE = {"k", "density", "schedule", "backend", "trace"}
#: The keys each method runs.
READS = {"SparDL": set(NON_DEFAULT), "Ok-Topk": _SPARSE, "TopkA": _SPARSE,
         "TopkDSA": _SPARSE, "gTopk": _SPARSE,
         "Dense": {"bits", "momentum", "backend", "trace"}}


class TestEveryKeyIsRunOrRefused:
    """A spec names only what its method runs: every key a method reads is
    built into the synchroniser and printed by ``describe``; every other key
    at a value other than its default raises, through ``parse_spec``,
    ``make(**keys)`` and ``make_factory(**keys)`` alike, naming the method
    and the key."""

    @pytest.mark.parametrize("key", list(NON_DEFAULT))
    @pytest.mark.parametrize("method", SYNCHRONIZER_NAMES)
    def test_key(self, method, key):
        value, runs = NON_DEFAULT[key]
        name = parse_spec(method).canonical()
        if key not in READS[method]:
            pattern = f"{key}=.* on {method} was removed"
            with pytest.raises(ValueError, match=pattern):
                parse_spec(f"{name}?{key}={value}")
            with pytest.raises(ValueError, match=pattern):
                make(name, SimulatedCluster(WORKERS), num_elements=200, **{key: value})
            with pytest.raises(ValueError, match=pattern):
                make_factory(name, **{key: value})
            return
        keys = {key: value}
        if "density" in READS[method] and key not in ("k", "density"):
            keys["density"] = 0.1
        cluster = None if key == "backend" else SimulatedCluster(WORKERS)
        sync = make(name, cluster, model=MODEL, **keys)
        assert runs(sync)
        assert f"{key}={value}" in describe(sync).partition("?")[2].split("&")

    def test_the_facade_reads_this_table(self):
        assert {method: set(entry.keys) for method, entry in _METHODS.items()} == READS


class TestSyncSpec:
    def test_direct_construction_canonicalises_method(self):
        assert SyncSpec(method="oktopk", k=5).method == "Ok-Topk"

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError, match="unknown synchroniser"):
            SyncSpec(method="carrier-pigeon")
