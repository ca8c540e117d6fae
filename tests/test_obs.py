"""The observability subsystem: tracing, metrics, export and the wiring.

Covers the `repro.obs` package itself (levels, registry, Chrome export,
validation), every seam it is wired into (pipeline stage spans, transport
message events, fault/membership markers, trainer spans, the mp backend's
per-rank streams), the `trace=` facade key, and the two contracts the PR
rides on: `trace=off` is bit-identical to the untraced library, and stage
hooks that raise are contained (counted + warned once).
"""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from repro import FaultPlan, MembershipEvent, SimulatedCluster, SyncSession
from repro.api import describe, make, make_factory, parse_spec
from repro.nn.parameter import flatten_values
from repro.training.timing import ComputeProfile
from repro.obs import (
    DRIVER_PID,
    SIM_PID,
    MetricsRegistry,
    TraceLevel,
    Tracer,
    attach_tracer,
    replay_iteration_timing,
    validate_chrome_trace,
    worker_pid,
)

from tests.helpers import case5_trainer

ALL_METHODS = ["spardl", "topka", "topkdsa", "gtopk", "ok-topk", "dense"]


def grads_for(cluster, n, step=0):
    return {rank: np.random.default_rng(1000 * step + rank).normal(size=n)
            for rank in cluster.ranks}


# ---------------------------------------------------------------------------
# TraceLevel
# ---------------------------------------------------------------------------
class TestTraceLevel:
    def test_coerce_names_and_identity(self):
        assert TraceLevel.coerce("off") is TraceLevel.OFF
        assert TraceLevel.coerce(" Steps ") is TraceLevel.STEPS
        assert TraceLevel.coerce("COMM") is TraceLevel.COMM
        assert TraceLevel.coerce(TraceLevel.COMM) is TraceLevel.COMM

    def test_coerce_rejects_unknown(self):
        with pytest.raises(ValueError, match="off|steps|comm"):
            TraceLevel.coerce("verbose")

    def test_levels_order(self):
        assert TraceLevel.OFF < TraceLevel.STEPS < TraceLevel.COMM
        assert not Tracer("steps").wants_comm
        assert Tracer("comm").wants_comm
        assert Tracer("steps").enabled and Tracer("comm").enabled


# ---------------------------------------------------------------------------
# MetricsRegistry
# ---------------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_gauge_histogram_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("messages", tag="srs").inc(2)
        registry.counter("messages", tag="srs").inc()
        registry.counter("messages", tag="sag").inc()
        registry.gauge("k").set(40)
        registry.histogram("size").observe(4.0)
        registry.histogram("size").observe(8.0)
        snap = registry.snapshot()
        assert snap["messages{tag=srs}"] == 3.0
        assert snap["messages{tag=sag}"] == 1.0
        assert snap["k"] == 40.0
        assert snap["size"]["count"] == 2
        assert snap["size"]["mean"] == pytest.approx(6.0)
        assert snap["size"]["min"] == 4.0 and snap["size"]["max"] == 8.0

    def test_labels_are_order_insensitive(self):
        registry = MetricsRegistry()
        registry.counter("m", a=1, b=2).inc()
        registry.counter("m", b=2, a=1).inc()
        assert registry.snapshot()["m{a=1,b=2}"] == 2.0

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        with pytest.raises(ValueError, match="x"):
            registry.gauge("x")

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_summary_table_lists_every_series(self):
        registry = MetricsRegistry()
        registry.counter("alpha").inc()
        registry.histogram("beta").observe(1.0)
        table = registry.summary_table()
        assert "alpha" in table and "beta" in table


# ---------------------------------------------------------------------------
# Tracer + Chrome export + validation
# ---------------------------------------------------------------------------
class TestTracer:
    def test_span_nesting_records_children_first(self):
        tracer = Tracer("steps")
        with tracer.span("outer", "iteration"):
            with tracer.span("inner", "stage"):
                tracer.instant("mark", "retry")
        names = [event.name for event in tracer.events]
        assert names == ["mark", "inner", "outer"]
        outer = tracer.events[2]
        inner = tracer.events[1]
        assert outer.ts <= inner.ts
        assert inner.ts + inner.dur <= outer.ts + outer.dur + 0.5

    def test_export_validates_and_round_trips(self, tmp_path):
        tracer = Tracer("comm")
        with tracer.span("step", "iteration"):
            tracer.record_message(0, 1, 16.0, "srs")
        path = tmp_path / "trace.json"
        document = tracer.export_chrome(path)
        assert json.loads(path.read_text()) == document
        for source in (path, document, path.read_text()):
            info = validate_chrome_trace(source)
            assert info["spans"] == 1 and info["instants"] == 1
            assert info["categories"] == ["iteration", "message"]
            assert info["pids"] == [DRIVER_PID]

    def test_export_includes_track_metadata(self):
        tracer = Tracer("steps")
        tracer.instant("m", "membership")
        events = tracer.export_chrome()["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        assert meta and meta[0]["args"]["name"] == "driver (wall clock)"

    def test_record_message_levels(self):
        steps = Tracer("steps")
        steps.record_message(0, 1, 4.0, "srs")
        assert len(steps) == 0  # counters only below comm level
        assert steps.snapshot()["messages_total{tag=srs}"] == 1.0
        comm = Tracer("comm")
        comm.record_message(0, 1, 4.0, "srs")
        assert [e.cat for e in comm.events] == ["message"]
        assert comm.events[0].args["size"] == 4.0

    def test_merge_stream_adds_foreign_track(self):
        tracer = Tracer("comm")
        merged = tracer.merge_stream(worker_pid(1), [
            {"name": "exchange", "cat": "worker", "ph": "X",
             "ts": 10.0, "dur": 5.0}], name="mp worker 1")
        assert merged == 1
        document = tracer.export_chrome()
        assert validate_chrome_trace(document)["pids"] == [worker_pid(1)]
        names = {e["pid"]: e["args"]["name"]
                 for e in document["traceEvents"] if e["ph"] == "M"}
        assert names[worker_pid(1)] == "mp worker 1"

    def test_validate_rejects_malformed_documents(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({"traceEvents": []})
        with pytest.raises(ValueError, match="malformed"):
            validate_chrome_trace({"traceEvents": [{"ph": "X"}]})
        with pytest.raises(ValueError, match="negative"):
            validate_chrome_trace({"traceEvents": [
                {"name": "a", "ph": "i", "ts": -5.0}]})
        # Overlapping-but-not-nested spans on one track are a violation.
        with pytest.raises(ValueError, match="nest"):
            validate_chrome_trace({"traceEvents": [
                {"name": "a", "cat": "c", "ph": "X", "ts": 0.0, "dur": 10.0},
                {"name": "b", "cat": "c", "ph": "X", "ts": 5.0, "dur": 10.0},
            ]})
        # The same two spans on different tracks are fine.
        info = validate_chrome_trace({"traceEvents": [
            {"name": "a", "cat": "c", "ph": "X", "ts": 0.0, "dur": 10.0,
             "tid": 0},
            {"name": "b", "cat": "c", "ph": "X", "ts": 5.0, "dur": 10.0,
             "tid": 1},
        ]})
        assert info["spans"] == 2

    def test_close_is_idempotent_and_runs_collectors(self):
        tracer = Tracer("steps")
        calls = []
        tracer.add_collector(lambda: calls.append(1))
        tracer.close()
        tracer.close()
        assert calls == [1]


# ---------------------------------------------------------------------------
# pipeline wiring: stage spans, facade key, trace=off bit-identity
# ---------------------------------------------------------------------------
class TestPipelineTracing:
    def test_traced_step_emits_stage_and_step_spans(self):
        sync = make("spardl?density=0.02&trace=steps", SimulatedCluster(4),
                    num_elements=400)
        session = SyncSession(sync)
        session.step(grads_for(sync.cluster, 400))
        stage_names = [e.name for e in sync.tracer.events if e.cat == "stage"]
        assert stage_names == ["select", "compress", "exchange", "combine",
                               "residual_update"]
        step = [e for e in sync.tracer.events if e.cat == "iteration"]
        assert len(step) == 1 and step[0].args["k"] == 8
        snap = sync.tracer.snapshot()
        assert snap["steps_total{method=SparDL(k/n=0.02)}"] == 1.0
        assert snap["resolved_k"] == 8.0
        # steps level records no per-message instants, but counts them.
        assert not any(e.cat == "message" for e in sync.tracer.events)
        assert any(key.startswith("messages_total{") for key in snap)

    def test_selection_health_gauges_sum_over_the_buckets(self):
        """``select.warm_share`` / ``select.candidates_per_k`` are read off a
        traced run: every bucket's selector publishes into the one registry,
        and an untraced run has no registry to publish to."""
        from repro.nn.models import build_mlp
        model = build_mlp(40, [32], 8, seed=0)
        n = sum(p.size for p in model.parameters())
        rng = np.random.default_rng(0)
        base = {rank: rng.standard_normal(n) ** 3 for rank in range(4)}
        syncs = {}
        for trace in ("steps", "off"):
            # (two planned buckets, two selectors)
            sync = syncs[trace] = make(
                f"spardl?density=0.05&buckets=auto&trace={trace}",
                SimulatedCluster(4), model=model,
                compute_profile=ComputeProfile(0.13, 35.2e6))
            for step in range(4):
                sync.synchronize({rank: (1.0 + 0.1 * step) * grad
                                  for rank, grad in base.items()})
        selectors = [s.synchronizer.selector for s in syncs["steps"].sessions]
        assert len(selectors) == 2
        hits = sum(s.hits for s in selectors)
        misses = sum(s.misses for s in selectors)
        assert hits and misses
        snap = syncs["steps"].tracer.snapshot()
        assert (snap["select.hits"], snap["select.misses"]) == (hits, misses)
        assert snap["select.warm_share"] == hits / (hits + misses)
        assert snap["select.candidates_per_k"] == (
            sum(s.candidates for s in selectors) / sum(s.requested for s in selectors))
        assert syncs["off"].tracer is None
        untraced = [s.synchronizer.selector for s in syncs["off"].sessions]
        assert [(s.hits, s.misses) for s in untraced] == [
            (s.hits, s.misses) for s in selectors]

    def test_comm_level_message_instants_carry_wire_sizes(self):
        sync = make("spardl?density=0.02&trace=comm", SimulatedCluster(4),
                    num_elements=400)
        session = SyncSession(sync)
        result = session.step(grads_for(sync.cluster, 400))
        messages = [e for e in sync.tracer.events if e.cat == "message"]
        assert len(messages) == result.stats.total_messages
        assert sum(e.args["size"] for e in messages) == pytest.approx(
            result.stats.total_volume)

    def test_bucketed_sessions_get_labelled_nested_spans(self, tmp_path):
        from repro.nn.models import build_mlp
        model = build_mlp(20, [16], 4, seed=0)
        # two planned buckets, two exchanges
        sync = make("spardl?density=0.05&buckets=auto&trace=steps",
                    SimulatedCluster(4), model=model,
                    compute_profile=ComputeProfile(0.13, 35.2e6))
        session = SyncSession(sync)
        n = model.num_parameters()
        session.step(grads_for(sync.cluster, n))
        labels = {e.name for e in sync.tracer.events if e.cat == "iteration"}
        # One outer step span plus one labelled span per planned bucket.
        assert len(sync.sessions) == sync.num_buckets == 2
        assert labels == {"step"} | {f"step:g{index}" for index in range(2)}
        # Layers that share an exchange are one SparDL: one step span.
        fused = make("spardl?density=0.05&buckets=layer&trace=steps",
                     SimulatedCluster(4), model=model)
        SyncSession(fused).step(grads_for(fused.cluster, n))
        assert {e.name for e in fused.tracer.events
                if e.cat == "iteration"} == {"step"}
        # The whole timeline still nests properly.
        validate_chrome_trace(sync.tracer.export_chrome(tmp_path / "t.json"))

    def test_spec_round_trips_and_rejects_bad_levels(self):
        assert parse_spec("spardl?density=0.01&trace=comm").trace == "comm"
        assert "trace=comm" in parse_spec("spardl?density=0.01&trace=COMM").canonical()
        assert "trace" not in parse_spec("spardl?density=0.01&trace=off").canonical()
        with pytest.raises(ValueError, match="trace level"):
            parse_spec("spardl?trace=loud")
        sync = make("spardl?density=0.02&trace=steps", SimulatedCluster(4),
                    num_elements=400)
        assert describe(sync) == "spardl?density=0.02&trace=steps"

    def test_trace_off_builds_no_tracer(self):
        sync = make("spardl?density=0.02", SimulatedCluster(4), num_elements=400)
        assert sync.tracer is None
        assert sync.cluster.tracer is None
        assert SyncSession(sync).tracer is None

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_traced_runs_are_bit_identical_to_untraced(self, method):
        """trace=comm must observe without participating: gradients,
        residual stores and CommStats match the untraced run bit for bit,
        for SparDL and every baseline."""
        n = 400
        spec = f"{method}?density=0.05" if method != "dense" else "dense"
        runs = {}
        for trace in ("off", "comm"):
            cluster = SimulatedCluster(4)
            suffix = "" if trace == "off" else (
                "&trace=comm" if "?" in spec else "?trace=comm")
            sync = make(spec + suffix, cluster, num_elements=n)
            session = SyncSession(sync)
            results = [session.step(grads_for(cluster, n, step))
                       for step in range(3)]
            residuals = getattr(sync, "residuals", None)
            runs[trace] = (results, session.cumulative_stats,
                           None if residuals is None
                           else residuals.total_residual())
        off_results, off_stats, off_residual = runs["off"]
        comm_results, comm_stats, comm_residual = runs["comm"]
        for off, comm in zip(off_results, comm_results):
            for rank in off.global_gradients:
                np.testing.assert_array_equal(off.global_gradients[rank],
                                              comm.global_gradients[rank])
        assert off_stats.rounds == comm_stats.rounds
        assert off_stats.total_messages == comm_stats.total_messages
        assert off_stats.received_per_worker == comm_stats.received_per_worker
        assert off_stats.per_round_received == comm_stats.per_round_received
        if off_residual is not None:
            np.testing.assert_array_equal(off_residual, comm_residual)


# ---------------------------------------------------------------------------
# hook hardening (satellite): raising hooks are contained
# ---------------------------------------------------------------------------
class TestStageHookHardening:
    def _session(self, trace="off"):
        spec = "spardl?density=0.02" + ("" if trace == "off"
                                        else f"&trace={trace}")
        sync = make(spec, SimulatedCluster(4), num_elements=400)
        return SyncSession(sync)

    def test_raising_hook_is_contained_counted_and_warned_once(self):
        session = self._session()
        seen = []

        def bad_hook(stage, context):
            seen.append(stage)
            raise RuntimeError("observer exploded")

        session.add_stage_hook(bad_hook)
        with pytest.warns(RuntimeWarning, match="observer exploded"):
            result = session.step(grads_for(session.synchronizer.cluster, 400))
        assert result.is_consistent
        assert session.hook_errors == 5  # one per stage
        assert len(seen) == 5
        # Second step: errors keep counting, but no second warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            session.step(grads_for(session.synchronizer.cluster, 400, step=1))
        assert session.hook_errors == 10
        assert session.summary()["hook_errors"] == 10

    def test_raising_hook_does_not_poison_later_hooks(self):
        session = self._session()
        calls = []
        session.add_stage_hook(lambda stage, ctx: (_ for _ in ()).throw(ValueError))
        session.add_stage_hook(lambda stage, ctx: calls.append(stage))
        with pytest.warns(RuntimeWarning):
            session.step(grads_for(session.synchronizer.cluster, 400))
        assert len(calls) == 5

    def test_hook_errors_metric_counts_under_tracing(self):
        session = self._session(trace="steps")
        session.add_stage_hook(lambda stage, ctx: (_ for _ in ()).throw(ValueError))
        with pytest.warns(RuntimeWarning):
            session.step(grads_for(session.synchronizer.cluster, 400))
        assert session.tracer.snapshot()["hook_errors"] == 5.0

    def test_result_matches_hookless_run_bitwise(self):
        clean = self._session()
        hooked = self._session()
        hooked.add_stage_hook(lambda stage, ctx: (_ for _ in ()).throw(OSError))
        reference = clean.step(grads_for(clean.synchronizer.cluster, 400))
        with pytest.warns(RuntimeWarning):
            damaged = hooked.step(grads_for(hooked.synchronizer.cluster, 400))
        np.testing.assert_array_equal(reference.gradient(0), damaged.gradient(0))


# ---------------------------------------------------------------------------
# fault and membership markers
# ---------------------------------------------------------------------------
class TestFaultAndMembershipMarkers:
    def test_drop_plan_emits_retry_markers_at_comm_level(self):
        cluster = SimulatedCluster(4)
        cluster.install_fault_plan(FaultPlan(seed=3, drop_rate=0.3))
        sync = make("spardl?density=0.05&trace=comm", cluster, num_elements=400)
        session = SyncSession(sync)
        for step in range(3):
            session.step(grads_for(cluster, 400, step))
        kinds = {e.name for e in sync.tracer.events if e.cat == "retry"}
        assert "drop" in kinds and "retry" in kinds
        snap = sync.tracer.snapshot()
        assert snap["fault_events_total{kind=drop}"] >= 1
        assert snap["fault_events_total{kind=drop}"] == float(
            session.cumulative_stats.dropped_messages)

    def test_steps_level_counts_faults_without_markers(self):
        cluster = SimulatedCluster(4)
        cluster.install_fault_plan(FaultPlan(seed=3, drop_rate=0.3))
        sync = make("spardl?density=0.05&trace=steps", cluster, num_elements=400)
        SyncSession(sync).step(grads_for(cluster, 400))
        assert not any(e.cat == "retry" for e in sync.tracer.events)
        assert any(key.startswith("fault_events_total{")
                   for key in sync.tracer.snapshot())

    def test_membership_transitions_emit_instants(self):
        cluster = SimulatedCluster(4)
        cluster.install_fault_plan(FaultPlan(events=(
            MembershipEvent(1, "crash", worker=2), MembershipEvent(2, "join"))))
        sync = make("spardl?density=0.05&trace=steps", cluster, num_elements=300)
        session = SyncSession(sync)
        for step in range(3):
            session.poll_membership()
            session.step(grads_for(cluster, 300, step))
        marks = [e for e in sync.tracer.events if e.cat == "membership"]
        assert [(e.name, e.args["old_workers"], e.args["new_workers"])
                for e in marks] == [("crash", 4, 3), ("join", 3, 4)]
        snap = sync.tracer.snapshot()
        assert snap["membership_events_total{kind=crash}"] == 1.0
        assert snap["membership_events_total{kind=join}"] == 1.0


# ---------------------------------------------------------------------------
# trainer wiring + overlap replay
# ---------------------------------------------------------------------------
def _build_trainer(trace="off", spec="spardl?density=0.05", **config_kwargs):
    from repro.training.cases import get_case
    from repro.training.trainer import DistributedTrainer, TrainerConfig

    case = get_case(5)
    train, test = case.build_datasets(num_samples=32, seed=0)
    return DistributedTrainer(
        SimulatedCluster(4), make_factory(spec), case.build_model, train, test,
        config=TrainerConfig(batch_size=8, seed=0, trace=trace, **config_kwargs),
        compute_profile=case.compute_profile,
    )


class TestTrainerTracing:
    def test_trace_off_keeps_trainer_untouched(self):
        trainer = _build_trainer("off")
        assert trainer.tracer is None
        assert trainer.session.tracer is None

    def test_trainer_builds_tracer_and_emits_epoch_iteration_spans(self, tmp_path):
        trainer = _build_trainer("steps")
        assert trainer.tracer is not None
        trainer.train(1)
        cats = {e.cat for e in trainer.tracer.events}
        assert {"iteration", "stage", "compute", "overlap"} <= cats
        names = {e.name for e in trainer.tracer.events if e.cat == "iteration"}
        assert "epoch 0" in names and "iteration" in names and "step" in names
        validate_chrome_trace(trainer.tracer.export_chrome(tmp_path / "t.json"))

    def test_spec_tracer_is_adopted_not_replaced(self):
        trainer = _build_trainer("off", spec="spardl?density=0.05&trace=comm")
        assert trainer.tracer is trainer.synchronizer.tracer
        assert trainer.tracer.wants_comm

    @pytest.mark.parametrize("spec,hides", [
        # layers sharing one exchange: it starts when the last backward
        # slice ends, so nothing is hidden (and nothing negative either)
        ("spardl?density=0.05&buckets=layer", False),
        # planned buckets exchange one by one behind the backward pass
        ("spardl?density=0.05&buckets=auto", True),
    ])
    def test_overlap_replay_renders_hidden_and_exposed_comm(self, spec, hides):
        trainer = _build_trainer("steps", spec=spec)
        history = trainer.train(1)
        sim = [e for e in trainer.tracer.events if e.pid == SIM_PID]
        assert sim, "the simulated timeline must be replayed onto SIM_PID"
        kinds = {e.args.get("kind") for e in sim if e.ph == "X"}
        assert "backward" in kinds
        hidden = sum(e.dur for e in sim if e.args.get("kind") == "hidden") / 1e6
        assert (hidden > 0) == hides
        assert hidden == pytest.approx(history.total_hidden_comm_time, rel=1e-6)
        snap = trainer.tracer.snapshot()
        assert snap["sim_hidden_comm_s"] == pytest.approx(
            history.total_hidden_comm_time)
        assert snap["sim_iteration_s"]["sum"] == pytest.approx(
            history.total_time)

    def test_traced_training_is_bit_identical_and_counts_every_message(self):
        """trace=comm observes a training run without taking part: final
        parameters, per-iteration losses and CommStats equal the untraced
        run's, and the tracer counts every message CommStats records."""
        runs = []
        for trace in ("off", "comm"):
            trainer = case5_trainer("spardl?density=0.02", trace=trace)
            history = trainer.train(1)
            stats = trainer.session.cumulative_stats
            runs.append((flatten_values(trainer.replicas[0].parameters()),
                         [record.loss for record in history.iterations],
                         (stats.rounds, stats.total_messages, stats.total_volume)))
        (params, losses, stats), (traced_params, traced_losses, traced_stats) = runs
        np.testing.assert_array_equal(params, traced_params)
        assert losses == traced_losses and stats == traced_stats
        counted = sum(value for key, value in trainer.tracer.snapshot().items()
                      if key.startswith("messages_total{"))
        assert counted == stats[1]

    def test_faulty_bucketed_overlapped_training_exports_every_category(self, tmp_path):
        cluster = SimulatedCluster(4)
        cluster.install_fault_plan(FaultPlan(seed=9, drop_rate=0.25))
        trainer = case5_trainer("spardl?density=0.02&buckets=auto", cluster=cluster,
                                trace="comm")
        trainer.train(1)
        info = validate_chrome_trace(trainer.tracer.export_chrome(tmp_path / "t.json"))
        assert {"stage", "message", "retry", "iteration", "overlap"} <= set(info["categories"])
        assert info["spans"] > 0 and info["instants"] > 0

    def test_sim_track_spans_nest(self, tmp_path):
        trainer = _build_trainer("steps",
                                 spec="spardl?density=0.05&buckets=layer")
        trainer.train(1)
        info = validate_chrome_trace(trainer.tracer.export_chrome(
            tmp_path / "sim.json"))
        assert SIM_PID in info["pids"]


# ---------------------------------------------------------------------------
# replay unit behaviour (no trainer needed)
# ---------------------------------------------------------------------------
class TestReplayUnit:
    def test_flat_timing_renders_sequential_compute_then_comm(self):
        from repro.training.timing import IterationTiming

        tracer = Tracer("steps")
        timing = IterationTiming(compute_time=2.0, communication_time=1.0)
        replay_iteration_timing(tracer, timing, iteration=0)
        spans = [e for e in tracer.events if e.ph == "X"]
        assert [e.name for e in spans] == ["compute", "comm (exposed)"]
        assert spans[0].dur == pytest.approx(2e6)
        assert spans[1].ts == pytest.approx(spans[0].ts + spans[0].dur)
        assert tracer.sim_cursor_us == pytest.approx(3e6)

    def test_disabled_tracer_is_noop(self):
        from repro.training.timing import IterationTiming

        timing = IterationTiming(compute_time=1.0, communication_time=1.0)
        replay_iteration_timing(None, timing, iteration=0)  # must not raise


# ---------------------------------------------------------------------------
# multiprocess backend: per-rank streams
# ---------------------------------------------------------------------------
def _rank_task(context, rank):
    return rank


class TestMultiprocessStreams:
    def test_mp_trace_merges_worker_streams(self, tmp_path):
        sync = make("spardl?density=0.05&backend=mp:2&trace=comm",
                    num_elements=600)
        try:
            session = SyncSession(sync)
            for step in range(2):
                session.step(grads_for(sync.cluster, 600, step))
                sync.cluster.run_workers(_rank_task)
        finally:
            sync.cluster.close()
        document = sync.tracer.export_chrome(tmp_path / "mp.json")
        info = validate_chrome_trace(document)
        assert worker_pid(0) in info["pids"] and worker_pid(1) in info["pids"]
        for rank in range(2):
            worker_events = [e for e in document["traceEvents"]
                             if e.get("pid") == worker_pid(rank)
                             and e.get("ph") == "X"]
            # Workers run tasks, never messages: synchronisation is the
            # driver's, so their streams hold only run:* spans.
            assert [e["name"] for e in worker_events] == ["run:_rank_task"] * 2
            assert all(e["ts"] >= 0 for e in worker_events)

    def test_mp_trace_off_runs_untraced(self):
        sync = make("spardl?density=0.05&backend=mp:2", num_elements=600)
        try:
            assert sync.tracer is None
            result = SyncSession(sync).step(grads_for(sync.cluster, 600))
            assert result.is_consistent
        finally:
            sync.cluster.close()
