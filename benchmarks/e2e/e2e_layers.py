"""Per-layer attribution from outside the program.

The traced round records spans from the benchmark's own files only: stage
hooks (``SyncSession.add_stage_hook``) and instance-level timing wrappers
around public methods of the layers (``ResidualManager``,
``CompressorStack``, the transport).  Every span carries its name, start,
end, parent and step index; a layer's self time is its span minus the
part its child spans cover.  Nothing is added inside ``src/``.

Layer names are the repository's modules: ``pipeline``, ``residuals``,
``srs``/``sag``, ``sparse``, ``compression``, ``bucketed``, ``comm``,
``training``, ``obs``/``api``.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Sequence

import numpy as np

from repro.comm.packed import PackedBags
from repro.comm.transport import payload_size
from repro.core.pipeline import PIPELINE_STAGES, SyncStage
from repro.core.spardl import SparDLSynchronizer
from repro.obs import validate_chrome_trace
from repro.sparse.topk import top_k_indices
from repro.sparse.vector import SparseGradient, compiled_kernels_available

#: Chrome-trace track of the benchmark's own spans (0/1 and 1000+ are the
#: tracer's driver, simulated-timeline and worker tracks).
BENCH_PID = 2

#: Every per-layer metric and its unit.  BENCHMARK.json lists the same names.
PER_LAYER_UNITS = {
    "pipeline.select_ms": "ms", "pipeline.compress_ms": "ms",
    "pipeline.exchange_ms": "ms", "pipeline.combine_ms": "ms",
    "pipeline.residual_update_ms": "ms", "pipeline.driver_ms": "ms",
    "pipeline.step_ms_raw_p50": "ms", "pipeline.step_ms_raw_p90": "ms",
    "residuals.apply_ms": "ms", "residuals.collect_ms": "ms",
    "residuals.finalize_ms": "ms", "residuals.calls_per_step": "count",
    "srs.compute_ms": "ms", "srs.steps": "count", "srs.max_bag_nnz": "count",
    "sag.steps": "count", "sag.merged_nnz_mean": "count",
    "sparse.topk_ms": "ms", "sparse.merge_many_ms": "ms",
    "sparse.to_dense_ms": "ms", "sparse.pack_ms": "ms",
    "sparse.final_nnz": "count", "sparse.achieved_density": "ratio",
    "sparse.kernels_compiled": "count",
    "compression.compress_ms": "ms", "compression.calls_per_step": "count",
    "compression.volume_ratio": "ratio",
    "bucketed.buckets": "count", "bucketed.glue_ms": "ms",
    "bucketed.per_bucket_ms": "ms",
    "comm.exchange_ms": "ms", "comm.exchange_calls_per_step": "count",
    "comm.messages_per_step": "count", "comm.max_received_per_step": "elements",
    "comm.run_workers_ms": "ms", "comm.collectives_ms": "ms",
    "comm.wall_over_sim": "ratio", "comm.worker_rss_mb": "MB",
    "training.compute_ms": "ms", "training.sync_ms": "ms",
    "training.apply_update_ms": "ms", "training.sync_share": "ratio",
    "training.worker_compute_ms": "ms", "training.offload_overhead_ms": "ms",
    "obs.trace_overhead_pct": "%", "obs.events_per_step": "count",
    "api.make_ms": "ms", "api.construct_ms": "ms",
}

_RESIDUAL_METHODS = ("apply", "collect_local", "collect_local_sparse",
                     "collect_procedure", "finalize")
_COMPRESS_METHODS = ("compress_sparse", "compress_dense")


def topk_overlap(vectors: Dict[int, np.ndarray], k: int) -> float:
    """Mean share of top-``k`` indices two neighbouring workers have in
    common (over the first four workers)."""
    tops = []
    for rank in sorted(vectors)[:4]:
        magnitude = np.abs(vectors[rank])
        tops.append(np.argpartition(magnitude, magnitude.size - k)[-k:])
    shares = [np.intersect1d(a, b).size / k for a, b in zip(tops, tops[1:])]
    return float(np.mean(shares))


class SelectionOverlap:
    """How much the workers' top-k index sets agree, measured where the
    program selects: after every ``select`` stage, on the raw gradients and
    on the vectors the top-k is taken from (gradient + residual
    (+ velocity)).  SRS/SAG merge sizes depend on it, so the synthetic
    gradient pools are calibrated to what the training workloads show
    (``e2e_workloads.SHARED_WEIGHT``).  Attached to the untimed
    verification round only: the arg-partitions cost as much as a step."""

    def __init__(self, session: Any) -> None:
        self.gradients = self.selections = 0.0
        self.weight = 0
        inner = getattr(session.synchronizer, "sessions", None)
        for stage_session in inner if inner is not None else [session]:
            stage_session.add_stage_hook(self._after_stage)

    def _after_stage(self, stage: SyncStage, context: Any) -> None:
        k = context.k
        if stage is SyncStage.SELECT and k is not None:
            self.gradients += k * topk_overlap(context.gradients, k)
            self.selections += k * topk_overlap(context.selected, k)
            self.weight += k

    def shape(self) -> Dict[str, Any]:
        """Means over the round, weighted by ``k`` (0 for a dense method)."""
        weight = max(self.weight, 1)
        return {"gradient_overlap": self.gradients / weight,
                "selection_overlap": self.selections / weight,
                "overlap_source": "top-k index sets of neighbouring workers "
                                  "at the select stage, verification round"}


class Spans:
    """In-memory span log.  A row is
    ``[name, step, parent_row, start_s, end_s, tag]``; the open-span stack
    gives every new span its parent."""

    def __init__(self) -> None:
        self.rows: List[list] = []
        self.stack: List[int] = []
        #: Index of the step (iteration interval) new spans belong to.
        self.step = -1

    def open(self, name: str, tag: str = "") -> None:
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(len(self.rows))
        self.rows.append([name, self.step, parent, time.perf_counter(), 0.0, tag])

    def close(self) -> None:
        self.rows[self.stack.pop()][4] = time.perf_counter()

    def wrap(self, owner: Any, attribute: str, name: str) -> None:
        """Shadow ``owner.attribute`` with an instance-level timing wrapper."""
        inner = getattr(owner, attribute)
        rows, stack, clock = self.rows, self.stack, time.perf_counter

        def timed(*args, **kwargs):
            row = [name, self.step, stack[-1] if stack else -1, clock(), 0.0, ""]
            stack.append(len(rows))
            rows.append(row)
            try:
                return inner(*args, **kwargs)
            finally:
                row[4] = clock()
                stack.pop()

        setattr(owner, attribute, timed)


class SessionSpans:
    """Step and stage spans of one ``SyncSession``, plus the inputs the
    sparse-kernel probes replay (references to the last step's context)."""

    def __init__(self, spans: Spans, session: Any, stages: bool = True) -> None:
        """``stages=False`` is the outer session of a bucketed synchroniser:
        its stage hooks never fire, the buckets' sessions run the stages."""
        self.spans = spans
        self.synchronizer = session.synchronizer
        self.tag = ("sparse" if isinstance(self.synchronizer, SparDLSynchronizer)
                    else "dense")
        self.selected = self.exchanged = self.global_sparse = None
        inner = session.step
        first = PIPELINE_STAGES[0].value
        step_name = "pipeline.step" if stages else "bucketed.step"

        def step(gradients):
            depth = len(spans.stack)
            spans.open(step_name)
            if stages:
                spans.open(f"pipeline.{first}", self.tag)
            try:
                return inner(gradients)
            finally:
                while len(spans.stack) > depth:
                    spans.close()

        session.step = step
        if stages:
            session.add_stage_hook(self._after_stage)

    def _after_stage(self, stage: SyncStage, context: Any) -> None:
        spans = self.spans
        spans.close()
        if stage is SyncStage.SELECT:
            self.selected = context.selected
        elif stage is SyncStage.COMBINE:
            self.exchanged = context.exchanged
            self.global_sparse = context.global_sparse
        position = PIPELINE_STAGES.index(stage) + 1
        if position < len(PIPELINE_STAGES):
            spans.open(f"pipeline.{PIPELINE_STAGES[position].value}", self.tag)


class LayerProbe:
    """All spans of one traced round: wires the wrappers onto a freshly
    constructed program and turns the log into per-step layer series."""

    def __init__(self, live: Any) -> None:
        self.spans = Spans()
        self.live = live
        self.full_volume: Dict[int, float] = defaultdict(float)
        self.billed_volume: Dict[int, float] = defaultdict(float)
        outer = live.session
        inner_sessions = getattr(outer.synchronizer, "sessions", None)
        if inner_sessions is None:
            self.sessions = [SessionSpans(self.spans, outer)]
        else:
            self.sessions = [SessionSpans(self.spans, session)
                             for session in inner_sessions]
            SessionSpans(self.spans, outer, stages=False)
        for tracked in self.sessions:
            sync = tracked.synchronizer
            residuals = getattr(sync, "residuals", None)
            if residuals is not None:
                for method in _RESIDUAL_METHODS:
                    self.spans.wrap(residuals, method, f"residuals.{method}")
            if sync.stack is not None:
                for method in _COMPRESS_METHODS:
                    self.spans.wrap(sync.stack, method, f"compression.{method}")
        self.spans.wrap(live.cluster, "run_workers", "comm.run_workers")
        self._wrap_exchange(live.cluster)

    def _wrap_exchange(self, cluster: Any) -> None:
        """Time ``exchange`` and, outside the timed span, compare what the
        transport billed with the full-precision size of the payloads."""
        self.spans.wrap(cluster, "exchange", "comm.exchange")
        timed = cluster.exchange

        def exchange(messages):
            messages = list(messages)
            step = self.spans.step
            self.full_volume[step] += sum(payload_size(m.payload) for m in messages)
            inboxes = timed(messages)
            self.billed_volume[step] += sum(m.size for m in messages)
            return inboxes

        cluster.exchange = exchange

    # ------------------------------------------------------------------
    def series(self, steps: int) -> Dict[str, List[float]]:
        """Per-step series (ms or counts) of every span-derived metric."""
        rows = self.spans.rows
        covered = [0.0] * len(rows)
        for _, _, parent, start, end, _ in rows:
            if parent >= 0:
                covered[parent] += end - start
        total: Dict[str, List[float]] = defaultdict(lambda: [0.0] * steps)
        own: Dict[str, List[float]] = defaultdict(lambda: [0.0] * steps)
        count: Dict[str, List[float]] = defaultdict(lambda: [0.0] * steps)
        for index, (name, step, _, start, end, tag) in enumerate(rows):
            if 0 <= step < steps:
                duration = (end - start) * 1e3
                total[name][step] += duration
                # The exchange stage's self time belongs to SRS/SAG on a
                # sparse method and to the dense collectives otherwise.
                key = f"{name}:{tag}" if name == "pipeline.exchange" else name
                own[key][step] += duration - covered[index] * 1e3
                count[name][step] += 1

        def summed(table, keys):
            return [sum(values) for values in
                    zip(*(table[key] for key in keys))]

        out = {f"pipeline.{stage.value}_ms": total[f"pipeline.{stage.value}"]
               for stage in PIPELINE_STAGES}
        out["pipeline.driver_ms"] = own["pipeline.step"]
        out["residuals.apply_ms"] = total["residuals.apply"]
        collects = ["residuals.collect_local", "residuals.collect_local_sparse",
                    "residuals.collect_procedure"]
        out["residuals.collect_ms"] = summed(total, collects)
        out["residuals.finalize_ms"] = total["residuals.finalize"]
        out["residuals.calls_per_step"] = summed(
            count, [f"residuals.{method}" for method in _RESIDUAL_METHODS])
        out["srs.compute_ms"] = own["pipeline.exchange:sparse"]
        out["comm.collectives_ms"] = own["pipeline.exchange:dense"]
        compress = [f"compression.{method}" for method in _COMPRESS_METHODS]
        out["compression.compress_ms"] = summed(total, compress)
        out["compression.calls_per_step"] = summed(count, compress)
        out["compression.volume_ratio"] = [
            self.billed_volume[step] / self.full_volume[step]
            if self.full_volume[step] else 1.0 for step in range(steps)]
        out["comm.exchange_ms"] = total["comm.exchange"]
        out["comm.exchange_calls_per_step"] = count["comm.exchange"]
        out["comm.run_workers_ms"] = total["comm.run_workers"]
        bucketed = "bucketed.step" in total
        out["bucketed.buckets"] = count["pipeline.step"] if bucketed else [0.0] * steps
        out["bucketed.glue_ms"] = own["bucketed.step"]
        out["bucketed.per_bucket_ms"] = [
            spent / calls if bucketed and calls else 0.0
            for spent, calls in zip(total["pipeline.step"], count["pipeline.step"])]
        return out

    # ------------------------------------------------------------------
    def kernel_probes(self) -> Dict[str, float]:
        """Time the sparse kernels alone on the inputs captured from the
        workload's own last step (best of three, summed over sessions)."""
        timings = {"sparse.topk_ms": 0.0, "sparse.merge_many_ms": 0.0,
                   "sparse.to_dense_ms": 0.0, "sparse.pack_ms": 0.0}
        for tracked in self.sessions:
            sync = tracked.synchronizer
            if tracked.global_sparse is None or tracked.tag != "sparse":
                continue  # dense method, or a dense-fallback step
            bounds = [(lo, hi) for _, lo, hi in sync.layout.iter_blocks()]
            dense = list(tracked.selected.values())
            gathered = [[tracked.exchanged[rank] for rank in team]
                        for team in sync.teams for _ in team]
            finals = list(tracked.global_sparse.values())
            timings["sparse.topk_ms"] += _best_ms(lambda: [
                top_k_indices(vector[lo:hi], sync.k_block)
                for vector in dense for lo, hi in bounds])
            timings["sparse.merge_many_ms"] += _best_ms(lambda: [
                SparseGradient.merge_many(blocks) for blocks in gathered])
            timings["sparse.to_dense_ms"] += _best_ms(lambda: [
                sparse.to_dense() for sparse in finals])
            timings["sparse.pack_ms"] += _best_ms(lambda: [
                PackedBags.pack(blocks).to_list() for blocks in gathered])
        timings["sparse.kernels_compiled"] = float(compiled_kernels_available())
        return timings

    # ------------------------------------------------------------------
    def export(self, path: str) -> Dict[str, Any]:
        """Write the tracer's Chrome trace with the benchmark's spans as
        their own track; returns the validation summary (raises
        ``ValueError`` when the trace is not well formed)."""
        tracer = self.live.tracer
        offset_us = tracer.now_us() - time.perf_counter() * 1e6
        rows = self.spans.rows
        events = [{"name": name, "cat": name.split(".")[0], "ph": "X",
                   "ts": start * 1e6 + offset_us, "dur": (end - start) * 1e6,
                   "args": {"step": step,
                            "parent": rows[parent][0] if parent >= 0 else None}}
                  for name, step, parent, start, end, _ in rows]
        tracer.merge_stream(BENCH_PID, events, name="benchmark spans (e2e)")
        return validate_chrome_trace(tracer.export_chrome(path))


def _best_ms(call: Callable[[], Any], repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def trainer_series(tracer: Any, steps: int) -> Dict[str, List[float]]:
    """Per-iteration series from the tracer the trainer ships: its own
    ``compute``/``apply_update`` spans and, on the multiprocess backend,
    the per-rank worker streams."""
    tracer.collect()
    compute = [0.0] * steps
    update = [0.0] * steps
    workers: Dict[int, List[float]] = defaultdict(list)
    for event in sorted(tracer.events, key=lambda ev: ev.ts):
        if event.cat == "compute" and event.name in ("compute", "apply_update"):
            target = compute if event.name == "compute" else update
            iteration = event.args.get("iteration", -1)
            if 0 <= iteration < steps:
                target[iteration] = event.dur / 1e3
        elif event.name == "run:_worker_compute_gradient":
            workers[event.pid].append(event.dur / 1e3)
    slowest = [max(times) for times in zip(*workers.values())] if workers else []
    slowest = (slowest + [0.0] * steps)[:steps]
    return {
        "training.compute_ms": compute,
        "training.apply_update_ms": update,
        "training.worker_compute_ms": slowest,
        "training.offload_overhead_ms": [
            c - w if workers else 0.0 for c, w in zip(compute, slowest)],
    }


def info_series(infos: Sequence[Dict[str, Any]]) -> Dict[str, List[float]]:
    """Per-step algorithm counters from ``SyncResult.info`` (summed over
    the buckets of a bucketed step; bag and merge sizes take the max/mean)."""
    out: Dict[str, List[float]] = defaultdict(list)
    for info in infos:
        parts = info.get("per_bucket_info", [info])
        out["srs.steps"].append(float(sum(p.get("srs_steps", 0) for p in parts)))
        out["srs.max_bag_nnz"].append(float(max(
            (max(p.get("max_bag_nnz_per_step") or [0]) for p in parts), default=0)))
        out["sag.steps"].append(float(sum(p.get("sag_steps", 0) for p in parts)))
        merged = [p["sag_merged_nnz_mean"] for p in parts if "sag_merged_nnz_mean" in p]
        out["sag.merged_nnz_mean"].append(float(np.mean(merged)) if merged else 0.0)
    return out
