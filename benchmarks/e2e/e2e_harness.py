"""Rounds, verification and the noise-filtered statistics of one measuring run.

How a run is shaped
-------------------
One process measures one workload.  Its inputs are a pure function of the
seed, and every *round* constructs the program afresh, so step ``i`` does
bit-identical work in every round.  Round 0 is an untimed **verification
round** (every step checked in full; doubles as warm-up and loads the
compiled kernels), then **timed rounds** repeat for ``--seconds``; with
``--trace 1`` each timed round is followed by a **traced round**.  The
timing statistic is *the mean over step indices of the minimum over
rounds* of that step's wall time — a round's time per step at the host's
quietest: on a shared host the raw median of unchanged code drifts by tens
of percent within the hour and the minima by far less (over the 30 s
windows of a ten-minute recording: +-20% against +-8%).  Rounds are short
(3 to 30 steps), so that a run holds many of them and every step index has
10 to 60 samples to take its minimum from.  (The mean, not the median, over
step indices: the steps of ``dense_ref`` alternate between 22 and 32 ms,
and a median sitting in that gap flips between the modes.)  Closed loop,
one client: a step starts when the previous one returns.  ``gc`` is
disabled while a round's steps run.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.comm.network import ETHERNET

from e2e_layers import (PER_LAYER_UNITS, LayerProbe, SelectionOverlap,
                        info_series, trainer_series)
from e2e_workloads import Inputs, Live, Profile, Workload

#: End-to-end metrics and their units.  BENCHMARK.json lists the same names
#: with their bounds, except ``failed_share``: a metric of the contract is
#: never 0 and this one is 0 on every healthy run, so there the contract's
#: own ``failed``/``attempted`` carry it.  ``final_train_loss`` exists on
#: the training workloads only.
END_TO_END_UNITS = {
    "step_ms": "ms", "sim_step_ms": "sim_ms",
    "wire_elements_per_step": "elements", "rounds_per_step": "rounds",
    "final_train_loss": "loss", "setup_s": "s", "peak_rss_mb": "MB",
}
#: Relative tolerance of the GRES conservation ledger.
LEDGER_TOLERANCE = 1e-9


def filtered(rounds: Sequence[Sequence[float]]) -> float:
    """Mean over step indices of the minimum over rounds."""
    return statistics.fmean(min(column) for column in zip(*rounds))


@dataclass
class Round:
    """Raw record of one round."""

    kind: str
    #: Transport + ``api.make``/trainer construction + worker install.
    construct_s: float
    make_s: float
    #: Start of the construction to the end of the first step.
    setup_s: float
    #: Wall time of every step (training: one full iteration).
    step_s: List[float]
    #: Wall time of ``SyncSession.step`` alone.
    sync_s: List[float]
    digests: List[tuple]
    failed: int
    failures: List[str]
    #: Deterministic per-step means of this round.
    deterministic: Dict[str, float]
    counters: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, List[float]] = field(default_factory=dict)
    probes: Dict[str, float] = field(default_factory=dict)
    #: Measured traffic shape (verification round).
    shape: Dict[str, Any] = field(default_factory=dict)
    trace: Optional[Dict[str, Any]] = None

    def to_json(self) -> Dict[str, Any]:
        return {"kind": self.kind, "construct_s": self.construct_s,
                "make_s": self.make_s, "setup_s": self.setup_s,
                "step_s": self.step_s,
                "sync_s": self.sync_s, "failed": self.failed,
                "failures": self.failures[:5],
                "deterministic": self.deterministic, "trace": self.trace}


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------
def _ledger(sync: Any) -> Optional[tuple]:
    """``(sum of residuals, momentum * sum of velocities)`` held by the
    synchroniser's error-feedback state; ``None`` when it has none."""
    sessions = getattr(sync, "sessions", None)
    if sessions is None:
        residuals = getattr(sync, "residuals", None)
        if residuals is None:
            return None
        return (residuals.total_residual(),
                residuals.momentum * residuals.total_velocity())
    velocity = np.zeros(sync.num_elements)
    for (lo, hi), session in zip(sync.slices, sessions):
        residuals = getattr(session.synchronizer, "residuals", None)
        if residuals is not None:
            velocity[lo:hi] = residuals.momentum * residuals.total_velocity()
    return sync.total_residual(), velocity


def _verify(sync: Any, before: Optional[tuple], gradients: Dict[int, Any],
            result: Any) -> List[str]:
    """Full check of one step: cross-worker consistency and the ledger
    ``global + residual_after == residual_before + m * velocity_before +
    sum of gradients`` (a method without error feedback must return the
    exact sum)."""
    problems = []
    if not result.is_consistent:
        problems.append("workers hold different global gradients")
    expected = np.zeros(sync.num_elements)
    for rank in sorted(gradients):
        expected += gradients[rank]
    delivered = result.gradient(0).copy()
    if before is not None:
        expected += before[0] + before[1]
        delivered += _ledger(sync)[0]
    scale = max(1.0, float(np.max(np.abs(expected))))
    error = float(np.max(np.abs(delivered - expected)))
    if not error <= LEDGER_TOLERANCE * scale:
        problems.append(f"conservation ledger off by {error:.3e}")
    return problems


def _digest(result: Any) -> tuple:
    """Bit-exact fingerprint of one step's outcome."""
    gradient = result.gradient(0)
    stats = result.stats
    return (float(gradient.sum()).hex(), float(gradient @ gradient).hex(),
            result.info.get("final_nnz"), stats.rounds, stats.total_volume)


class Recorder:
    """Instance-level wrapper around ``session.step``: timestamps, digests,
    accounting and (verification round) the full checks."""

    def __init__(self, live: Live, check: bool, probe: Optional[LayerProbe]) -> None:
        self.sync = live.synchronizer
        self.check = check
        self.spans = probe.spans if probe is not None else None
        self.entry: List[float] = []
        self.exit: List[float] = []
        self.digests: List[tuple] = []
        self.results: List[Any] = []
        self.failures: List[str] = []
        self.failed_steps = 0
        self._inner = live.session.step
        live.session.step = self._step

    def _step(self, gradients):
        before = _ledger(self.sync) if self.check else None
        if self.spans is not None:
            self.spans.step = len(self.entry)
        self.entry.append(time.perf_counter())
        result = self._inner(gradients)
        self.exit.append(time.perf_counter())
        self.digests.append(_digest(result))
        self.results.append((result.stats, result.info))
        if self.check:
            problems = _verify(self.sync, before, gradients, result)
            if problems:
                self.failed_steps += 1
                self.failures += [f"step {len(self.exit) - 1}: {p}" for p in problems]
        return result


# ---------------------------------------------------------------------------
# one round
# ---------------------------------------------------------------------------
def run_round(workload: Workload, inputs: Inputs, kind: str,
              reference: Optional[List[tuple]] = None,
              backend: Optional[str] = None,
              trace_path: Optional[str] = None) -> Round:
    """Construct the program, drive one round of steps, tear it down.

    ``kind`` is ``"verify"``, ``"timed"`` or ``"traced"``.  With
    ``reference`` digests given, every step must reproduce them bit for
    bit; anything else is a failed step.
    """
    traced = kind == "traced"
    gc.collect()
    start = time.perf_counter()
    live = workload.setup(inputs, traced, backend)
    construct_s = time.perf_counter() - start
    try:
        probe = LayerProbe(live) if traced else None
        overlap = SelectionOverlap(live.session) if kind == "verify" else None
        recorder = Recorder(live, check=kind == "verify", probe=probe)
        gc.disable()
        try:
            workload.drive(live, inputs)
        finally:
            gc.enable()
        record = _summarise(live, recorder, kind, construct_s,
                            recorder.exit[0] - start)
        if overlap is not None:
            record.shape = overlap.shape()
        if reference is not None:
            mismatched = sum(a != b for a, b in zip(record.digests, reference))
            mismatched += abs(len(record.digests) - len(reference))
            if mismatched:
                record.failures.append(
                    f"{mismatched} step(s) differ from the reference digests")
            record.failed = min(len(record.digests),
                                record.failed + mismatched)
        if probe is not None:
            steps = len(recorder.entry)
            record.layers.update(probe.series(steps))
            record.layers.update(info_series(
                [info for _, info in recorder.results]))
            if live.trainer is not None:
                record.layers.update(trainer_series(live.tracer, steps))
            record.probes = probe.kernel_probes()
            record.counters["events"] = float(len(live.tracer))
            if trace_path is not None:
                try:
                    record.trace = dict(probe.export(trace_path), path=trace_path)
                except ValueError as error:
                    record.failures.append(f"chrome trace invalid: {error}")
                    record.failed = max(record.failed, 1)
    finally:
        live.close()
    return record


def _summarise(live: Live, recorder: Recorder, kind: str,
               construct_s: float, setup_s: float) -> Round:
    entry, exits = recorder.entry, recorder.exit
    sync_s = [b - a for a, b in zip(entry, exits)]
    digests = recorder.digests
    stats = [s for s, _ in recorder.results]
    deterministic = {
        "wire_elements_per_step": float(np.mean([s.total_volume for s in stats])),
        "rounds_per_step": float(np.mean([s.rounds for s in stats])),
    }
    if live.trainer is not None:
        # One iteration = sync + update + the next compute, measured from
        # one entry of session.step to the next; the last step has no next
        # compute and is left out.
        step_s = [b - a for a, b in zip(entry, entry[1:])]
        history = live.trainer.history
        digests = [digest + (record.loss.hex(),)
                   for digest, record in zip(digests, history.iterations)]
        deterministic["sim_step_ms"] = 1e3 * float(np.mean(
            [record.total_time for record in history.iterations]))
        deterministic["final_train_loss"] = float(history.epochs[-1].train_loss)
    else:
        step_s = sync_s
        deterministic["sim_step_ms"] = 1e3 * float(np.mean(
            [s.simulated_time(ETHERNET) for s in stats]))
    counters = {
        "messages": float(np.mean([s.total_messages for s in stats])),
        "max_received": float(np.mean([s.max_received for s in stats])),
        "final_nnz": float(np.mean(
            [info.get("final_nnz") or 0 for _, info in recorder.results])),
    }
    return Round(kind=kind, construct_s=construct_s, make_s=live.make_s,
                 setup_s=setup_s, step_s=step_s, sync_s=sync_s, digests=digests,
                 failed=recorder.failed_steps, failures=recorder.failures,
                 deterministic=deterministic, counters=counters)


# ---------------------------------------------------------------------------
# one measuring run
# ---------------------------------------------------------------------------
def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            profile: Profile, trace_path: Optional[str] = None) -> Dict[str, Any]:
    """Run one workload for ``seconds`` and return the full result document."""
    inputs = workload.generate(seed, profile)
    rounds: List[Round] = []
    reference = None
    if workload.reference_backend is not None:
        # train_mp must reproduce, bit for bit, an inline simulated run.
        rounds.append(run_round(workload, inputs, "verify",
                                backend=workload.reference_backend))
        reference = rounds[-1].digests
    rounds.append(run_round(workload, inputs, "verify", reference))
    verified = rounds[-1]
    reference = verified.digests

    clock = time.perf_counter()
    while True:
        cycle = time.perf_counter()
        rounds.append(run_round(workload, inputs, "timed", reference))
        if trace:
            rounds.append(run_round(workload, inputs, "traced", reference,
                                    trace_path=trace_path))
        now = time.perf_counter()
        enough = trace or sum(r.kind == "timed" for r in rounds) >= 2
        # Stop at the round boundary nearest to the requested time.
        if enough and now - clock + 0.5 * (now - cycle) >= seconds:
            break

    skip = profile.skip if workload.is_training else 0
    timed = [r for r in rounds if r.kind == "timed"]
    step_ms = 1e3 * filtered([r.step_s[skip:] for r in timed])
    end_to_end = dict(timed[0].deterministic)
    end_to_end.update(step_ms=step_ms,
                      setup_s=statistics.median(r.setup_s for r in timed),
                      peak_rss_mb=_max_rss_mb(resource.RUSAGE_SELF))
    attempted = sum(len(r.digests) for r in rounds)
    failed = sum(r.failed for r in rounds)
    document = {
        "workload": workload.name, "why": workload.why, "spec": workload.spec,
        # The generator's knobs and the traffic shape as the program saw it.
        "shape": {**inputs.shape, **verified.shape},
        "seed": seed, "seconds": seconds,
        "trace": int(trace), "profile": profile.name,
        "steps_per_round": inputs.steps, "skipped_steps": skip,
        "rounds": [r.to_json() for r in rounds],
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "failed_share": failed / attempted,
        "end_to_end": {name: {"value": end_to_end[name], "unit": unit}
                       for name, unit in END_TO_END_UNITS.items()
                       if name in end_to_end},
    }
    if trace:
        document["per_layer"] = _per_layer(workload, inputs, rounds, skip, end_to_end)
    return document


def _max_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _per_layer(workload: Workload, inputs: Inputs, rounds: List[Round],
               skip: int, end_to_end: Dict[str, float]) -> Dict[str, Any]:
    timed = [r for r in rounds if r.kind == "timed"]
    traced = [r for r in rounds if r.kind == "traced"]
    values: Dict[str, float] = {}
    for name in traced[0].layers:
        values[name] = filtered([r.layers[name][skip:] for r in traced])
    values.update({name: min(r.probes[name] for r in traced)
                   for name in traced[0].probes})
    raw = [1e3 * t for r in timed for t in r.step_s[skip:]]
    values["pipeline.step_ms_raw_p50"] = float(np.percentile(raw, 50))
    # The highest percentile with ten samples beyond it.
    values["pipeline.step_ms_raw_p90"] = float(
        np.percentile(raw, 90 if len(raw) >= 100 else 75))
    counters = traced[0].counters
    values["sparse.final_nnz"] = counters["final_nnz"]
    values["sparse.achieved_density"] = counters["final_nnz"] / inputs.elements
    values["comm.messages_per_step"] = counters["messages"]
    values["comm.max_received_per_step"] = counters["max_received"]
    values["comm.wall_over_sim"] = end_to_end["step_ms"] / end_to_end["sim_step_ms"]
    traced_ms = 1e3 * filtered([r.step_s[skip:] for r in traced])
    values["obs.trace_overhead_pct"] = 100.0 * (traced_ms / end_to_end["step_ms"] - 1.0)
    values["obs.events_per_step"] = counters["events"] / inputs.steps
    values["api.make_ms"] = 1e3 * statistics.median(r.make_s for r in rounds)
    values["api.construct_ms"] = 1e3 * statistics.median(
        r.construct_s for r in rounds)
    # Forked workers start with the parent's pages mapped, so their peak
    # moves +-10% between runs: reported here, kept out of peak_rss_mb.
    values["comm.worker_rss_mb"] = _max_rss_mb(resource.RUSAGE_CHILDREN)
    sync_ms = 1e3 * filtered([r.sync_s[skip:] for r in traced])
    values["training.sync_ms"] = sync_ms if workload.is_training else 0.0
    values["training.sync_share"] = sync_ms / traced_ms if workload.is_training else 0.0
    for name in PER_LAYER_UNITS:
        values.setdefault(name, 0.0)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()}
