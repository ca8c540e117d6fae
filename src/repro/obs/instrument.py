"""Wiring helpers between the tracer and the existing subsystems.

The synchronisers, transports and sessions never import ``repro.obs`` —
they duck-type against whatever ``tracer`` object is attached to them, so
the observability layer stays optional and acyclic.  This module holds
the attach-side glue: installing one tracer across a synchroniser (and
the inner per-group sessions of a :class:`BucketedSynchronizer`) plus
its transport, and replaying the simulated
:class:`~repro.training.timing.IterationTiming` into synthetic spans on
the :data:`~repro.obs.trace.SIM_PID` track, so modelled time renders
next to measured wall-clock time in the same Chrome trace.
"""

from __future__ import annotations

from typing import Any, Optional

from .trace import SIM_PID, Tracer

__all__ = ["attach_tracer", "replay_iteration_timing"]

#: Simulated-track thread ids: backward compute vs the shared comm channel.
_SIM_TID_COMPUTE = 0
_SIM_TID_COMM = 1


def attach_tracer(synchronizer: Any, tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Attach ``tracer`` to a synchroniser, the inner sessions of its
    planned buckets (for :class:`~repro.core.bucketed.BucketedSynchronizer`;
    their spans are labelled ``g0``, ``g1``, ...), and its cluster
    transport.  Passing ``None`` detaches.  Returns the tracer."""
    synchronizer.tracer = tracer
    for index, session in enumerate(getattr(synchronizer, "sessions", []) or []):
        session.tracer = tracer
        session.trace_label = f"g{index}"
    cluster = getattr(synchronizer, "cluster", None)
    if cluster is not None:
        cluster.install_tracer(tracer)
    return tracer


def replay_iteration_timing(tracer: Tracer, timing: Any, iteration: int) -> None:
    """Replay one :class:`~repro.training.timing.IterationTiming` as
    synthetic spans on the simulated-time track (cat ``overlap``).

    Simulated seconds map to trace microseconds one-to-one (1 s → 1 s of
    trace time), appended at ``tracer.sim_cursor_us`` so consecutive
    iterations lay out back to back.  Overlapped timings decompose each
    bucket's exchange into its hidden and exposed slices via
    :meth:`~repro.training.timing.OverlapTimeline.spans`; flat timings
    render as one compute span followed by one (fully exposed) comm span.
    """
    if tracer is None or not tracer.enabled:
        return
    base = tracer.sim_cursor_us
    tracer.set_track_name(SIM_PID, "simulated timeline (overlap model)")
    tracer.instant(f"iteration {iteration}", "overlap", ts_us=base, pid=SIM_PID,
                   args={"iteration": iteration, "total_s": timing.total})
    timeline = timing.timeline
    if timeline is None:
        compute_us = timing.compute_time * 1e6
        comm_us = timing.communication_time * 1e6
        tracer.complete("compute", "overlap", base, compute_us,
                        pid=SIM_PID, tid=_SIM_TID_COMPUTE,
                        args={"iteration": iteration, "kind": "backward"})
        tracer.complete("comm (exposed)", "overlap", base + compute_us, comm_us,
                        pid=SIM_PID, tid=_SIM_TID_COMM,
                        args={"iteration": iteration, "kind": "exposed"})
    else:
        # Forward + optimiser time precedes the overlapped backward pipeline.
        lead_us = max(0.0, timing.compute_time - timeline.backward_total) * 1e6
        if lead_us > 0:
            tracer.complete("forward+optimizer", "overlap", base, lead_us,
                            pid=SIM_PID, tid=_SIM_TID_COMPUTE,
                            args={"iteration": iteration, "kind": "non_overlap"})
        for span in timeline.spans():
            tid = _SIM_TID_COMPUTE if span["track"] == "backward" else _SIM_TID_COMM
            suffix = "" if span["kind"] == "backward" else f" ({span['kind']})"
            tracer.complete(f"{span['name']}{suffix}", "overlap",
                            base + lead_us + span["start_s"] * 1e6,
                            span["dur_s"] * 1e6, pid=SIM_PID, tid=tid,
                            args={"iteration": iteration, "kind": span["kind"]})
    tracer.sim_cursor_us = base + timing.total * 1e6
    tracer.metrics.histogram("sim_iteration_s").observe(timing.total)
    tracer.metrics.counter("sim_hidden_comm_s").inc(timing.hidden_comm_time)
    tracer.metrics.counter("sim_exposed_comm_s").inc(
        max(0.0, timing.communication_time - timing.hidden_comm_time))
