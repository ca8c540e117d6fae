"""Simulated per-iteration timing.

The paper reports wall-clock quantities (per-update time, training time to a
target accuracy) measured on its GPU clusters.  This repository replaces
wall-clock measurement with the same alpha-beta model the paper uses for its
analysis:

* **communication time** comes from the *measured* rounds and per-round
  busiest-receiver volumes of the simulated cluster, priced on a
  :class:`~repro.comm.network.NetworkProfile` by
  :meth:`~repro.comm.stats.CommStats.simulated_time`;
* **computation time** is a per-case constant (the paper's compute bars in
  Fig. 8 are flat across communication methods, so a constant profile
  preserves every comparison);
* because the NumPy models are orders of magnitude smaller than the paper's
  (a scaled-down VGG-16 here has ~10^5 parameters, the real one 14.7M), the
  bandwidth term is scaled by ``paper_parameters / model_parameters``.  The
  communication algorithms' volumes are linear in the gradient size, so this
  rescaling reproduces the latency/bandwidth balance of the full-size model
  without simulating 10^7-element vectors.

Compute/communication overlap
-----------------------------
A flat synchronisation cannot start communicating before the whole backward
pass has produced the full gradient, so its iteration time is the plain sum
``compute + comm``.  Per-layer bucketed synchronisation can do better: the
gradient of the *last* layer is ready first (backward runs the layers in
reverse), so its bucket's exchange can start while the backward pass is still
working through the earlier layers — the wait-free backpropagation insight
behind MG-WFBP-style schedulers.  :func:`overlap_timeline` models exactly
that pipeline: buckets communicate in backward-completion order over a single
shared network channel, each bucket's exchange starting as soon as its
backward slice has finished *and* the channel is free.  The per-bucket
backward slices come from :meth:`ComputeProfile.bucket_backward_times`
(proportional to parameter counts, or user-supplied measurements), and
:func:`iteration_time` switches to the overlap model whenever per-bucket
communication statistics are passed — without them it reproduces the
historical ``compute + comm`` sum bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from ..comm.network import HeterogeneousNetwork, NetworkProfile
from ..comm.stats import CommStats

__all__ = [
    "ComputeProfile",
    "IterationTiming",
    "OverlapTimeline",
    "iteration_time",
    "overlap_timeline",
]


@dataclass(frozen=True)
class ComputeProfile:
    """Computation-side timing of one training case.

    Parameters
    ----------
    compute_time_per_update:
        Seconds of forward + backward + optimiser work per iteration
        (calibrated to the paper's Fig. 8 computation bars).
    paper_parameters:
        Parameter count of the model the paper trains for this case.
    backward_fraction:
        Share of ``compute_time_per_update`` spent in the backward pass —
        the only part of an iteration that overlaps with per-bucket
        communication (gradients stream out layer by layer as backward
        produces them; forward and the optimiser step cannot hide any
        communication).  The default 0.7 reflects the usual ~2:1
        backward:forward FLOP ratio of dense training.
    bucket_backward_times:
        Optional measured per-bucket backward times, in *forward (layer)
        order*, overriding the proportional-split model of
        :meth:`bucket_backward_times`.  When given, their sum replaces
        ``backward_fraction * compute_time_per_update`` as the backward
        time, so measurements and the aggregate stay consistent.
    """

    compute_time_per_update: float
    paper_parameters: float
    backward_fraction: float = 0.7
    bucket_backward_times: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if self.compute_time_per_update < 0:
            raise ValueError("compute_time_per_update must be non-negative")
        if self.paper_parameters <= 0:
            raise ValueError("paper_parameters must be positive")
        if not 0.0 <= self.backward_fraction <= 1.0:
            raise ValueError("backward_fraction must be in [0, 1]")
        if self.bucket_backward_times is not None:
            times = tuple(float(t) for t in self.bucket_backward_times)
            if not times:
                raise ValueError("bucket_backward_times must not be empty")
            if any(t < 0 for t in times):
                raise ValueError("bucket backward times must be non-negative")
            object.__setattr__(self, "bucket_backward_times", times)

    def volume_scale(self, model_parameters: int) -> float:
        """Factor by which measured communication volumes are scaled so the
        bandwidth term corresponds to the paper's model size."""
        if model_parameters <= 0:
            raise ValueError("model_parameters must be positive")
        return float(self.paper_parameters) / float(model_parameters)

    # ------------------------------------------------------------------
    # the per-bucket backward-compute model
    # ------------------------------------------------------------------
    @property
    def backward_time(self) -> float:
        """Seconds of backward-pass work per iteration (the overlappable
        part of :attr:`compute_time_per_update`)."""
        if self.bucket_backward_times is not None:
            return float(sum(self.bucket_backward_times))
        return self.compute_time_per_update * self.backward_fraction

    def bucket_backward_times_for(self, bucket_sizes: Sequence[int]) -> List[float]:
        """Backward time of every bucket, in the order of ``bucket_sizes``
        (forward / layer order, matching the bucket layout).

        User-supplied :attr:`bucket_backward_times` are used verbatim (their
        count must match); otherwise the backward time is split across the
        buckets proportionally to their parameter counts — backward work per
        layer is dominated by the same matmuls whose weights the bucket
        carries, so parameter count is the natural first-order proxy.
        """
        sizes = [int(size) for size in bucket_sizes]
        if not sizes:
            raise ValueError("bucket_sizes must not be empty")
        if any(size <= 0 for size in sizes):
            raise ValueError("bucket sizes must be positive")
        if self.bucket_backward_times is not None:
            if len(self.bucket_backward_times) != len(sizes):
                raise ValueError(
                    f"profile carries {len(self.bucket_backward_times)} measured bucket "
                    f"times but the layout has {len(sizes)} buckets")
            return list(self.bucket_backward_times)
        total = float(sum(sizes))
        backward = self.backward_time
        return [backward * size / total for size in sizes]


@dataclass(frozen=True)
class OverlapTimeline:
    """The simulated timeline of one overlapped backward + exchange pipeline.

    All sequences are indexed in **backward execution order**: entry 0 is
    the first bucket whose backward slice completes (the *last* layers of
    the model).  The timeline follows the standard wait-free
    backpropagation recurrence over a single communication channel::

        backward_finish[i] = backward_finish[i-1] + compute_times[i]
        comm_start[i]      = max(backward_finish[i], comm_finish[i-1])
        comm_finish[i]     = comm_start[i] + comm_times[i]

    so each bucket's exchange begins as soon as its gradients exist and the
    channel is free, and :attr:`critical_path` is when the last exchange
    drains.  With a single bucket this degenerates to
    ``compute + comm`` — the flat, non-overlapped timing.
    """

    #: Per-bucket backward-slice durations (backward order).
    compute_times: Tuple[float, ...]
    #: Per-bucket communication durations (backward order).
    comm_times: Tuple[float, ...]
    #: When each bucket's backward slice completes.
    backward_finish: Tuple[float, ...]
    #: When each bucket's exchange starts (channel + gradient both ready).
    comm_start: Tuple[float, ...]
    #: When each bucket's exchange completes.
    comm_finish: Tuple[float, ...]

    @property
    def num_buckets(self) -> int:
        return len(self.compute_times)

    @property
    def backward_total(self) -> float:
        """Total backward compute time (the pipeline's compute leg)."""
        return self.backward_finish[-1]

    @property
    def comm_total(self) -> float:
        """Total communication time (what a sequential execution would pay)."""
        return float(sum(self.comm_times))

    @property
    def critical_path(self) -> float:
        """End-to-end duration of the overlapped pipeline: from the first
        backward slice starting to the last exchange draining."""
        return self.comm_finish[-1]

    @property
    def exposed_comm(self) -> float:
        """Communication time *not* hidden behind backward compute — the
        tail (and any stalls) that extend the iteration beyond the backward
        pass itself."""
        return self.critical_path - self.backward_total

    @property
    def hidden_comm(self) -> float:
        """Communication time hidden behind backward compute: the overlap
        payoff, ``comm_total - exposed_comm`` (zero when nothing overlaps,
        ``comm_total`` under full overlap)."""
        return self.comm_total - self.exposed_comm

    @property
    def overlap_ratio(self) -> float:
        """Fraction of communication hidden behind compute, in [0, 1]."""
        total = self.comm_total
        return self.hidden_comm / total if total > 0 else 0.0

    def breakdown(self) -> dict:
        """JSON-friendly critical-path breakdown (for benchmark reports)."""
        return {
            "num_buckets": self.num_buckets,
            "backward_total_s": self.backward_total,
            "comm_total_s": self.comm_total,
            "critical_path_s": self.critical_path,
            "exposed_comm_s": self.exposed_comm,
            "hidden_comm_s": self.hidden_comm,
            "overlap_ratio": self.overlap_ratio,
            "comm_start_s": list(self.comm_start),
            "comm_finish_s": list(self.comm_finish),
        }

    def spans(self) -> List[dict]:
        """The timeline as renderable spans, for the trace replay.

        Every backward slice becomes one span on the ``backward`` track;
        every bucket's exchange is split at :attr:`backward_total` into its
        *hidden* slice (running while backward still computes) and its
        *exposed* slice (extending the iteration past the backward pass) on
        the ``comm`` track.  All backward slices finish by
        ``backward_total`` and the channel never idles afterwards, so the
        hidden/exposed slice totals equal :attr:`hidden_comm` and
        :attr:`exposed_comm` exactly.  Times are seconds from the start of
        the backward pass; buckets keep backward execution order.
        """
        spans: List[dict] = []
        cut = self.backward_total
        for i in range(self.num_buckets):
            finish = self.backward_finish[i]
            spans.append({"track": "backward", "name": f"backward[b{i}]",
                          "kind": "backward",
                          "start_s": finish - self.compute_times[i],
                          "dur_s": self.compute_times[i]})
            start, end = self.comm_start[i], self.comm_finish[i]
            if end <= start:
                continue
            boundary = min(max(start, cut), end)
            if boundary > start:
                spans.append({"track": "comm", "name": f"comm[b{i}]",
                              "kind": "hidden", "start_s": start,
                              "dur_s": boundary - start})
            if end > boundary:
                spans.append({"track": "comm", "name": f"comm[b{i}]",
                              "kind": "exposed", "start_s": boundary,
                              "dur_s": end - boundary})
        return spans


def overlap_timeline(compute_times: Sequence[float],
                     comm_times: Sequence[float]) -> OverlapTimeline:
    """Simulate the overlapped backward + exchange pipeline.

    ``compute_times`` and ``comm_times`` are per-bucket durations in
    **backward execution order** (first entry = last layers of the model).
    Communication is serialised on one channel in that same order — the
    MG-WFBP execution model — and each bucket's exchange starts as soon as
    its backward slice has finished and the channel is free.
    """
    computes = [float(t) for t in compute_times]
    comms = [float(t) for t in comm_times]
    if not computes:
        raise ValueError("at least one bucket is required")
    if len(computes) != len(comms):
        raise ValueError(
            f"compute_times has {len(computes)} buckets but comm_times has "
            f"{len(comms)}")
    if any(t < 0 for t in computes) or any(t < 0 for t in comms):
        raise ValueError("bucket times must be non-negative")
    backward_finish: List[float] = []
    comm_start: List[float] = []
    comm_finish: List[float] = []
    elapsed = 0.0
    channel_free = 0.0
    for compute, comm in zip(computes, comms):
        elapsed += compute
        start = max(elapsed, channel_free)
        channel_free = start + comm
        backward_finish.append(elapsed)
        comm_start.append(start)
        comm_finish.append(channel_free)
    return OverlapTimeline(
        compute_times=tuple(computes),
        comm_times=tuple(comms),
        backward_finish=tuple(backward_finish),
        comm_start=tuple(comm_start),
        comm_finish=tuple(comm_finish),
    )


@dataclass
class IterationTiming:
    """Simulated time of one training iteration.

    ``compute_time`` and ``communication_time`` are always the *full*
    quantities (every compute second, every communication second), so the
    historical decomposition is preserved; ``hidden_comm_time`` is the part
    of communication that an overlapped bucketed execution hid behind the
    backward pass (zero without overlap), and :attr:`total` subtracts it.
    """

    compute_time: float
    communication_time: float
    #: Communication hidden behind backward compute (0 without overlap).
    hidden_comm_time: float = 0.0
    #: The per-bucket timeline, when the overlap model produced this timing.
    timeline: Optional[OverlapTimeline] = None

    @property
    def total(self) -> float:
        return self.compute_time + self.communication_time - self.hidden_comm_time


def _compute_slowdown(compute_factors: Optional[Sequence[float]]) -> float:
    """The synchronous-training compute slowdown: the slowest worker's
    factor (everyone waits for it), 1.0 without stragglers."""
    if compute_factors is None:
        return 1.0
    factors = [float(factor) for factor in compute_factors]
    if not factors:
        raise ValueError("compute_factors must not be empty")
    if any(factor < 0 for factor in factors):
        raise ValueError("compute factors must be non-negative")
    return max(factors)


def iteration_time(stats: CommStats,
                   network: Union[NetworkProfile, HeterogeneousNetwork],
                   profile: ComputeProfile,
                   model_parameters: Optional[int] = None,
                   compute_factors: Optional[Sequence[float]] = None,
                   bucket_stats: Optional[Sequence[CommStats]] = None,
                   bucket_sizes: Optional[Sequence[int]] = None) -> IterationTiming:
    """Compute + communication time of one iteration.

    ``compute_factors`` are per-worker compute slowdown factors (e.g. from
    :meth:`~repro.comm.faults.FaultPlan.straggler_factors`): synchronous
    training waits for the slowest worker's forward/backward pass, so
    *every* compute term — the flat sum, and each per-bucket backward slice
    of the overlap model alike — scales by their maximum.

    Without ``bucket_stats`` this is the historical non-overlapped model:
    ``total = compute + comm``, bit for bit.  With ``bucket_stats`` (the
    :class:`~repro.comm.stats.CommStats` of every exchange of a bucketed
    synchronisation, in forward/layer order, alongside the matching
    ``bucket_sizes`` — the elements each exchange covers: a planned bucket
    of several layers is one entry, ``info["group_sizes"]``) the
    communication is scheduled against the matching backward slices via
    :func:`overlap_timeline`: exchanges run in backward-completion order,
    each starting as soon as the backward slice of everything it covers
    has finished and the channel frees up, and the hidden communication is
    reported (and subtracted from :attr:`IterationTiming.total`).
    """
    scale = 1.0
    if model_parameters is not None:
        scale = profile.volume_scale(model_parameters)
    slowdown = _compute_slowdown(compute_factors)
    compute = profile.compute_time_per_update * slowdown

    if bucket_stats is None:
        return IterationTiming(
            compute_time=compute,
            communication_time=stats.simulated_time(network, scale),
        )

    if bucket_sizes is None:
        raise ValueError("bucket_stats needs the matching bucket_sizes")
    per_bucket = list(bucket_stats)
    sizes = [int(size) for size in bucket_sizes]
    if len(per_bucket) != len(sizes):
        raise ValueError(
            f"bucket_stats has {len(per_bucket)} buckets but bucket_sizes "
            f"has {len(sizes)}")
    backward = [t * slowdown for t in profile.bucket_backward_times_for(sizes)]
    comms = [part.simulated_time(network, scale) for part in per_bucket]
    # Backward runs the layers in reverse: the last bucket's gradients are
    # ready first, so the pipeline consumes the lists back to front.
    timeline = overlap_timeline(backward[::-1], comms[::-1])
    non_overlap = max(0.0, compute - timeline.backward_total)
    total_comm = sum(comms)
    overlapped_total = non_overlap + timeline.critical_path
    return IterationTiming(
        compute_time=compute,
        communication_time=total_comm,
        # One exchange hides nothing; the difference is then a rounding
        # residue of either sign, not a (negative) time.
        hidden_comm_time=max(0.0, compute + total_comm - overlapped_total),
        timeline=timeline,
    )
