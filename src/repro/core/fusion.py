"""Bucket-fusion planning for compute/communication overlap.

Per-layer bucketing (:mod:`repro.core.bucketed`) earns its keep only when
the per-bucket exchanges *overlap* the backward pass — otherwise every
bucket pays the full latency of its own collective and the layout is
strictly slower than flat.  This module plans the bucket layout that
minimises the overlapped critical path, the way SSFusion's MG-WFBP and ASC
planners do for real clusters:

1. **Calibrate** an alpha-beta communication model.  The planner either
   takes the :class:`~repro.comm.network.NetworkProfile` at face value
   (``alpha`` = latency, ``beta`` = per-element cost) or runs a startup
   micro-benchmark on the live :class:`~repro.comm.transport.Transport`
   (:func:`benchmark_transport`): exchange a handful of payload sizes,
   price each recorded round on the profile, and least-squares fit
   ``time = alpha + beta * size`` (:func:`fit_alpha_beta`).
2. **Model** per-bucket cost.  Each candidate bucket's exchange is priced
   with the paper's Table I closed forms (:mod:`repro.analysis.complexity`)
   for the method that will run it — rounds times ``alpha`` plus volume
   times ``beta`` — and each bucket's backward slice comes from the
   :class:`~repro.training.timing.ComputeProfile` per-bucket model.
3. **Fuse**.  :func:`plan_mgwfbp` greedily merges adjacent layer buckets
   whenever the merge does not lengthen the overlapped critical path of
   the whole timeline (merging always saves per-bucket latency; it hurts
   only when it delays a gradient that could have been on the wire
   earlier).  :func:`plan_asc` fuses by alpha-saturation coalescing:
   walking the backward order, layers accumulate into one bucket until the
   bucket's bandwidth term has earned its latency term
   (``beta * volume >= alpha * rounds``), so an alpha-dominated network
   degenerates to one flat bucket and a beta-dominated one to pure
   per-layer buckets.

The resulting :class:`FusionPlan` is a valid partition by construction —
only *adjacent* buckets ever merge, so sizes sum to the model's parameter
count and layer order is preserved — and its predicted critical path never
exceeds the sequential (non-overlapped) per-layer timeline: MG-WFBP only
accepts merges that keep the critical path, and ASC falls back to the
per-layer plan if its grouping ever predicts worse.

``repro.api`` exposes the planners as ``buckets=auto`` (MG-WFBP, the
default), ``buckets=auto:mgwfbp`` and ``buckets=auto:asc``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.complexity import (
    dense_allreduce_complexity,
    gtopk_complexity,
    ok_topk_complexity,
    quantized_bandwidth,
    spardl_bsag_complexity,
    spardl_complexity,
    spardl_rsag_complexity,
    topk_a_complexity,
    topk_dsa_complexity,
)
from ..comm.network import NetworkProfile
from ..comm.transport import Message, Transport
from ..training.timing import ComputeProfile, OverlapTimeline, overlap_timeline

__all__ = [
    "AlphaBetaFit",
    "FusionPlan",
    "FUSION_PLANNERS",
    "fit_alpha_beta",
    "benchmark_transport",
    "bucket_comm_model",
    "plan_mgwfbp",
    "plan_asc",
    "plan_buckets",
]

#: Planner names accepted by ``buckets=auto[:PLANNER]``.
FUSION_PLANNERS = ("mgwfbp", "asc")

#: ``estimator(bucket_elements) -> (rounds, volume_elements)``.
CommModel = Callable[[int], Tuple[float, float]]


# ---------------------------------------------------------------------------
# alpha-beta calibration
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class AlphaBetaFit:
    """A fitted (or assumed) alpha-beta communication-time model.

    ``time = alpha + beta * size`` for one synchronous round delivering
    ``size`` elements to the busiest receiver.  ``source`` records where
    the constants came from: ``"profile"`` (taken from a
    :class:`~repro.comm.network.NetworkProfile`) or ``"benchmark:simulated"``
    (fitted from a transport micro-benchmark).
    """

    alpha: float
    beta: float
    source: str = "profile"
    #: The ``(size, seconds)`` samples behind a fitted model (empty when
    #: the constants were assumed from a profile).
    samples: Tuple[Tuple[float, float], ...] = field(default=())

    def __post_init__(self) -> None:
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be non-negative")

    def round_time(self, volume: float) -> float:
        return self.alpha + self.beta * float(volume)

    def time(self, rounds: float, volume: float) -> float:
        """Predicted duration of ``rounds`` rounds moving ``volume``
        elements to the busiest receiver."""
        return self.alpha * float(rounds) + self.beta * float(volume)

    @property
    def saturation_size(self) -> float:
        """Elements per round at which the bandwidth term equals the
        latency term (``alpha / beta``; infinite on a latency-only model)."""
        if self.beta == 0:
            return float("inf")
        return self.alpha / self.beta

    @classmethod
    def from_network(cls, network: NetworkProfile) -> "AlphaBetaFit":
        return cls(alpha=network.alpha, beta=network.beta, source="profile")


def fit_alpha_beta(sizes: Sequence[float], times: Sequence[float],
                   source: str = "benchmark") -> AlphaBetaFit:
    """Least-squares fit of ``time = alpha + beta * size``.

    The SSFusion recipe: benchmark a handful of message sizes at startup
    and fit the linear model once, instead of trusting datasheet numbers.
    Negative fitted coefficients (possible with noisy measured samples)
    are clamped to zero — the model must stay a valid cost model.
    """
    xs = np.asarray(sizes, dtype=np.float64)
    ys = np.asarray(times, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("sizes and times must be 1-D sequences of equal length")
    if xs.size < 2:
        raise ValueError("at least two samples are required to fit alpha and beta")
    if np.unique(xs).size < 2:
        raise ValueError("samples must cover at least two distinct sizes")
    design = np.stack([np.ones_like(xs), xs], axis=1)
    (alpha, beta), *_ = np.linalg.lstsq(design, ys, rcond=None)
    return AlphaBetaFit(
        alpha=float(max(0.0, alpha)),
        beta=float(max(0.0, beta)),
        source=source,
        samples=tuple((float(x), float(y)) for x, y in zip(xs, ys)),
    )


def benchmark_transport(transport: Transport,
                        network: Optional[NetworkProfile] = None,
                        sizes: Sequence[int] = (256, 2048, 16384, 131072)
                        ) -> AlphaBetaFit:
    """Startup micro-benchmark: fit alpha/beta from live exchanges.

    Sends one ``size``-element payload from rank 0 to rank 1 for each probe
    size and prices the recorded round on ``network`` (the simulated
    alpha-beta time of the statistics, which recovers the
    :class:`~repro.comm.network.NetworkProfile` constants exactly).  Every
    backend delivers through the same
    :meth:`~repro.comm.transport.Transport.exchange`, so the fit — and every
    plan made from it — is the same on every backend.  The transport's
    statistics are saved and restored around the probes, so calibration
    never pollutes the accounting of the training run that follows.

    Transports with fewer than two workers cannot exchange; they fall back
    to the network profile's constants directly.
    """
    probe_sizes = sorted({int(size) for size in sizes})
    if len(probe_sizes) < 2 or probe_sizes[0] < 0:
        raise ValueError("sizes must contain at least two distinct non-negative sizes")
    if network is None:
        raise ValueError(
            "benchmarking a transport needs a NetworkProfile to price the "
            "probe rounds")
    if transport.num_workers < 2:
        return AlphaBetaFit.from_network(network)

    preserved = transport.reset_stats()
    points: List[Tuple[float, float]] = []
    try:
        for size in probe_sizes:
            transport.reset_stats()
            transport.exchange([Message(src=0, dst=1,
                                        payload=np.zeros(size, dtype=np.float64),
                                        tag="fusion-probe")])
            points.append((float(size), transport.stats.simulated_time(network)))
    finally:
        transport.reset_stats()
        transport.stats.merge(preserved)
    return fit_alpha_beta([p[0] for p in points], [p[1] for p in points],
                          source="benchmark:simulated")


# ---------------------------------------------------------------------------
# per-bucket communication models (Table I closed forms)
# ---------------------------------------------------------------------------
def bucket_comm_model(method: str, num_workers: int,
                      density: Optional[float] = None,
                      teams: int = 1,
                      num_bits: Optional[int] = None) -> CommModel:
    """``estimator(bucket_elements) -> (rounds, volume)`` for one method.

    Prices a bucket's exchange with the paper's Table I closed forms
    (:mod:`repro.analysis.complexity`), using the bucket's own ``k``
    (``max(1, round(density * elements))`` — per-bucket top-k keeps at
    least one entry, mirroring the selection semantics of the bucketed
    pipeline).  ``num_bits`` applies the quantized COO accounting to the
    bandwidth term.  These are *planning* estimates: the simulator still
    measures the real rounds and volumes when the plan runs.
    """
    if num_workers <= 0:
        raise ValueError("num_workers must be positive")
    sparse_methods = {"SparDL", "Ok-Topk", "TopkA", "TopkDSA", "gTopk"}
    if method in sparse_methods and density is None:
        raise ValueError(f"{method} bucket planning needs a density target")
    if density is not None and not 0 < density <= 1:
        raise ValueError("density must be in (0, 1]")

    def bound_for(elements: int):
        if elements <= 0:
            raise ValueError("bucket elements must be positive")
        if method == "Dense":
            return dense_allreduce_complexity(num_workers, elements)
        k = max(1, min(elements, int(round(density * elements))))
        if method == "SparDL":
            if teams <= 1:
                return spardl_complexity(num_workers, elements, k)
            if (teams & (teams - 1)) == 0 and num_workers % teams == 0:
                return spardl_rsag_complexity(num_workers, elements, k, teams)
            return spardl_bsag_complexity(num_workers, elements, k, teams)
        if method == "Ok-Topk":
            return ok_topk_complexity(num_workers, elements, k)
        if method == "TopkA":
            return topk_a_complexity(num_workers, elements, k)
        if method == "TopkDSA":
            return topk_dsa_complexity(num_workers, elements, k)
        if method == "gTopk":
            return gtopk_complexity(num_workers, elements, k)
        raise ValueError(f"no communication model for method {method!r}")

    def estimator(elements: int) -> Tuple[float, float]:
        bound = bound_for(int(elements))
        volume = bound.bandwidth_high
        if num_bits is not None and method != "Dense":
            volume = quantized_bandwidth(volume, num_bits)
        elif num_bits is not None:
            volume = volume * num_bits / 32.0
        return float(bound.latency_rounds), float(volume)

    return estimator


# ---------------------------------------------------------------------------
# fusion plans
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FusionPlan:
    """A planned bucket layout with its predicted overlap timeline.

    ``groups`` maps every fused bucket (forward/layer order) to the
    contiguous range of original layer indices it merges; ``names`` and
    ``sizes`` are the fused layout the
    :class:`~repro.core.bucketed.BucketedSynchronizer` is built from.
    """

    planner: str
    #: The original per-layer layout the plan partitions.
    layers: Tuple[Tuple[str, int], ...]
    #: Per fused bucket: the (start, stop) slice of merged layer indices.
    groups: Tuple[Tuple[int, int], ...]
    #: The calibrated communication model the plan was made against.
    fit: AlphaBetaFit
    #: Volume rescaling applied to the bandwidth term (paper model size).
    volume_scale: float
    #: Predicted overlapped timeline of the fused layout (backward order).
    predicted: OverlapTimeline
    #: Predicted non-overlapped (sequential) time of the *per-layer*
    #: layout: the baseline any acceptable plan must not exceed.
    predicted_sequential: float
    #: True when ASC's threshold grouping predicted worse than per-layer
    #: buckets and the plan fell back to the per-layer layout.
    fallback: bool = False

    def __post_init__(self) -> None:
        if not self.groups:
            raise ValueError("a fusion plan needs at least one bucket")
        expected = 0
        for start, stop in self.groups:
            if start != expected or stop <= start:
                raise ValueError(
                    f"fusion groups must be contiguous, ordered and non-empty; "
                    f"got {self.groups}")
            expected = stop
        if expected != len(self.layers):
            raise ValueError("fusion groups must cover every layer exactly once")

    # ------------------------------------------------------------------
    @property
    def num_buckets(self) -> int:
        return len(self.groups)

    @property
    def names(self) -> List[str]:
        return ["+".join(name for name, _ in self.layers[start:stop])
                for start, stop in self.groups]

    @property
    def sizes(self) -> List[int]:
        return [sum(size for _, size in self.layers[start:stop])
                for start, stop in self.groups]

    @property
    def total_elements(self) -> int:
        return sum(size for _, size in self.layers)

    def bucket_layout(self) -> List[Tuple[str, int]]:
        """The fused ``(name, size)`` layout, forward order."""
        return list(zip(self.names, self.sizes))

    def breakdown(self) -> dict:
        """JSON-friendly plan summary for benchmark reports."""
        return {
            "planner": self.planner,
            "num_layers": len(self.layers),
            "num_buckets": self.num_buckets,
            "bucket_sizes": self.sizes,
            "alpha": self.fit.alpha,
            "beta": self.fit.beta,
            "fit_source": self.fit.source,
            "volume_scale": self.volume_scale,
            "fallback": self.fallback,
            "predicted_sequential_s": self.predicted_sequential,
            "predicted": self.predicted.breakdown(),
        }


def _group_times(layers: Sequence[Tuple[str, int]],
                 compute_times: Sequence[float],
                 groups: Sequence[Tuple[int, int]],
                 estimator: CommModel,
                 fit: AlphaBetaFit,
                 volume_scale: float) -> Tuple[List[float], List[float]]:
    """Per-group (backward slice, comm time), forward order."""
    computes: List[float] = []
    comms: List[float] = []
    for start, stop in groups:
        size = sum(s for _, s in layers[start:stop])
        rounds, volume = estimator(size)
        computes.append(float(sum(compute_times[start:stop])))
        comms.append(fit.time(rounds, volume * volume_scale))
    return computes, comms


def _timeline_for(layers, compute_times, groups, estimator, fit,
                  volume_scale) -> OverlapTimeline:
    computes, comms = _group_times(layers, compute_times, groups, estimator,
                                   fit, volume_scale)
    # Backward consumes the layout back to front.
    return overlap_timeline(computes[::-1], comms[::-1])


def _validate_plan_inputs(layers, compute_times) -> None:
    if not layers:
        raise ValueError("at least one layer bucket is required")
    if any(size <= 0 for _, size in layers):
        raise ValueError("layer bucket sizes must be positive")
    if len(compute_times) != len(layers):
        raise ValueError(
            f"{len(compute_times)} compute times for {len(layers)} layers")
    if any(t < 0 for t in compute_times):
        raise ValueError("compute times must be non-negative")


def plan_mgwfbp(layers: Sequence[Tuple[str, int]],
                compute_times: Sequence[float],
                estimator: CommModel,
                fit: AlphaBetaFit,
                volume_scale: float = 1.0) -> FusionPlan:
    """MG-WFBP-style fusion: merge adjacent buckets whenever the merge does
    not lengthen the overlapped critical path.

    Starting from per-layer buckets, the planner walks the backward order
    and greedily merges each bucket into its successor when the full
    timeline (re-evaluated exactly, not approximated) predicts a strictly
    shorter critical path — a merge saves one collective's latency but may
    delay gradients that could already have been in flight, and the
    timeline arbitrates.  A critical-path *tie* is accepted only when the
    merge strictly reduces total communication time (it removed latency
    that the overlap happened to be hiding anyway); a tie that saves
    nothing is rejected, so a zero-latency (bandwidth-dominated) network
    keeps pure per-layer buckets.  Passes repeat until no merge is
    accepted, so the result is a local optimum of single adjacent merges.
    Because the starting plan is per-layer and every accepted merge is
    non-worsening, the plan's critical path never exceeds the per-layer
    one — which itself never exceeds the sequential sum.
    """
    layers = tuple((str(name), int(size)) for name, size in layers)
    compute_times = [float(t) for t in compute_times]
    _validate_plan_inputs(layers, compute_times)
    groups: List[Tuple[int, int]] = [(i, i + 1) for i in range(len(layers))]
    current = _timeline_for(layers, compute_times, groups, estimator, fit,
                            volume_scale)
    sequential = current.backward_total + current.comm_total

    improved = True
    while improved and len(groups) > 1:
        improved = False
        # Backward order: the last forward group's backward slice finishes
        # first, so walk the candidate merges from the back of the list.
        for position in range(len(groups) - 2, -1, -1):
            merged = (groups[:position]
                      + [(groups[position][0], groups[position + 1][1])]
                      + groups[position + 2:])
            candidate = _timeline_for(layers, compute_times, merged, estimator,
                                      fit, volume_scale)
            tol = 1e-12 * max(1.0, current.critical_path)
            shorter = candidate.critical_path < current.critical_path - tol
            tie = abs(candidate.critical_path - current.critical_path) <= tol
            saves_comm = candidate.comm_total < current.comm_total - tol
            if shorter or (tie and saves_comm):
                groups = merged
                current = candidate
                improved = True
    return FusionPlan(
        planner="mgwfbp", layers=layers, groups=tuple(groups), fit=fit,
        volume_scale=volume_scale, predicted=current,
        predicted_sequential=sequential,
    )


def plan_asc(layers: Sequence[Tuple[str, int]],
             compute_times: Sequence[float],
             estimator: CommModel,
             fit: AlphaBetaFit,
             volume_scale: float = 1.0) -> FusionPlan:
    """ASC-style fusion: alpha-saturation coalescing over the fitted model.

    Walking the backward order, consecutive layers accumulate into one
    bucket until the bucket's bandwidth term has earned its latency term —
    ``beta * volume >= alpha * rounds`` under the fitted alpha-beta model —
    at which point the bucket closes and the next one starts.  A
    latency-dominated network (large ``alpha/beta``) therefore fuses
    everything into a single flat bucket, while a bandwidth-dominated one
    (``alpha -> 0``) keeps pure per-layer buckets; in between the bucket
    count tracks the fitted saturation size ``alpha / beta``.  Unlike
    MG-WFBP the rule is closed-form rather than timeline-driven, so the
    plan is additionally checked against the per-layer timeline and falls
    back to per-layer buckets when the grouping predicts worse
    (``fallback=True``) — the plan never exceeds the sequential baseline.
    """
    layers = tuple((str(name), int(size)) for name, size in layers)
    compute_times = [float(t) for t in compute_times]
    _validate_plan_inputs(layers, compute_times)
    per_layer = [(i, i + 1) for i in range(len(layers))]
    per_layer_timeline = _timeline_for(layers, compute_times, per_layer,
                                       estimator, fit, volume_scale)
    sequential = (per_layer_timeline.backward_total
                  + per_layer_timeline.comm_total)

    # Accumulate in backward order (last forward layer first), closing each
    # group once its bandwidth term covers its latency term.
    groups_backward: List[Tuple[int, int]] = []
    stop = len(layers)
    for index in range(len(layers) - 1, -1, -1):
        size = sum(s for _, s in layers[index:stop])
        rounds, volume = estimator(size)
        if fit.beta * volume * volume_scale >= fit.alpha * rounds:
            groups_backward.append((index, stop))
            stop = index
    if stop > 0:  # leftover head of the model never saturated: one bucket
        groups_backward.append((0, stop))
    groups = tuple(sorted(groups_backward))

    timeline = _timeline_for(layers, compute_times, groups, estimator, fit,
                             volume_scale)
    fallback = timeline.critical_path > per_layer_timeline.critical_path * (1 + 1e-12)
    if fallback:
        groups = tuple(per_layer)
        timeline = per_layer_timeline
    return FusionPlan(
        planner="asc", layers=layers, groups=groups, fit=fit,
        volume_scale=volume_scale, predicted=timeline,
        predicted_sequential=sequential, fallback=fallback,
    )


_PLANNERS = {"mgwfbp": plan_mgwfbp, "asc": plan_asc}


def plan_buckets(layers: Sequence[Tuple[str, int]],
                 *,
                 planner: str = "mgwfbp",
                 method: str = "SparDL",
                 num_workers: int,
                 density: Optional[float] = None,
                 teams: int = 1,
                 num_bits: Optional[int] = None,
                 fit: Optional[AlphaBetaFit] = None,
                 transport: Optional[Transport] = None,
                 network: Optional[NetworkProfile] = None,
                 compute_profile: Optional[ComputeProfile] = None,
                 model_parameters: Optional[int] = None) -> FusionPlan:
    """Plan a fused bucket layout for ``layers`` (forward order).

    Resolution order for the alpha-beta model: an explicit ``fit`` wins;
    otherwise a ``transport`` is micro-benchmarked
    (:func:`benchmark_transport`, priced by ``network``); otherwise ``network``'s constants are taken at face value.
    ``compute_profile`` supplies the per-bucket backward times (none means
    planning under zero compute — no overlap is assumable, so latency
    minimisation fuses aggressively).  ``model_parameters`` defaults to
    the layout's own total and feeds the same
    :meth:`~repro.training.timing.ComputeProfile.volume_scale` rescaling
    the iteration timing applies, so plans optimise exactly the quantity
    :func:`~repro.training.timing.iteration_time` reports.

    Everything here is deterministic: a fixed layout, profile and
    fit/seeded transport always produce the identical plan.
    """
    if planner not in _PLANNERS:
        raise ValueError(
            f"unknown fusion planner {planner!r}; expected one of "
            f"{', '.join(FUSION_PLANNERS)}")
    layout = [(str(name), int(size)) for name, size in layers]
    if not layout:
        raise ValueError("at least one layer bucket is required")
    if fit is None:
        if transport is not None:
            fit = benchmark_transport(transport, network=network)
        elif network is not None:
            fit = AlphaBetaFit.from_network(network)
        else:
            raise ValueError(
                "give fit=, transport= or network= so the planner has an "
                "alpha-beta communication model to optimise against")
    sizes = [size for _, size in layout]
    total = sum(sizes)
    if model_parameters is None:
        model_parameters = total
    if compute_profile is not None:
        compute_times = compute_profile.bucket_backward_times_for(sizes)
        volume_scale = compute_profile.volume_scale(model_parameters)
    else:
        compute_times = [0.0] * len(layout)
        volume_scale = 1.0
    estimator = bucket_comm_model(method, num_workers, density=density,
                                  teams=teams, num_bits=num_bits)
    return _PLANNERS[planner](layout, compute_times, estimator, fit,
                              volume_scale=volume_scale)
