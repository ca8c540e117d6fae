"""Bucket-fusion planning for compute/communication overlap.

Per-layer bucketing (:mod:`repro.core.bucketed`) earns its keep only when
the per-bucket exchanges *overlap* the backward pass — otherwise every
bucket pays the full latency of its own collective and the layout is
strictly slower than flat.  This module plans the bucket layout that
minimises the overlapped critical path, the way MG-WFBP (Shi et al.,
INFOCOM 2019) does for real clusters:

1. **Price** on the alpha-beta model the run is timed with: the
   :class:`~repro.comm.network.NetworkProfile` handed in (``alpha`` =
   latency per round, ``beta`` = cost per element), taken at face value —
   or, for a :class:`~repro.comm.network.HeterogeneousNetwork`, its
   :meth:`~repro.comm.network.HeterogeneousNetwork.slowest` profile: a
   synchronous round waits for its slowest receiver, and the closed forms
   predict only the busiest receiver's volume.
   Planning sends no message: it is a pure function of the layout, the
   profiles and the SparDL configuration.
2. **Model** per-bucket cost.  Each candidate bucket's exchange is priced
   with the paper's Table I closed forms (:mod:`repro.analysis.complexity`)
   for SparDL, the one method that buckets — :meth:`NetworkProfile.time
   <repro.comm.network.NetworkProfile.time>` of its rounds and volume —
   and each bucket's backward slice comes from the
   :class:`~repro.training.timing.ComputeProfile` per-bucket model.
3. **Fuse**.  :func:`plan_mgwfbp` greedily merges adjacent layer buckets
   whenever the merge does not lengthen the overlapped critical path of
   the whole timeline (merging always saves per-bucket latency; it hurts
   only when it delays a gradient that could have been on the wire
   earlier).

The resulting :class:`FusionPlan` is a valid partition by construction —
only *adjacent* buckets ever merge, so sizes sum to the model's parameter
count and layer order is preserved — and its predicted critical path never
exceeds the sequential (non-overlapped) per-layer timeline: MG-WFBP only
accepts merges that keep the critical path.

``repro.api`` exposes the planner as ``buckets=auto``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..analysis.complexity import (
    quantized_bandwidth,
    spardl_bsag_complexity,
    spardl_complexity,
    spardl_rsag_complexity,
)
from ..comm.network import HeterogeneousNetwork, NetworkProfile
from ..training.timing import ComputeProfile, OverlapTimeline, overlap_timeline

__all__ = [
    "FusionPlan",
    "bucket_comm_model",
    "plan_mgwfbp",
    "plan_buckets",
]

#: ``estimator(bucket_elements) -> (rounds, volume_elements)``.
CommModel = Callable[[int], Tuple[float, float]]


# ---------------------------------------------------------------------------
# per-bucket communication models (Table I closed forms)
# ---------------------------------------------------------------------------
def bucket_comm_model(num_workers: int, density: Optional[float] = None,
                      teams: int = 1,
                      num_bits: Optional[int] = None) -> CommModel:
    """``estimator(bucket_elements) -> (rounds, volume)`` for a SparDL bucket.

    Prices a bucket's exchange with the paper's Table I closed forms
    (:mod:`repro.analysis.complexity`) for SparDL over ``teams`` teams,
    using the bucket's own ``k`` (``max(1, round(density * elements))`` —
    per-bucket top-k keeps at least one entry, mirroring the selection
    semantics of the bucketed pipeline).  ``num_bits`` applies the quantized
    COO accounting to the bandwidth term.  These are *planning* estimates:
    the simulator still measures the real rounds and volumes when the plan
    runs.
    """
    if num_workers <= 0:
        raise ValueError("num_workers must be positive")
    if density is None:
        raise ValueError("bucket planning needs a density target")
    if not 0 < density <= 1:
        raise ValueError("density must be in (0, 1]")

    def estimator(elements: int) -> Tuple[float, float]:
        elements = int(elements)
        if elements <= 0:
            raise ValueError("bucket elements must be positive")
        k = max(1, min(elements, int(round(density * elements))))
        if teams <= 1:
            bound = spardl_complexity(num_workers, elements, k)
        elif (teams & (teams - 1)) == 0 and num_workers % teams == 0:
            bound = spardl_rsag_complexity(num_workers, elements, k, teams)
        else:
            bound = spardl_bsag_complexity(num_workers, elements, k, teams)
        volume = bound.bandwidth_high
        if num_bits is not None:
            volume = quantized_bandwidth(volume, num_bits)
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

    #: The original per-layer layout the plan partitions.
    layers: Tuple[Tuple[str, int], ...]
    #: Per fused bucket: the (start, stop) slice of merged layer indices.
    groups: Tuple[Tuple[int, int], ...]
    #: The alpha-beta model the plan was priced on.
    network: NetworkProfile
    #: Volume rescaling applied to the bandwidth term (paper model size).
    volume_scale: float
    #: Predicted overlapped timeline of the fused layout (backward order).
    predicted: OverlapTimeline
    #: Predicted non-overlapped (sequential) time of the *per-layer*
    #: layout: the baseline any acceptable plan must not exceed.
    predicted_sequential: float

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
            "num_layers": len(self.layers),
            "num_buckets": self.num_buckets,
            "bucket_sizes": self.sizes,
            "alpha": self.network.alpha,
            "beta": self.network.beta,
            "network": self.network.name,
            "volume_scale": self.volume_scale,
            "predicted_sequential_s": self.predicted_sequential,
            "predicted": self.predicted.breakdown(),
        }


def _group_times(layers: Sequence[Tuple[str, int]],
                 compute_times: Sequence[float],
                 groups: Sequence[Tuple[int, int]],
                 estimator: CommModel,
                 network: NetworkProfile,
                 volume_scale: float) -> Tuple[List[float], List[float]]:
    """Per-group (backward slice, comm time), forward order."""
    computes: List[float] = []
    comms: List[float] = []
    for start, stop in groups:
        size = sum(s for _, s in layers[start:stop])
        rounds, volume = estimator(size)
        computes.append(float(sum(compute_times[start:stop])))
        comms.append(network.time(rounds, volume * volume_scale))
    return computes, comms


def _timeline_for(layers, compute_times, groups, estimator, network,
                  volume_scale) -> OverlapTimeline:
    computes, comms = _group_times(layers, compute_times, groups, estimator,
                                   network, volume_scale)
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
                network: NetworkProfile,
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
    current = _timeline_for(layers, compute_times, groups, estimator, network,
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
                                      network, volume_scale)
            tol = 1e-12 * max(1.0, current.critical_path)
            shorter = candidate.critical_path < current.critical_path - tol
            tie = abs(candidate.critical_path - current.critical_path) <= tol
            saves_comm = candidate.comm_total < current.comm_total - tol
            if shorter or (tie and saves_comm):
                groups = merged
                current = candidate
                improved = True
    return FusionPlan(
        layers=layers, groups=tuple(groups), network=network,
        volume_scale=volume_scale, predicted=current,
        predicted_sequential=sequential,
    )


def plan_buckets(layers: Sequence[Tuple[str, int]],
                 *,
                 num_workers: int,
                 network: NetworkProfile | HeterogeneousNetwork,
                 density: Optional[float] = None,
                 teams: int = 1,
                 num_bits: Optional[int] = None,
                 compute_profile: Optional[ComputeProfile] = None,
                 model_parameters: Optional[int] = None) -> FusionPlan:
    """Plan a fused bucket layout for ``layers`` (forward order) with
    :func:`plan_mgwfbp`.

    Every bucket's exchange is priced on ``network``, the
    :class:`~repro.comm.network.NetworkProfile` the run is timed with (a
    :class:`~repro.comm.network.HeterogeneousNetwork` plans on its
    slowest profile).
    ``compute_profile`` supplies the per-bucket backward times (none means
    planning under zero compute — no overlap is assumable, so latency
    minimisation fuses aggressively).  ``model_parameters`` defaults to
    the layout's own total and feeds the same
    :meth:`~repro.training.timing.ComputeProfile.volume_scale` rescaling
    the iteration timing applies, so plans optimise exactly the quantity
    :func:`~repro.training.timing.iteration_time` reports.

    Everything here is deterministic and sends nothing: a fixed layout
    and fixed profiles always produce the identical plan.
    """
    layout = [(str(name), int(size)) for name, size in layers]
    if not layout:
        raise ValueError("at least one layer bucket is required")
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
    if isinstance(network, HeterogeneousNetwork):
        network = network.slowest()
    estimator = bucket_comm_model(num_workers, density=density, teams=teams,
                                  num_bits=num_bits)
    return plan_mgwfbp(layout, compute_times, estimator, network,
                       volume_scale=volume_scale)
