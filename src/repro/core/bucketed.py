"""Planned buckets (``buckets=auto``), each exchanged on its own.

SparDL selects per tensor and fuses in the message: ``buckets=layer`` is
one :class:`~repro.core.spardl.SparDLSynchronizer` over the layer sizes,
every tensor a set of segments of its block layout, so the layers pay the
rounds of *one* SRS -> SAG -> All-Gather.  A
:class:`~repro.core.fusion.FusionPlan` (``buckets=auto``) instead cuts the
layers into buckets that the MG-WFBP planner priced as exchanges of their
own against the backward pass.  :class:`BucketedSynchronizer` runs that
plan: one SparDL per planned bucket, all under the spec's one
:class:`~repro.core.config.SparDLConfig`, each with its own selection,
residual and warm-cut state and quantiser streams.  Buckets synchronise one
after the other, so the aggregated :class:`~repro.comm.stats.CommStats`
adds their rounds as well as their volumes, and
:attr:`~BucketedSynchronizer.sessions` / :attr:`~BucketedSynchronizer.slices`
are per bucket.

Bucketing changes *what is selected*: top-k runs per tensor, so small
layers are guaranteed representation in the global gradient (the
motivation DGC gives for per-layer selection), whereas the flat pipeline
lets a few large layers monopolise the budget.  Residual conservation is
preserved bucket by bucket, which the bucketed-vs-flat equivalence tests
assert.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..comm.transport import Transport
from ..comm.stats import CommStats
from .base import GradientSynchronizer, SyncResult
from .config import SparDLConfig
from .pipeline import SyncSession
from .spardl import SparDLSynchronizer

__all__ = ["BucketedSynchronizer", "layer_buckets"]


def layer_buckets(module) -> List[Tuple[str, int]]:
    """``(name, size)`` of one bucket per parameter tensor of ``module``.

    ``module`` is anything exposing ``parameters()`` yielding objects with
    ``name`` and ``size`` attributes (a :class:`repro.nn.module.Module`);
    the function is duck-typed so the core layer does not depend on the nn
    substrate.
    """
    buckets: List[Tuple[str, int]] = []
    for index, parameter in enumerate(module.parameters()):
        name = getattr(parameter, "name", "") or f"param{index}"
        size = int(parameter.size)
        if size <= 0:
            raise ValueError(f"parameter {name!r} has no elements")
        buckets.append((name, size))
    if not buckets:
        raise ValueError("module has no parameters to bucket")
    return buckets


class BucketedSynchronizer(GradientSynchronizer):
    """Drives one :class:`SyncSession` per bucket, each its own SparDL.

    Parameters
    ----------
    cluster:
        The simulated cluster shared by every bucket.
    bucket_sizes:
        Element count of each contiguous bucket; they concatenate to the
        full flat gradient.
    config:
        The :class:`~repro.core.config.SparDLConfig` every bucket runs.
    bucket_names:
        Optional display names (defaults to ``bucket0..``).
    plan:
        Optional :class:`~repro.core.fusion.FusionPlan` this layout was
        derived from (set by ``api.make`` for ``buckets=auto`` specs).
        Stored as :attr:`fusion_plan` for introspection — the planner's
        predicted timeline and bucket counts surface in benchmark reports.
    """

    name = "Bucketed"

    def __init__(self, cluster: Transport, bucket_sizes: Sequence[int],
                 config: SparDLConfig,
                 bucket_names: Sequence[str] | None = None,
                 plan=None) -> None:
        sizes = [int(size) for size in bucket_sizes]
        if not sizes:
            raise ValueError("at least one bucket is required")
        if any(size <= 0 for size in sizes):
            raise ValueError("bucket sizes must be positive")
        super().__init__(cluster, sum(sizes))
        self.bucket_sizes = sizes
        if bucket_names is None:
            bucket_names = [f"bucket{i}" for i in range(len(sizes))]
        if len(bucket_names) != len(sizes):
            raise ValueError("bucket_names must match bucket_sizes")
        self.bucket_names = list(bucket_names)
        #: One session per bucket, each wrapping its own synchroniser.
        self.sessions: List[SyncSession] = [
            SyncSession(SparDLSynchronizer(cluster, [size], config)) for size in sizes]
        offsets = np.concatenate([[0], np.cumsum(sizes)]).tolist()
        #: ``(lo, hi)`` slice of every bucket in the flat gradient.
        self.slices: List[Tuple[int, int]] = list(zip(offsets[:-1], offsets[1:]))
        #: The fusion plan behind this layout, when one was used.
        self.fusion_plan = plan
        self.name = f"Bucketed[{len(sizes)}]({self.sessions[0].synchronizer.name})"

    # ------------------------------------------------------------------
    def apply_membership(self, num_workers: int, mapping: Dict[int, int]) -> None:
        """Every bucket remaps its own per-rank state (residual and velocity
        hand-off, teams, segments, warm cuts, compressor streams) for the
        new membership; the shared cluster is resized by the first and the
        others find it at the new size."""
        for session in self.sessions:
            session.synchronizer.apply_membership(num_workers, mapping)

    # ------------------------------------------------------------------
    @property
    def num_buckets(self) -> int:
        return len(self.bucket_sizes)

    @property
    def k(self) -> int:
        """Aggregate selection budget: the sum of the buckets' current
        ``k``.

        Sessions read this after every step, so a bucketed warm-up's
        resolved-``k`` trajectory is visible exactly like a flat one's.
        """
        return int(sum(session.synchronizer.k for session in self.sessions))

    def _step(self, gradients: Dict[int, np.ndarray], observer=None) -> SyncResult:
        """One bucketed step: slice, drive every bucket's session, and
        re-assemble the flat global gradients with aggregated statistics.

        Stage observers attach at the bucket level (each inner session runs
        the full five-stage pipeline); ``observer`` is therefore ignored
        here rather than fired with a context the buckets share.
        """
        self._validate(gradients)
        arrays = {rank: np.asarray(grad, dtype=np.float64)
                  for rank, grad in gradients.items()}
        results: List[SyncResult] = []
        for (lo, hi), session in zip(self.slices, self.sessions):
            outcome = session.step({rank: grad[lo:hi] for rank, grad in arrays.items()})
            results.append(outcome)
        stats = CommStats.merged(self.num_workers, (outcome.stats for outcome in results))
        if len(results) == 1:
            # One bucket spans the whole gradient: its (shared, read-only)
            # result is the result.
            global_gradients = results[0].global_gradients
        else:
            # Buckets hand every agreeing rank the same array, so ranks with
            # identical parts share one read-only concatenation too.
            assembled: Dict[Tuple[int, ...], np.ndarray] = {}
            global_gradients = {}
            for rank in arrays:
                parts = [outcome.global_gradients[rank] for outcome in results]
                key = tuple(id(part) for part in parts)
                if key not in assembled:
                    flat = assembled[key] = np.concatenate(parts)
                    flat.flags.writeable = False
                global_gradients[rank] = assembled[key]
        info = {
            "buckets": self.num_buckets,
            "bucket_names": list(self.bucket_names),
            "bucket_sizes": list(self.bucket_sizes),
            "k": int(sum(outcome.info["k"] for outcome in results)),
            "final_nnz": int(sum(outcome.info["final_nnz"] for outcome in results)),
            "per_bucket_info": [outcome.info for outcome in results],
            # Exchanges in forward order — how many elements, what traffic:
            # the overlap-aware iteration timing schedules these against the
            # backward slices (a bucket's exchange starts when its last
            # layer's slice ends) instead of pricing the merged aggregate.
            "group_sizes": list(self.bucket_sizes),
            "bucket_stats": [outcome.stats for outcome in results],
        }
        result = SyncResult(global_gradients=global_gradients, stats=stats, info=info)
        self.iteration += 1
        return result

    # ------------------------------------------------------------------
    # the abstract stage methods never run: _step overrides the flat driver
    # (buckets each run their own five-stage pipeline).
    def stage_exchange(self, context) -> None:  # pragma: no cover
        raise RuntimeError("BucketedSynchronizer drives per-bucket pipelines")

    def stage_combine(self, context) -> None:  # pragma: no cover
        raise RuntimeError("BucketedSynchronizer drives per-bucket pipelines")

    # ------------------------------------------------------------------
    def total_residual(self) -> np.ndarray:
        """Sum of every bucket's residual stores, assembled to full length,
        so ``global + total_residual() == exact dense sum`` holds exactly
        when it holds per bucket (GRES conservation)."""
        total = np.zeros(self.num_elements, dtype=np.float64)
        for (lo, hi), session in zip(self.slices, self.sessions):
            total[lo:hi] = session.synchronizer.residuals.total_residual()
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"BucketedSynchronizer(P={self.num_workers}, buckets={self.num_buckets}, "
                f"n={self.num_elements})")
