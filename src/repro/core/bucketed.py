"""Per-layer bucketed synchronisation (SSFusion-style).

The flat-vector synchronisers treat the model as one opaque gradient.
Real systems shard it: SSFusion fuses per-layer sparse tensors into
bucketed exchanges so selection and compression happen at tensor
granularity while communication does not pay per tensor.
:class:`BucketedSynchronizer` brings that shape here: the flat gradient is
sliced into contiguous buckets derived from the model's parameter shapes
(one per layer, or greedily fused up to a size cap), every bucket keeps its
own selection — own ``k`` and schedule position, own residual and warm-cut
state, own quantiser scale — and the aggregate still presents the plain
:class:`~repro.core.base.GradientSynchronizer` interface, so the trainer and
the benchmarks are oblivious.

Selection granularity and exchange granularity are separate decisions.
Every bucket runs SparDL under its own
:class:`~repro.core.config.SparDLConfig`, and consecutive buckets with
equal configurations form one **exchange group**: a single
:class:`~repro.core.spardl.SparDLSynchronizer` spanning their sizes, in
which every bucket is a set of segments of the block layout, so the group
pays the rounds of *one* SRS -> SAG -> All-Gather however many buckets it
holds (results are those of per-bucket synchronisers, bit for bit; only
rounds and messages differ).  Two things start a new group: a different
configuration (a per-bucket ``bits=`` override) and a
:class:`~repro.core.fusion.FusionPlan` (``buckets=auto``), whose every
bucket the planner already priced as an exchange of its own against the
backward pass.  :attr:`BucketedSynchronizer.sessions` /
:attr:`~BucketedSynchronizer.slices` are per group; groups synchronise one
after the other, so the aggregated :class:`~repro.comm.stats.CommStats`
adds the groups' rounds as well as their volumes.

``api.make`` builds this class only for those two cases.  A bucketed spec
whose buckets all share one configuration and no fusion plan is one
exchange group, and ``api.make`` returns that group's
:class:`~repro.core.spardl.SparDLSynchronizer` itself.

Note that bucketing changes *what is selected*: top-k runs per bucket, so
small layers are guaranteed representation in the global gradient (the
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

__all__ = ["BucketedSynchronizer", "layer_buckets", "fuse_buckets"]


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


def fuse_buckets(buckets: Sequence[Tuple[str, int]],
                 max_elements: int) -> List[Tuple[str, int]]:
    """Greedily fuse consecutive buckets up to ``max_elements`` apiece.

    This is SSFusion's fusion step: many small tensors share one exchange.
    A single bucket larger than the cap keeps its own bucket (it cannot be
    split without breaking the per-tensor selection semantics).
    """
    if max_elements <= 0:
        raise ValueError("max_elements must be positive")
    fused: List[Tuple[str, int]] = []
    group_names: List[str] = []
    group_size = 0
    for name, size in buckets:
        if group_size and group_size + size > max_elements:
            fused.append(("+".join(group_names), group_size))
            group_names, group_size = [], 0
        group_names.append(name)
        group_size += size
    if group_size:
        fused.append(("+".join(group_names), group_size))
    return fused


class BucketedSynchronizer(GradientSynchronizer):
    """Drives one :class:`SyncSession` per exchange group of buckets.

    Parameters
    ----------
    cluster:
        The simulated cluster shared by every bucket.
    bucket_sizes:
        Element count of each contiguous bucket; they concatenate to the
        full flat gradient.
    configs:
        One :class:`~repro.core.config.SparDLConfig` per bucket: what that
        bucket would run on its own.  Neighbouring buckets with equal
        configurations share one :class:`SparDLSynchronizer` (see the
        module notes).
    bucket_names:
        Optional display names (defaults to ``bucket0..``).
    plan:
        Optional :class:`~repro.core.fusion.FusionPlan` this layout was
        derived from (set by ``api.make`` for ``buckets=auto`` specs).
        Stored as :attr:`fusion_plan` for introspection — the planner's
        predicted timeline and bucket counts surface in benchmark reports —
        and it keeps every planned bucket an exchange of its own.
    """

    name = "Bucketed"

    def __init__(self, cluster: Transport, bucket_sizes: Sequence[int],
                 configs: Sequence[SparDLConfig],
                 bucket_names: Sequence[str] | None = None,
                 plan=None) -> None:
        sizes = [int(size) for size in bucket_sizes]
        if not sizes:
            raise ValueError("at least one bucket is required")
        if any(size <= 0 for size in sizes):
            raise ValueError("bucket sizes must be positive")
        if len(configs) != len(sizes):
            raise ValueError("configs must match bucket_sizes")
        super().__init__(cluster, sum(sizes))
        self.bucket_sizes = sizes
        if bucket_names is None:
            bucket_names = [f"bucket{i}" for i in range(len(sizes))]
        if len(bucket_names) != len(sizes):
            raise ValueError("bucket_names must match bucket_sizes")
        self.bucket_names = list(bucket_names)
        #: Exchange groups: ``groups[g]`` lists the buckets of group ``g``.
        self.groups: List[List[int]] = [[0]]
        for index in range(1, len(sizes)):
            if plan is None and configs[index] == configs[index - 1]:
                self.groups[-1].append(index)
            else:
                self.groups.append([index])
        #: One session per exchange group, each wrapping its own synchroniser.
        self.sessions: List[SyncSession] = [
            SyncSession(SparDLSynchronizer(
                cluster, [sizes[index] for index in group], configs[group[0]]))
            for group in self.groups]
        offsets = np.concatenate([[0], np.cumsum(sizes)]).tolist()
        #: ``(lo, hi)`` slice of every exchange group in the flat gradient.
        self.slices: List[Tuple[int, int]] = [
            (offsets[group[0]], offsets[group[-1] + 1]) for group in self.groups]
        #: The fusion plan behind this layout, when one was used.
        self.fusion_plan = plan
        self.name = f"Bucketed[{len(sizes)}]({self.sessions[0].synchronizer.name})"

    # ------------------------------------------------------------------
    def apply_membership(self, num_workers: int, mapping: Dict[int, int]) -> None:
        """Every group remaps its own per-rank state (residual and velocity
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
        """One bucketed step: slice, drive every group's session, and
        re-assemble the flat global gradients with aggregated statistics.

        Stage observers attach at the group level (each inner session runs
        the full five-stage pipeline); ``observer`` is therefore ignored
        here rather than fired with a context the groups share.
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
            # One group spans the whole gradient: its (shared, read-only)
            # result is the result.
            global_gradients = results[0].global_gradients
        else:
            # Groups hand every agreeing rank the same array, so ranks with
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
            # One entry per exchange group (each lists its buckets' shares
            # under ``bucket_k`` / ``bucket_final_nnz``).
            "per_bucket_info": [outcome.info for outcome in results],
            # Exchange groups in forward order — which buckets, how many
            # elements, what traffic: the overlap-aware iteration timing
            # schedules these against the backward slices (a group's
            # exchange starts when its last member's slice ends) instead of
            # pricing the merged aggregate.
            "groups": [list(group) for group in self.groups],
            "group_sizes": [hi - lo for lo, hi in self.slices],
            "bucket_stats": [outcome.stats for outcome in results],
        }
        result = SyncResult(global_gradients=global_gradients, stats=stats, info=info)
        self.iteration += 1
        return result

    # ------------------------------------------------------------------
    # the abstract stage methods never run: _step overrides the flat driver
    # (groups each run their own five-stage pipeline).
    def stage_exchange(self, context) -> None:  # pragma: no cover
        raise RuntimeError("BucketedSynchronizer drives per-group pipelines")

    def stage_combine(self, context) -> None:  # pragma: no cover
        raise RuntimeError("BucketedSynchronizer drives per-group pipelines")

    # ------------------------------------------------------------------
    def total_residual(self) -> np.ndarray:
        """Sum of every group's residual stores, assembled to full length,
        so ``global + total_residual() == exact dense sum`` holds exactly
        when it holds per group (GRES conservation)."""
        total = np.zeros(self.num_elements, dtype=np.float64)
        for (lo, hi), session in zip(self.slices, self.sessions):
            total[lo:hi] = session.synchronizer.residuals.total_residual()
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"BucketedSynchronizer(P={self.num_workers}, buckets={self.num_buckets}, "
                f"n={self.num_elements})")
