"""The SparDL framework (Fig. 4): SRS -> SAG -> intra-team All-Gather.

:class:`SparDLSynchronizer` stitches together the three algorithms of the
paper:

1. apply stored residuals, divide the ``P`` workers into ``d`` teams, and run
   **Spar-Reduce-Scatter** inside every team (block-wise top-k between
   transmission steps keeps every message at its target sparsity),
2. when ``d > 1``, run **Spar-All-Gather** (R-SAG or B-SAG) so workers at the
   same team position hold identical ``L = d*k/P`` sparse gradients,
3. run a **Bruck All-Gather** inside every team so every worker ends with the
   same global sparse gradient, and
4. let the **global residual collection** manager keep every value any
   sparsification dropped along the way.

Sparse payloads travel in the batched :class:`~repro.comm.packed.PackedBags`
wire format throughout (SRS bags and the Bruck all-gathers alike), so every
worker emits one message per communication step.

The gradient may be one tensor or the concatenation of several *buckets*
that are selected from separately — own ``k``, own warm cuts, own quantiser
scale and draws, own B-SAG ``h`` — and still share the one exchange: every
bucket is cut into ``P/d`` segments, SRS block ``j`` is segment ``j`` of
every bucket (:class:`~repro.sparse.blocks.BlockLayout`), and everything
per-bucket is an array over segments.  A step over ``B`` buckets costs the
rounds of one, and its result equals ``B`` synchronisers run on the slices.

When the configured density ``k/n`` reaches the dense-fallback crossover
(:meth:`SparDLConfig.resolve_dense_crossover`), the sparse pipeline is
skipped entirely in favour of a dense All-Reduce: past the crossover the COO
encoding moves more elements than the dense bandwidth lower bound and pays
the sparse bookkeeping on top, so falling back is strictly faster and exact.
The decision is about the wire, so it is taken once for the whole exchange,
from the buckets' aggregate ``k/n``.

The synchroniser implements :class:`repro.core.base.GradientSynchronizer`, so
the distributed trainer, the examples and the benchmarks can swap it with any
baseline method.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..comm.transport import Transport
from ..comm.collectives import _allreduce_dense, allgather_bruck_grouped
from ..comm.packed import PackedBags
from ..sparse.blocks import BlockLayout
from ..sparse.topk import WarmTopK
from ..sparse.vector import SparseGradient
from .base import GradientSynchronizer, shared_dense_gradients
from .config import SAGMode, SparDLConfig
from .pipeline import StepContext
from .residuals import ResidualManager
from .sag import CompressionRatioController, SAGOutput, b_sag, r_sag
from .srs import pack_blocks, spar_reduce_scatter

__all__ = ["SparDLSynchronizer", "make_teams"]


def make_teams(num_workers: int, num_teams: int) -> List[List[int]]:
    """Divide ranks ``0..P-1`` into ``d`` contiguous, equally sized teams."""
    if num_workers <= 0:
        raise ValueError("num_workers must be positive")
    if num_teams <= 0 or num_workers % num_teams != 0:
        raise ValueError("num_teams must divide num_workers")
    team_size = num_workers // num_teams
    return [list(range(t * team_size, (t + 1) * team_size)) for t in range(num_teams)]


class SparDLSynchronizer(GradientSynchronizer):
    """Sparse All-Reduce using the SparDL framework.

    Parameters
    ----------
    cluster:
        The :class:`~repro.comm.transport.Transport` to communicate
        on; its worker count must be divisible by ``config.num_teams``.
    num_elements:
        Length of the dense gradient vector every worker contributes — or
        the sizes of the buckets it concatenates, when they are to be
        selected from separately (the schedule resolves one ``k`` per
        bucket, from that bucket's size) while sharing the exchange.
    config:
        A :class:`~repro.core.config.SparDLConfig`; validated against the
        cluster at construction (see ``docs/configuration.md``).

    Calling :meth:`synchronize` with a ``{rank: dense gradient}`` mapping
    returns a :class:`~repro.core.base.SyncResult` whose
    ``global_gradients`` are identical on every worker.  Residual state
    lives in :attr:`residuals` (a
    :class:`~repro.core.residuals.ResidualManager`) and carries over
    between iterations, implementing error feedback.
    """

    name = "SparDL"

    def __init__(self, cluster: Transport, num_elements: Union[int, Sequence[int]],
                 config: SparDLConfig) -> None:
        sizes = ([int(num_elements)] if np.ndim(num_elements) == 0
                 else [int(size) for size in num_elements])
        if not sizes or min(sizes) <= 0:
            raise ValueError("num_elements must be positive")
        super().__init__(cluster, sum(sizes), schedule=config.resolve_schedule())
        config.validate_for_cluster(cluster.num_workers)
        self.config = config
        #: Sizes of the separately selected buckets the gradient concatenates.
        self.bucket_sizes = sizes
        self.residuals = ResidualManager(cluster.num_workers, self.num_elements,
                                         config.residual_policy)
        #: Per-(rank, segment) cuts of the last step's block top-k, reused by
        #: SRS phase 1 to select exactly from a few candidates.
        self.selector = WarmTopK()
        #: Crossover density at which the dense fallback engages.
        self.dense_crossover = config.resolve_dense_crossover()
        #: Per-iteration history of the merged non-zero count observed by the
        #: SAG step (the series plotted in Fig. 7).
        self.merged_nnz_history: List[float] = []
        self.name = config.describe()
        self._configure_compression(config.num_bits, config.momentum,
                                    streams=len(sizes))
        self._partition(config.num_teams,
                        [self.schedule.resolve(0, size) for size in sizes])

    def _partition(self, num_teams: int, ks: Sequence[int]) -> None:
        """Teams, block layout, budgets and per-rank controller state for
        the cluster's current size."""
        num_workers = self.cluster.num_workers
        self.num_teams = num_teams
        self.team_size = num_workers // num_teams
        self.teams = make_teams(num_workers, num_teams)
        self.layout = BlockLayout(self.num_elements, self.team_size,
                                  tuple(self.bucket_sizes))
        self.set_sparsity(ks)
        #: B-SAG compression-ratio controllers, one per bucket.
        self._controllers: List[CompressionRatioController] = []
        if num_teams > 1 and self.config.effective_sag_mode() is SAGMode.BSAG:
            self._controllers = [
                CompressionRatioController(k=k, num_workers=num_workers,
                                           num_teams=num_teams)
                for k in self.bucket_k]

    # ------------------------------------------------------------------
    @property
    def controller(self) -> Optional[CompressionRatioController]:
        """The B-SAG compression-ratio controller (``None`` unless B-SAG;
        the first bucket's when there are several)."""
        return self._controllers[0] if self._controllers else None

    def _resolve_sparsity(self) -> None:
        """One ``k`` per bucket, each resolved from that bucket's size."""
        ks = [int(self.schedule.resolve(self.iteration, size))
              for size in self.bucket_sizes]
        if ks != self.bucket_k:
            self.set_sparsity(ks)

    def set_sparsity(self, k: Union[int, Sequence[int]]) -> None:
        """Adopt a per-step ``k`` (schedule resolution) — one per bucket, a
        single number for a single bucket: recompute the per-segment budgets
        and the dense-fallback decision."""
        ks = [int(k)] if np.ndim(k) == 0 else [int(value) for value in k]
        if len(ks) != len(self.bucket_sizes):
            raise ValueError(
                f"{len(self.bucket_sizes)} buckets need one k each, got {len(ks)}")
        num_workers = self.cluster.num_workers
        #: The buckets' current ``k``; :attr:`k` is their sum.
        self.bucket_k = [max(1, min(size, value))
                         for size, value in zip(self.bucket_sizes, ks)]
        self.k = sum(self.bucket_k)
        #: Non-zeros kept per segment of each bucket: ``k/P`` when d=1,
        #: ``L = d*k/P`` in general.  Rounded up so that k = n degenerates to
        #: an exact dense All-Reduce (a block is never forced below its own
        #: size by integer division).
        per_bucket = [max(1, -(-value * self.num_teams // num_workers))
                      for value in self.bucket_k]
        self.segment_k = np.repeat(np.array(per_bucket, dtype=np.int64),
                                   self.team_size)
        #: Non-zeros kept per block, over all of its segments.
        self.k_block = sum(per_bucket)
        #: True when the current ``k`` bypasses the sparse pipeline.
        self.uses_dense_fallback = self.k / self.num_elements >= self.dense_crossover

    # ------------------------------------------------------------------
    # elastic membership
    # ------------------------------------------------------------------
    def apply_membership(self, num_workers: int, mapping: Dict[int, int]) -> None:
        """Re-partition for a new worker count between iterations.

        The base class hands the residual stores off first (crashed ranks'
        stores and velocities are absorbed by their successors, so
        conservation holds across the transition) and rebuilds the
        quantizer; then teams, block layout, per-segment budgets and the
        B-SAG controllers are rebuilt for the new ``P``.  The team count is
        re-resolved as the largest divisor of the new ``P`` not exceeding
        the configured ``num_teams`` — Theorem 1 requires teams of equal
        size, and crashes rarely preserve divisibility.
        """
        super().apply_membership(num_workers, mapping)
        num_teams = 1
        for candidate in range(min(self.config.num_teams, num_workers), 0, -1):
            if num_workers % candidate == 0:
                num_teams = candidate
                break
        self.selector.clear()
        self._partition(num_teams, self.bucket_k)

    # ------------------------------------------------------------------
    # the staged pipeline
    # ------------------------------------------------------------------
    def stage_compress(self, context: StepContext) -> None:
        """Wire encoding of the step, driven by the quantizer.

        On the sparse path this is the identity.  The dense-fallback path
        sends everything, so every store releases its corrected buffer to
        the collective here — quantized first when ``config.num_bits`` is
        set (one draw per worker, the exact error stays in that worker's
        residual store); on the sparse path the selection is interleaved
        with the SRS transmissions, so the quantizer is applied inside
        :meth:`stage_exchange` instead — right after each block-wise top-k,
        i.e. the moment a value first reaches the wire.  Momentum correction
        acts through the residual manager and leaves the wire untouched.
        """
        if self.uses_dense_fallback:
            self._compress_dense(context)
        else:
            context.wire = context.selected

    def stage_select(self, context: StepContext) -> None:
        """Residual add (SRS phase 1), in place: ``context.selected`` holds
        the residual stores' own buffers, which stage hooks may read but
        must not write.  SparDL's block-wise top-k selection is interleaved
        with the SRS transmissions, so the selection proper lives inside
        :meth:`stage_exchange`; on a sparse step the add goes through
        :attr:`selector`, which (compiled kernels) collects every segment's
        candidates in the same sweep and seeds the cuts it lacks."""
        if self.uses_dense_fallback:
            context.selected = self.residuals.apply(context.gradients)
        else:
            context.selected = self.residuals.apply(
                context.gradients, self.selector, self.layout.edges,
                self.segment_k)

    def stage_exchange(self, context: StepContext) -> None:
        """SRS inside every team, then Spar-All-Gather across teams — or the
        exact dense All-Reduce past the density crossover."""
        if self.uses_dense_fallback:
            context.exchanged, context.scratch["bucket_nnz"] = _allreduce_dense(
                self.cluster, context.wire, price=self.wire_size,
                edges=self.layout.edges[::self.team_size])
            context.scratch["dense_fallback"] = True
            return
        # SRS selects from the residual stores: ``context.wire`` is them.
        srs_out = spar_reduce_scatter(
            cluster=self.cluster,
            teams=self.teams,
            layout=self.layout,
            k_block=self.segment_k,
            residuals=self.residuals,
            sparsify_all=self.config.sparsify_all_blocks,
            compressor=self.stack,
            selector=self.selector,
        )
        tracer = self.cluster.tracer
        if tracer is not None:
            self.selector.publish(tracer.metrics)
            tracer.metrics.gauge("residuals.sweep_workers").set(
                self.residuals.sweep_workers)
        sag_out = self._run_sag(srs_out.reduced_blocks)
        context.scratch["srs"] = srs_out
        context.scratch["sag"] = sag_out
        context.exchanged = sag_out.blocks if sag_out is not None else srs_out.reduced_blocks

    def stage_combine(self, context: StepContext) -> None:
        """Bruck All-Gather inside every team and merge into the per-worker
        global gradients."""
        if context.scratch.get("dense_fallback"):
            # The dense collective already hands every worker one
            # read-only array, and counted its non-zeros per bucket.
            context.global_gradients = context.exchanged
            bucket_nnz = context.scratch["bucket_nnz"]
            context.info = {
                "k": self.k,
                "k_block": self.k_block,
                "num_teams": self.num_teams,
                "final_nnz": sum(bucket_nnz),
                "bucket_k": list(self.bucket_k),
                "bucket_final_nnz": bucket_nnz,
                "srs_steps": 0,
                "max_bag_nnz_per_step": [],
                "dense_fallback": True,
                "dense_crossover": self.dense_crossover,
            }
            return
        final = self._intra_team_allgather(context.exchanged)
        reference = final[next(iter(final))]
        context.global_sparse = final
        context.reference = reference
        context.global_gradients = shared_dense_gradients(final)
        srs_out = context.scratch["srs"]
        sag_out = context.scratch["sag"]
        info = {
            "k": self.k,
            "k_block": self.k_block,
            "num_teams": self.num_teams,
            "final_nnz": reference.nnz,
            # Per bucket: every separately selected tensor's own share.
            "bucket_k": list(self.bucket_k),
            "bucket_final_nnz": np.diff(np.searchsorted(
                reference.indices, self.layout.edges[::self.team_size])).tolist(),
            "srs_steps": srs_out.num_steps,
            "max_bag_nnz_per_step": srs_out.max_bag_nnz_per_step,
            "dense_fallback": False,
        }
        if sag_out is not None:
            info.update({
                "sag_steps": sag_out.num_steps,
                "sag_merged_nnz_max": sag_out.merged_nnz_max,
                "sag_merged_nnz_mean": sag_out.merged_nnz_mean,
                "sag_h": sag_out.h_used,
            })
        context.info = info

    def stage_residual_update(self, context: StepContext) -> None:
        """Resolve held-back (PRES) discards against the final index set,
        which is identical on every worker.  A dense-fallback step drops
        nothing, so there is nothing to resolve."""
        if context.scratch.get("dense_fallback"):
            return
        self.residuals.finalize(context.reference.indices)

    def _run_sag(self, blocks: Dict[int, SparseGradient]) -> Optional[SAGOutput]:
        """Synchronise teams with R-SAG or B-SAG (no-op when ``d == 1``)."""
        if self.num_teams == 1:
            return None
        if not self._controllers:
            output = r_sag(self.cluster, self.teams, blocks, self.segment_k,
                           self.residuals, self.layout, self.wire_size)
        else:
            hs = [controller.h for controller in self._controllers]
            output = b_sag(self.cluster, self.teams, blocks, self.segment_k,
                           hs[0] if len(hs) == 1 else np.repeat(hs, self.team_size),
                           self.residuals, self.layout, self.wire_size)
            for controller, merged in zip(self._controllers, output.bucket_nnz_max):
                controller.update(merged)
        self.merged_nnz_history.append(float(output.merged_nnz_mean))
        return output

    def _intra_team_allgather(self, blocks: Dict[int, SparseGradient]) -> Dict[int, SparseGradient]:
        """Bruck All-Gather of the per-position blocks inside every team,
        assembled into one sparse gradient per team: the bags are the
        layout's segments — disjoint index ranges, numbered in index order —
        so putting them in that order is the whole merge.  Bruck hands every
        member of a team the same packs in group order, so the members
        share the one assembled object."""
        if self.team_size == 1:
            return dict(blocks)
        packed = {rank: pack_blocks(self.layout, [position], [blocks[rank]])
                  for team in self.teams for position, rank in enumerate(team)}
        gathered = allgather_bruck_grouped(self.cluster, self.teams, packed,
                                           self.wire_size)
        final: Dict[int, SparseGradient] = {}
        for team in self.teams:
            final.update(dict.fromkeys(team, PackedBags.concat_by_id(gathered[team[0]])))
        return final
