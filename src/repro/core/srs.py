"""Spar-Reduce-Scatter (SRS), the paper's Section III-B.

SRS reduces the workers' sparse gradient blocks so that, at the end, every
worker holds the fully reduced sparse block matching its own rank — the
Reduce-Scatter result — while re-sparsifying between transmission steps so
that message sizes never grow (this is how SparDL resolves the SGA dilemma
without extra transmissions).

The algorithm:

1. every worker's gradient is added into its residual store (the caller's
   :meth:`~repro.core.residuals.ResidualManager.apply`), the corrected
   vector is partitioned into ``m`` blocks (``m`` = team size) and the top
   entries of each block are *taken out of the store* — what stays behind
   is the local residual and nothing is copied.  The whole vector is
   selected from in one :meth:`~repro.sparse.topk.WarmTopK.select_segments`
   call per worker: when the caller applied through the synchroniser's
   selector (compiled kernels), that one sweep over a worker's ``n`` values
   also found each segment's candidates and their magnitudes, and phase 1
   ranks only those; otherwise the selector compares each segment against
   its cut here.  A segment has a cut from its first selection on (seeded
   from a sample, then remembered); only one whose cut admits too few
   entries runs the full partition.  The selection is ``top_k_indices``
   index for index on every path;
2. blocks are grouped into bags (:mod:`repro.core.partition`);
3. for ``l = ceil(log2 m)`` steps, bags are forwarded to the worker at
   distance ``2^(l-i)`` and received blocks are merge-summed into the
   receiver's held blocks;
4. re-sparsification keeps every held block at its budget — by default only
   the blocks about to be sent next are re-sparsified (the paper's
   "Optimization for SRS"); ``sparsify_all=True`` restores the unoptimised
   behaviour for the ablation benchmark.

Teams run SRS concurrently: all teams share communication rounds, exactly as
the paper's ``P/d``-worker teams operate in parallel.

Blocks, segments and buckets
----------------------------
The gradient may concatenate several *buckets* — tensors that are selected
from separately, each with its own ``k`` — and still be reduced by one SRS:
the :class:`~repro.sparse.blocks.BlockLayout` cuts every bucket into ``m``
segments, block ``j`` is segment ``j`` of every bucket, and the budget
``k_block`` is an array with one entry per segment.  What a worker holds
for a block is one sorted COO across that block's segments, so a received
block costs one ``merge_add`` however many buckets it spans, and a
re-sparsification is one segmented top-k
(:meth:`~repro.sparse.vector.SparseGradient.top_k_segments`).  One bucket is
the plain case of the paper: a block is one segment, ``k_block`` one number.

Wire format
-----------
Every bag is shipped *batched*: the COO arrays of its blocks are
concatenated into a single :class:`~repro.comm.packed.PackedBags` buffer
pair, so each worker emits exactly **one message per transmission step** no
matter how many blocks the bag holds or buckets a block spans.  The message
keeps one bag per *segment* (ids are segment numbers): whatever is accounted
per bag — the scale a quantised message carries — stays per (bucket, block).
Ids and offsets ride as zero-cost header metadata and ``comm_size`` is
derived from the packed arrays alone (two elements per non-zero, the paper's
COO convention).  Receivers decode each block as a zero-copy view
(:meth:`~repro.comm.packed.PackedBags.span`) and merge it with the compiled
``merge_add`` kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..comm.transport import Message, Transport
from ..comm.packed import PackedBags
from ..sparse.blocks import BlockLayout
from ..sparse.topk import WarmTopK
from ..sparse.vector import SparseGradient
from .partition import BagPlan, plan_bags, transmission_distances
from .residuals import ResidualManager

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..compression.stack import CompressorStack

__all__ = ["SRSOutput", "spar_reduce_scatter", "pack_blocks", "sparsify_block",
           "segment_budgets"]


@dataclass
class SRSOutput:
    """Result of Spar-Reduce-Scatter."""

    #: Global worker rank -> reduced sparse block (in global coordinates).
    reduced_blocks: Dict[int, SparseGradient]
    #: Global worker rank -> index (within the team's block layout) of the
    #: block that worker now owns.
    owned_block: Dict[int, int]
    #: Block layout shared by every team.
    layout: BlockLayout
    #: Number of transmission steps that were executed.
    num_steps: int = 0
    #: Diagnostic: per-step maximum number of non-zeros in any sent block.
    max_bag_nnz_per_step: List[int] = field(default_factory=list)


# ---------------------------------------------------------------------------
# blocks that span segments: budgets, re-sparsification, packing
# ---------------------------------------------------------------------------
def segment_budgets(layout: BlockLayout, keep: Union[int, Sequence[int]]) -> np.ndarray:
    """``keep`` as one positive ``int64`` budget per segment of ``layout``
    (a single number serves every segment)."""
    budgets = np.broadcast_to(np.asarray(keep, dtype=np.int64),
                              (len(layout.bounds),))
    if (budgets <= 0).any():
        raise ValueError("the per-segment budget must be positive")
    return budgets


def sparsify_block(layout: BlockLayout, block: int, sparse: SparseGradient,
                   budgets: np.ndarray) -> Tuple[SparseGradient, SparseGradient]:
    """Re-sparsify ``sparse``, entries of block ``block``, to ``budgets[s]``
    non-zeros in each of its segments; returns ``(kept, dropped)``."""
    ks = budgets[block::layout.num_blocks]
    if sparse.nnz <= ks.min():  # no segment can be over its budget
        return sparse, SparseGradient.empty(sparse.length)
    return sparse.top_k_segments(
        layout.segment_offsets(block, sparse.indices), ks)


def pack_blocks(layout: BlockLayout, blocks: Sequence[int],
                pieces: Sequence[SparseGradient]) -> PackedBags:
    """One message payload for ``pieces``, entries of the blocks ``blocks``:
    one bag per segment, ids are the segment numbers."""
    return PackedBags.pack_split(
        pieces,
        [layout.segment_offsets(block, piece.indices)
         for block, piece in zip(blocks, pieces)],
        [s for block in blocks for s in layout.block_segments(block)])


def spar_reduce_scatter(
    cluster: Transport,
    teams: Sequence[Sequence[int]],
    gradients: Dict[int, np.ndarray],
    layout: BlockLayout,
    k_block: Union[int, Sequence[int]],
    residuals: ResidualManager,
    sparsify_all: bool = False,
    compressor: Optional["CompressorStack"] = None,
    selector: Optional[WarmTopK] = None,
) -> SRSOutput:
    """Run SRS concurrently inside every team.

    Parameters
    ----------
    teams:
        Disjoint lists of global worker ranks; all teams must have the same
        size ``m`` and ``layout.num_blocks`` must equal ``m``.
    gradients:
        What ``residuals.apply(...)`` returned: per worker, the store's own
        buffer holding gradient + residual.  Read here, never written; the
        selections go through ``residuals.take``, which leaves the local
        residual in that same buffer.
    k_block:
        Non-zeros kept per segment after every sparsification (the paper's
        ``k/P``, or ``L = dk/P`` when teams are used): one number, or one
        per segment of ``layout`` when its buckets have budgets of their
        own.
    residuals:
        Residual manager the selections are taken from and that receives
        the in-procedure discards.
    sparsify_all:
        When True, re-sparsify every held block after each summation instead
        of only the blocks about to be sent (paper's pre-optimisation
        behaviour).
    compressor:
        Optional wire-transforming
        :class:`~repro.compression.stack.CompressorStack` (or any object
        honouring its ``compress_sparse -> (payload, error)`` contract).
        When given, a worker's selection is folded through it immediately
        after its local top-k — the moment its values first reach the wire
        — segment by segment (each is a message of its own: own scale, the
        owning worker's draws for that bucket), and the exact compression
        error of that draw is collected as a local residual.  Later
        transmission steps forward merge-sums of the compressed blocks
        unchanged; the synchroniser's installed pricer bills them at the
        compressed accounting.
    selector:
        The synchroniser's :class:`~repro.sparse.topk.WarmTopK`, keyed by
        ``(rank, segment)``: it runs the exact top-k on the few candidates
        that reach each segment's cut — remembered from the previous step,
        or seeded from a sample — those ``residuals.apply(gradients,
        selector, layout.edges, k_block)`` left with it, or the ones it
        finds itself.  ``None`` uses a fresh one.
    """
    team_size = _validate_teams(cluster, teams, layout)
    budgets = segment_budgets(layout, k_block)

    # ------------------------------------------------------------------
    # 1. partitioning + local sparsification
    # ------------------------------------------------------------------
    if selector is None:
        selector = WarmTopK()
    # A selection takes min(budget, length) entries of every segment, so
    # where each segment and each block sits in it is known beforehand.
    taken = np.minimum(budgets, np.diff(layout.edges))
    offsets = np.concatenate(([0], np.cumsum(taken)))
    by_block = np.arange(taken.shape[0]).reshape(-1, team_size).T.ravel()
    regrouped = np.concatenate(([0], np.cumsum(taken[by_block])))
    block_edges = regrouped[::layout.num_buckets].tolist()
    regroup = None  # the selection's entries, reordered block by block
    if layout.num_buckets > 1:
        regroup = (np.repeat(offsets[by_block] - regrouped[:-1], taken[by_block])
                   + np.arange(offsets[-1]))
    held: Dict[int, Dict[int, SparseGradient]] = {}
    plans: Dict[int, BagPlan] = {}
    for team in teams:
        for position, rank in enumerate(team):
            picked = selector.select_segments(rank, gradients[rank],
                                              layout.edges, budgets)
            selected = residuals.take(rank, picked)
            if compressor is not None:
                selected, quantization_error = compressor.compress_sparse(
                    rank, selected, offsets)
                residuals.collect_local_sparse(rank, quantization_error)
            indices, values = selected.indices, selected.values
            if regroup is not None:
                indices, values = indices[regroup], values[regroup]
            held[rank] = {
                block: SparseGradient.from_sorted_unique(
                    indices[lo:hi], values[lo:hi], selected.length)
                for block, (lo, hi) in enumerate(zip(block_edges, block_edges[1:]))}
            plans[rank] = plan_bags(position, team_size)

    distances = transmission_distances(team_size)
    num_steps = len(distances)
    max_bag_nnz_per_step: List[int] = []

    # ------------------------------------------------------------------
    # 2. transmission with sparsification
    # ------------------------------------------------------------------
    for step_index, distance in enumerate(distances, start=1):
        messages: List[Message] = []
        step_max_nnz = 0
        for team in teams:
            for position, rank in enumerate(team):
                bag_blocks = plans[rank].bag_for_step(step_index)
                pieces = [held[rank].pop(block) for block in bag_blocks]
                step_max_nnz = max(step_max_nnz, *(piece.nnz for piece in pieces))
                # One message per (worker, step): the whole bag travels as
                # one contiguous buffer pair.  SRS bags are ``lossy``: only
                # the block owner's final value degrades if one is lost (its
                # mass returns to the sender's residual store), and the
                # downstream all-gather keeps every worker consistent — so
                # SRS can degrade gracefully where the SAG/all-gather steps
                # cannot.
                messages.append(Message(
                    src=rank, dst=team[(position + distance) % team_size],
                    payload=pack_blocks(layout, bag_blocks, pieces),
                    tag=f"srs-{step_index}", lossy=True))
        inboxes = cluster.exchange(messages)
        max_bag_nnz_per_step.append(step_max_nnz)

        for team in teams:
            for rank in team:
                blocks = held[rank]
                for message in inboxes.get(rank, []):
                    payload = message.payload
                    for first in range(0, payload.num_bags, layout.num_buckets):
                        block = payload.ids[first] % team_size
                        if block not in blocks:
                            raise RuntimeError(
                                f"Theorem 1 violated: worker {rank} received block {block} "
                                "it no longer holds"
                            )
                        blocks[block] = blocks[block].add(
                            payload.span(first, first + layout.num_buckets))

                plan = plans[rank]
                if sparsify_all:
                    targets: Tuple[int, ...] = tuple(blocks)
                elif step_index < num_steps:
                    targets = plan.bag_for_step(step_index + 1)
                else:
                    targets = (plan.preserved,)
                for block in targets:
                    blocks[block], dropped = sparsify_block(
                        layout, block, blocks[block], budgets)
                    residuals.collect_procedure(rank, dropped)

    # ------------------------------------------------------------------
    # 3. collect the reduced block of every worker
    # ------------------------------------------------------------------
    reduced_blocks: Dict[int, SparseGradient] = {}
    owned_block: Dict[int, int] = {}
    for team in teams:
        for rank in team:
            remaining = held[rank]
            block = plans[rank].preserved
            if set(remaining) != {block}:
                raise RuntimeError(
                    f"worker {rank} should hold exactly its preservation block after SRS, "
                    f"holds {sorted(remaining)}"
                )
            # With a team of one no transmission happened, and phase 1
            # already left the block at its budget.
            reduced_blocks[rank] = remaining[block]
            owned_block[rank] = block

    return SRSOutput(
        reduced_blocks=reduced_blocks,
        owned_block=owned_block,
        layout=layout,
        num_steps=num_steps,
        max_bag_nnz_per_step=max_bag_nnz_per_step,
    )


# ---------------------------------------------------------------------------
def _validate_teams(cluster: Transport, teams: Sequence[Sequence[int]],
                    layout: BlockLayout) -> int:
    if not teams:
        raise ValueError("at least one team is required")
    sizes = {len(team) for team in teams}
    if len(sizes) != 1:
        raise ValueError("all teams must have the same size")
    team_size = sizes.pop()
    if team_size == 0:
        raise ValueError("teams must not be empty")
    if layout.num_blocks != team_size:
        raise ValueError(
            f"layout has {layout.num_blocks} blocks but teams have {team_size} workers"
        )
    seen = set()
    for team in teams:
        for rank in team:
            if rank in seen:
                raise ValueError(f"worker {rank} appears in more than one team")
            if not 0 <= rank < cluster.num_workers:
                raise ValueError(f"worker {rank} outside cluster of size {cluster.num_workers}")
            seen.add(rank)
    return team_size
