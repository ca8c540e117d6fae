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
   ``k_block`` entries of each block are *taken out of the store* — what
   stays behind is the local residual and nothing is copied.  When the
   caller applied through the synchroniser's
   :class:`~repro.sparse.topk.WarmTopK` (compiled kernels), that one sweep
   over a worker's ``n`` values also found each block's candidates, and
   phase 1 reads only those (``abs`` + partition on a few ``k_block``
   values per block); otherwise the selector compares each block against
   its remembered cut here, and a block without a usable cut runs the full
   partition.  The selection is ``top_k_indices`` index for index on
   every path;
2. blocks are grouped into bags (:mod:`repro.core.partition`);
3. for ``l = ceil(log2 m)`` steps, bags are forwarded to the worker at
   distance ``2^(l-i)`` and received blocks are merge-summed into the
   receiver's held blocks;
4. re-sparsification keeps every held block at ``k_block`` non-zeros — by
   default only the blocks about to be sent next are re-sparsified (the
   paper's "Optimization for SRS"); ``sparsify_all=True`` restores the
   unoptimised behaviour for the ablation benchmark.

Teams run SRS concurrently: all teams share communication rounds, exactly as
the paper's ``P/d``-worker teams operate in parallel.

Wire format
-----------
By default every bag is shipped *batched*: the per-block COO arrays of one
bag are concatenated into a single :class:`~repro.comm.packed.PackedBags`
buffer pair, so each worker emits exactly **one message per transmission
step** no matter how many blocks the bag holds.  Block ids ride as zero-cost
header metadata and ``comm_size`` is derived from the packed arrays alone
(two elements per non-zero, the paper's COO convention).  Receivers decode
each block as a zero-copy slice view (``from_sorted_unique``) and merge it
with the compiled ``merge_add`` kernel.  ``wire_format="per-block"`` keeps
the unbatched wiring — one message per block per step — for the batching
benchmark; both formats move identical bytes and produce bit-identical
reduced blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

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

__all__ = ["SRSOutput", "spar_reduce_scatter", "WIRE_FORMATS"]

#: Supported SRS wire formats: batched (one PackedBags message per worker and
#: step) and unbatched (one message per block per step).
WIRE_FORMATS = ("packed", "per-block")


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
    #: Diagnostic: per-step maximum number of non-zeros in any sent bag.
    max_bag_nnz_per_step: List[int] = field(default_factory=list)


def spar_reduce_scatter(
    cluster: Transport,
    teams: Sequence[Sequence[int]],
    gradients: Dict[int, np.ndarray],
    layout: BlockLayout,
    k_block: int,
    residuals: ResidualManager,
    sparsify_all: bool = False,
    wire_format: str = "packed",
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
        block selections go through ``residuals.take``, which leaves the
        local residual in that same buffer.
    k_block:
        Non-zeros kept per block after every sparsification (the paper's
        ``k/P``, or ``L = dk/P`` when teams are used).
    residuals:
        Residual manager the selections are taken from and that receives
        the in-procedure discards.
    sparsify_all:
        When True, re-sparsify every held block after each summation instead
        of only the blocks about to be sent (paper's pre-optimisation
        behaviour).
    wire_format:
        ``"packed"`` (default) batches each bag into one
        :class:`~repro.comm.packed.PackedBags` message per (worker, step);
        ``"per-block"`` sends one message per block per step (the unbatched
        wiring, kept for the batching benchmark).  Both move identical
        element counts and produce bit-identical results.
    compressor:
        Optional wire-transforming
        :class:`~repro.compression.stack.CompressorStack` (or any object
        honouring its ``compress_sparse -> (payload, error)`` contract).
        When given, every block is folded through it immediately after its
        local top-k — the moment its values first reach the wire — using the
        owning worker's independent random stream, and the exact
        compression error of that draw is collected as a local residual.
        Later transmission steps forward merge-sums of the compressed blocks
        unchanged; the synchroniser's installed pricer bills them at the
        compressed accounting.
    selector:
        The synchroniser's :class:`~repro.sparse.topk.WarmTopK`, keyed by
        ``(rank, block)``: it reuses each block's cut of the previous step
        to run the exact top-k on a few candidates — those
        ``residuals.apply(gradients, selector, layout.edges)`` left with
        it, or the ones it finds itself.  ``None`` selects cold.
    """
    team_size = _validate_teams(cluster, teams, layout)
    if k_block <= 0:
        raise ValueError("k_block must be positive")
    if wire_format not in WIRE_FORMATS:
        raise ValueError(f"wire_format must be one of {WIRE_FORMATS}, got {wire_format!r}")
    packed_wire = wire_format == "packed"

    # ------------------------------------------------------------------
    # 1. partitioning + local sparsification
    # ------------------------------------------------------------------
    if selector is None:
        selector = WarmTopK()
    held: Dict[int, Dict[int, SparseGradient]] = {}
    plans: Dict[int, BagPlan] = {}
    for team in teams:
        for position, rank in enumerate(team):
            corrected = gradients[rank]
            blocks: Dict[int, SparseGradient] = {}
            for block, lo, hi in layout.iter_blocks():
                picked = selector.select((rank, block), corrected[lo:hi], k_block)
                picked += lo
                selected = residuals.take(rank, picked)
                if compressor is not None:
                    selected, quantization_error = compressor.compress_sparse(
                        rank, selected)
                    residuals.collect_local_sparse(rank, quantization_error)
                blocks[block] = selected
            held[rank] = blocks
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
                plan = plans[rank]
                bag_blocks = plan.bag_for_step(step_index)
                pieces = []
                for block in bag_blocks:
                    sparse_block = held[rank].pop(block)
                    pieces.append(sparse_block)
                    step_max_nnz = max(step_max_nnz, sparse_block.nnz)
                dst = team[(position + distance) % team_size]
                if packed_wire:
                    # One message per (worker, step): the whole bag travels as
                    # one contiguous buffer pair.  Block ids are header
                    # metadata; comm_size comes from the packed arrays alone.
                    # SRS bags are ``lossy``: only the block owner's final
                    # value degrades if one is lost (its mass returns to the
                    # sender's residual store), and the downstream all-gather
                    # keeps every worker consistent — so SRS can degrade
                    # gracefully where the SAG/all-gather steps cannot.
                    messages.append(Message(src=rank, dst=dst,
                                             payload=PackedBags.pack(pieces, ids=bag_blocks),
                                             tag=f"srs-{step_index}",
                                             lossy=True))
                else:
                    # Unbatched wiring: one message per block.  Block ids are
                    # still metadata, so each message bills the COO payload
                    # only.
                    for block, sparse_block in zip(bag_blocks, pieces):
                        messages.append(Message(src=rank, dst=dst,
                                                 payload=(block, sparse_block),
                                                 size=sparse_block.comm_size,
                                                 tag=f"srs-{step_index}",
                                                 lossy=True))
        inboxes = cluster.exchange(messages)
        max_bag_nnz_per_step.append(step_max_nnz)

        for team in teams:
            for position, rank in enumerate(team):
                for message in inboxes.get(rank, []):
                    if isinstance(message.payload, PackedBags):
                        received = message.payload.items()
                    else:
                        received = [message.payload]
                    for block, sparse_block in received:
                        if block not in held[rank]:
                            raise RuntimeError(
                                f"Theorem 1 violated: worker {rank} received block {block} "
                                "it no longer holds"
                            )
                        held[rank][block] = held[rank][block].add(sparse_block)

                plan = plans[rank]
                if sparsify_all:
                    targets: Tuple[int, ...] = tuple(held[rank])
                elif step_index < num_steps:
                    targets = plan.bag_for_step(step_index + 1)
                else:
                    targets = (plan.preserved,)
                for block in targets:
                    kept, dropped = held[rank][block].top_k(k_block)
                    held[rank][block] = kept
                    residuals.collect_procedure(rank, dropped)

    # ------------------------------------------------------------------
    # 3. collect the reduced block of every worker
    # ------------------------------------------------------------------
    reduced_blocks: Dict[int, SparseGradient] = {}
    owned_block: Dict[int, int] = {}
    for team in teams:
        for position, rank in enumerate(team):
            remaining = held[rank]
            if set(remaining) != {plans[rank].preserved}:
                raise RuntimeError(
                    f"worker {rank} should hold exactly its preservation block after SRS, "
                    f"holds {sorted(remaining)}"
                )
            block = plans[rank].preserved
            if team_size == 1:
                # No transmission happened; enforce the target sparsity here.
                kept, dropped = remaining[block].top_k(k_block)
                remaining[block] = kept
                residuals.collect_procedure(rank, dropped)
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
