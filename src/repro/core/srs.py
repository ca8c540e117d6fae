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
   is the local residual and nothing is copied.  Every worker's vector is
   selected from in one :meth:`~repro.sparse.topk.WarmTopK.select_segments`
   call: when the caller applied through the synchroniser's selector
   (compiled kernels), that one sweep over a worker's ``n`` values also
   found each segment's candidates and their magnitudes, and phase 1 ranks
   the candidates of every (worker, segment) together; otherwise the
   selector compares each segment against its cut here.  A segment has a
   cut from its first selection on (seeded from a sample, then remembered);
   only one whose cut admits too few entries runs the full partition.  The
   selection is ``top_k_indices`` index for index on every path, and it is
   taken out of every worker's store at once
   (:meth:`~repro.core.residuals.ResidualManager.take_rows`);
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
``k_block`` is an array with one entry per segment.  A held block is one
sorted COO across that block's segments, and every merge and
re-sparsification works segment by segment.  One bucket is the plain case
of the paper: a block is one segment, ``k_block`` one number.

Held blocks and rounds
----------------------
Every worker's held blocks live in one flat COO buffer pair per step,
worker after worker; a worker's blocks are laid out in the order they leave
it (the bag of step 1, of step 2, ..., its own block last) and every block
bucket segment by bucket segment, with one offsets table over (worker,
block, segment).  Phase 1 builds it with one permutation of the selection;
after that, each transmission step is **one** :func:`srs_round` call for
every worker of every team: it merge-adds every received block into the
held one (held first, ``0.0 + a + b``), re-sparsifies the target blocks
with the selection of ``top_k_indices`` and hands the dropped entries to
the residual policy — added into the worker's store under GRES, returned as
one span per worker (one held-back discard) under PRES, forgotten
otherwise — and writes the next step's buffer.  With the compiled kernels
that is ``srs_round_f64``; :func:`srs_round_numpy` is the NumPy statement
it equals bit for bit.

Wire format
-----------
A bag is a contiguous span of its sender's held buffer, so its message is a
read-only zero-copy :class:`~repro.comm.packed.PackedBags` view and each
worker emits exactly **one message per transmission step** no matter how
many blocks the bag holds or buckets a block spans.  The message keeps one
bag per *segment* (ids are segment numbers): whatever is accounted per bag —
the scale a quantised message carries — stays per (bucket, block).  Ids and
offsets ride as zero-cost header metadata and ``comm_size`` is derived from
the packed arrays alone (two elements per non-zero, the paper's COO
convention).  The round reads each received bag where the transport
delivered it, through a pointer and offsets table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import (TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple,
                    Union)

import numpy as np

from ..comm.transport import Message, Transport, payload_size
from ..comm.packed import PackedBags
from ..sparse.blocks import BlockLayout
from ..sparse.ckernels import get_kernels
from ..sparse.topk import WarmTopK, segmented_top_k
from ..sparse.vector import SparseGradient
from .partition import plan_bags, transmission_distances
from .residuals import ResidualManager, ResidualPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..compression.quantization import QuantizedCompressor

__all__ = ["SRSOutput", "spar_reduce_scatter", "srs_round", "srs_round_numpy",
           "pack_blocks", "sparsify_block", "segment_budgets"]


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
    #: Blocks re-sparsified after a merge, over every worker and step — the
    #: work the paper's "Optimization for SRS" saves.
    resparsified: int = 0


# ---------------------------------------------------------------------------
# blocks that span segments: budgets, re-sparsification, packing
# ---------------------------------------------------------------------------
def segment_budgets(layout: BlockLayout, keep: Union[int, Sequence[int]]) -> np.ndarray:
    """``keep`` as one positive ``int64`` budget per segment of ``layout``
    (a single number serves every segment)."""
    keep = np.asarray(keep)
    segments = len(layout.bounds)
    if keep.ndim > 1 or (keep.ndim == 1 and keep.shape[0] != segments):
        raise ValueError(f"the budget needs one entry per segment of the layout "
                         f"({segments}), got {keep.size}")
    if keep.dtype.kind not in "biu" and not (
            np.isfinite(keep) & (keep == np.round(keep))).all():
        raise ValueError(f"the per-segment budget must be an integer, got {keep}")
    budgets = keep.astype(np.int64)
    if (budgets <= 0).any():
        raise ValueError("the per-segment budget must be positive")
    return np.broadcast_to(budgets, (segments,))


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


# ---------------------------------------------------------------------------
# one transmission step for every worker
# ---------------------------------------------------------------------------
#: ``(offsets, indices, values)`` of a held buffer.
Held = Tuple[np.ndarray, np.ndarray, np.ndarray]
#: Per worker, the ``(indices, values)`` buffers of the bag it received.
Inbox = Sequence[Optional[Tuple[np.ndarray, np.ndarray]]]


def srs_round(sent: int, held: Held, inbox: Inbox, in_bounds: np.ndarray,
              targets: np.ndarray, ks: np.ndarray,
              rows: Optional[Sequence[np.ndarray]] = None, defer: bool = False
              ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[Held]]:
    """One transmission step of SRS for every worker at once.

    ``held`` is the step's held buffer: segment ``b`` of block slot ``s``
    of worker ``r`` holds ``indices[o:p]`` / ``values[o:p]``, ``o, p`` the
    ``(r * (sent + slots) + s) * buckets + b``-th offset and the next, where
    ``ks`` has the shape ``(workers, slots, buckets)``.  The first ``sent``
    slots of every worker have just left it.  Slot ``j`` of the ``slots``
    that stay (slot ``sent + j``):

    1. is merge-added with bag ``b`` of what worker ``r`` received for it,
       ``inbox[r]`` between ``in_bounds[r, j, b, 0]`` and ``[..., 1]`` —
       held first, ``0.0 + a + b`` where both hold an index and ``0.0 + x``
       elsewhere (:meth:`SparseGradient.merge_many`); when either block is empty
       in every bucket, the other is taken as it is;
    2. where ``targets[r, j]``, keeps its ``ks[r, j, b]`` (positive)
       largest magnitudes in every segment — ties to the lower index, NaN
       lowest — and drops the rest: adds them into ``rows[r]`` when
       ``rows`` is given, and returns them when ``defer``.

    Returns ``(offsets, indices, values, discards)``: the next held buffer,
    ``slots`` slots per worker, and ``None`` or ``(offsets, indices,
    values)`` of the dropped entries, worker ``r``'s between ``offsets[r]``
    and ``offsets[r + 1]`` (unique indices, slot by slot).  The compiled
    ``srs_round_f64`` runs it when the kernels are loaded,
    :func:`srs_round_numpy` otherwise; the two are equal bit for bit."""
    kernels = get_kernels()
    run = srs_round_numpy if kernels is None else kernels.srs_round
    return run(sent, held, inbox, in_bounds, targets, ks, rows, defer)


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``concatenate([arange(a, a + n) for a, n in zip(starts, lengths)])``."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(
        ends[-1] if ends.shape[0] else 0)


def srs_round_numpy(sent: int, held: Held, inbox: Inbox, in_bounds: np.ndarray,
                    targets: np.ndarray, ks: np.ndarray,
                    rows: Optional[Sequence[np.ndarray]] = None,
                    defer: bool = False
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[Held]]:
    """:func:`srs_round` in NumPy: every segment of every worker merged in
    one stable sort, and cut in one :func:`~repro.sparse.topk.segmented_top_k`."""
    offsets, held_indices, held_values = held
    workers, slots, buckets = ks.shape
    cells = workers * slots * buckets
    staying = (slice(None), slice(sent, None))
    held_lo = offsets[:-1].reshape(workers, -1, buckets)[staying].ravel()
    held_n = np.diff(offsets).reshape(workers, -1, buckets)[staying].ravel()
    sizes = np.array([0 if box is None else box[0].shape[0] for box in inbox],
                     dtype=np.int64)
    present = [box for box in inbox if box is not None]
    in_indices = np.concatenate([box[0] for box in present] + [np.empty(0, np.int64)])
    in_values = np.concatenate([box[1] for box in present] + [np.empty(0)])
    base = np.cumsum(sizes) - sizes
    in_lo = (in_bounds[..., 0] + base[:, None, None]).ravel()
    in_n = (in_bounds[..., 1] - in_bounds[..., 0]).ravel()
    mine, theirs = _ranges(held_lo, held_n), _ranges(in_lo, in_n)
    cell = np.concatenate((np.repeat(np.arange(cells), held_n),
                           np.repeat(np.arange(cells), in_n)))
    indices = np.concatenate((held_indices[mine], in_indices[theirs]))
    values = np.concatenate((held_values[mine], in_values[theirs]))
    order = np.lexsort((indices, cell))  # stable: on a shared index, held first
    cell, indices, values = cell[order], indices[order], values[order]
    second = np.zeros(cell.shape[0], dtype=bool)
    second[1:] = (cell[1:] == cell[:-1]) & (indices[1:] == indices[:-1])
    first = ~second
    # A block merges (0.0 + a + b) unless one side of it is empty throughout.
    both = ((held_n.reshape(-1, buckets).sum(1) > 0)
            & (in_n.reshape(-1, buckets).sum(1) > 0))
    cell, indices, merged = cell[first], indices[first], values[first]
    normal = np.repeat(both, buckets)[cell]
    merged[normal] += 0.0
    merged[np.cumsum(first)[second] - 1] += values[second]
    counts = np.bincount(cell, minlength=cells)
    cut = np.repeat(targets.ravel().astype(bool), buckets)
    keep, _, _ = segmented_top_k(np.abs(merged), np.concatenate(([0], np.cumsum(counts))),
                                 np.where(cut, ks.ravel(), counts))
    out_offsets = np.concatenate(([0], np.cumsum(np.bincount(cell[keep], minlength=cells))))
    drop = ~keep
    drop_indices, drop_values = indices[drop], merged[drop]
    drop_offsets = np.concatenate(([0], np.cumsum(np.bincount(
        cell[drop] // (slots * buckets), minlength=workers))))
    if rows is not None:
        if drop_indices.shape[0] and not (
                0 <= drop_indices.min() and drop_indices.max() < rows[0].shape[0]):
            raise ValueError("a dropped index lies outside the rows")
        for worker, row in enumerate(rows):
            span = slice(drop_offsets[worker], drop_offsets[worker + 1])
            row[drop_indices[span]] += drop_values[span]
    discards = (drop_offsets, drop_indices, drop_values) if defer else None
    return out_offsets, indices[keep], merged[keep], discards


# ---------------------------------------------------------------------------
def _send_order(team_size: int) -> Tuple[np.ndarray, List[int]]:
    """``(order, bag sizes)``: row ``p`` of ``order`` lists the blocks of the
    worker at team position ``p`` in the order they leave it — bag after
    bag, its own block last — and ``bag sizes[i]`` of them leave at step
    ``i + 1`` (the same number at every position)."""
    plans = [plan_bags(position, team_size) for position in range(team_size)]
    steps = range(1, plans[0].num_steps + 1)
    order = np.array([[block for step in steps for block in plan.bag_for_step(step)]
                      + [plan.preserved] for plan in plans], dtype=np.int64)
    return order, [len(plans[0].bag_for_step(step)) for step in steps]


def _frozen(*arrays: np.ndarray) -> None:
    for array in arrays:
        array.flags.writeable = False


def spar_reduce_scatter(
    cluster: Transport,
    teams: Sequence[Sequence[int]],
    layout: BlockLayout,
    k_block: Union[int, Sequence[int]],
    residuals: ResidualManager,
    sparsify_all: bool = False,
    compressor: Optional["QuantizedCompressor"] = None,
    selector: Optional[WarmTopK] = None,
) -> SRSOutput:
    """Run SRS concurrently inside every team.

    Parameters
    ----------
    teams:
        Disjoint lists of global worker ranks; all teams must have the same
        size ``m`` and ``layout.num_blocks`` must equal ``m``.
    layout:
        The block layout of the gradient vector (``residuals.num_elements``
        long).
    k_block:
        Non-zeros kept per segment after every sparsification (the paper's
        ``k/P``, or ``L = dk/P`` when teams are used): one positive integer,
        or one per segment of ``layout`` when its buckets have budgets of
        their own.
    residuals:
        Residual manager whose stores hold the corrected vectors — what
        ``residuals.apply(...)`` made of the step's gradients — and that
        receives the in-procedure discards.  The selections are taken out of
        the stores, which keep the local residuals.
    sparsify_all:
        When True, re-sparsify every held block after each summation instead
        of only the blocks about to be sent (paper's pre-optimisation
        behaviour).
    compressor:
        Optional :class:`~repro.compression.quantization.QuantizedCompressor`
        (or any object honouring its ``compress_sparse -> (payload, error)``
        and ``price(payload) -> float`` contract).
        When given, a worker's selection is folded through it immediately
        after its local top-k — the moment its values first reach the wire
        — segment by segment (each is a message of its own: own scale, the
        owning worker's draws for that bucket), and the exact compression
        error of that draw is collected as a local residual.  Later
        transmission steps forward merge-sums of the compressed blocks
        unchanged, and every message is priced by the compressor's
        :meth:`~repro.compression.quantization.QuantizedCompressor.price`
        (without one, by :func:`~repro.comm.transport.payload_size`).
    selector:
        The synchroniser's :class:`~repro.sparse.topk.WarmTopK`, keyed by
        ``(rank, segment)``: it runs the exact top-k on the few candidates
        that reach each segment's cut — remembered from the previous step,
        or seeded from a sample — those ``residuals.apply(gradients,
        selector, layout.edges, k_block)`` left with it, or the ones it
        finds itself.  ``None`` uses a fresh one.
    """
    team_size = _validate_teams(cluster, teams, layout)
    if layout.length != residuals.num_elements:
        raise ValueError(f"layout covers {layout.length} elements, the residual "
                         f"stores {residuals.num_elements}")
    budgets = segment_budgets(layout, k_block)
    if selector is None:
        selector = WarmTopK()
    price = payload_size if compressor is None else compressor.price
    ranks = [rank for team in teams for rank in team]
    workers, buckets, length = len(ranks), layout.num_buckets, layout.length
    positions = np.tile(np.arange(team_size), len(teams))
    order, bag_sizes = _send_order(team_size)
    order = order[positions]
    #: Where each block stands in its worker's send order.
    standing = np.argsort(order, axis=1)
    #: The segments of every worker's blocks, as they are laid out.
    segments = order[:, :, None] + team_size * np.arange(buckets)

    # ------------------------------------------------------------------
    # 1. local sparsification of every worker, in one selection
    # ------------------------------------------------------------------
    rows = residuals.buffers(ranks)
    picked = selector.select_segments(ranks, rows, layout.edges, budgets)
    values = residuals.take_rows(ranks, picked)
    # A selection takes min(budget, length) entries of every segment.
    taken = np.minimum(budgets, np.diff(layout.edges))
    starts = np.concatenate(([0], np.cumsum(taken)))
    if compressor is not None:
        for row, rank in enumerate(ranks):
            quantized, quantization_error = compressor.compress_sparse(
                rank, SparseGradient.from_sorted_unique(picked[row], values[row], length),
                starts)
            residuals.collect_local_sparse(rank, quantization_error)
            values[row] = quantized.values
    lengths = taken[segments].ravel()
    regroup = _ranges(
        (starts[:-1][segments] + starts[-1] * np.arange(workers)[:, None, None]).ravel(),
        lengths)
    held: Held = (np.concatenate(([0], np.cumsum(lengths))),
                  picked.ravel()[regroup], values.ravel()[regroup])
    _frozen(*held)

    # ------------------------------------------------------------------
    # 2. transmission with sparsification
    # ------------------------------------------------------------------
    by_team = np.array(teams, dtype=np.int64)
    team_of = np.repeat(np.arange(len(teams)), team_size)
    scatter = rows if residuals.policy is ResidualPolicy.GLOBAL else None
    defer = residuals.policy is ResidualPolicy.PARTIAL
    distances = transmission_distances(team_size)
    max_bag_nnz_per_step: List[int] = []
    sent = resparsified = 0
    for step, (distance, size) in enumerate(zip(distances, bag_sizes), start=1):
        offsets, indices, values = held
        # Every worker sends its first `size` held blocks: one contiguous span.
        first = np.arange(workers) * (team_size - sent) * buckets
        spans = offsets[first[:, None] + np.arange(size * buckets + 1)]
        max_bag_nnz_per_step.append(int(np.diff(spans, axis=1).reshape(
            workers, size, buckets).sum(axis=2).max()))
        bags = spans - spans[:, :1]
        _frozen(bags)
        ids = segments[:, sent:sent + size].reshape(workers, -1).tolist()
        destinations = by_team[team_of, (positions + distance) % team_size].tolist()
        # One message per (worker, step).  SRS bags are ``lossy``: only the
        # block owner's final value degrades if one is lost (its mass
        # returns to the sender's residual store), and the downstream
        # all-gather keeps every worker consistent — so SRS can degrade
        # gracefully where the SAG/all-gather steps cannot.
        packs = [PackedBags(ids=tuple(ids[row]), offsets=bags[row],
                            indices=indices[lo:hi], values=values[lo:hi], length=length)
                 for row, (lo, hi) in enumerate(zip(spans[:, 0].tolist(),
                                                    spans[:, -1].tolist()))]
        messages = [Message(src=rank, dst=destinations[row], payload=pack,
                            size=price(pack), tag=f"srs-{step}", lossy=True)
                    for row, (rank, pack) in enumerate(zip(ranks, packs))]
        inboxes = cluster.exchange(messages)
        sent += size
        slots = team_size - sent
        inbox, in_bounds = _receive(inboxes, ranks, standing, sent, slots, buckets)
        targets = np.zeros((workers, slots), dtype=bool)
        if sparsify_all:
            targets[:] = True
        else:  # the next bag, or the worker's own block after the last step
            targets[:, :bag_sizes[step] if step < len(bag_sizes) else 1] = True
        resparsified += int(np.count_nonzero(targets))
        ks = budgets.reshape(buckets, team_size).T[order[:, sent:]]
        *kept, discards = srs_round(size, held, inbox, in_bounds, targets,
                                    ks, scatter, defer)
        held = tuple(kept)
        _frozen(*held)
        if discards is not None:
            bounds, dropped_indices, dropped_values = discards
            for row, rank in enumerate(ranks):
                lo, hi = bounds[row], bounds[row + 1]
                if hi > lo:
                    residuals.defer_procedure(rank, dropped_indices[lo:hi],
                                              dropped_values[lo:hi])

    # ------------------------------------------------------------------
    # 3. the reduced block of every worker: all it holds now
    # ------------------------------------------------------------------
    offsets, indices, values = held
    bounds = offsets[::buckets].tolist()
    reduced_blocks = {
        rank: SparseGradient.from_sorted_unique(indices[lo:hi], values[lo:hi], length)
        for rank, lo, hi in zip(ranks, bounds, bounds[1:])}
    return SRSOutput(
        reduced_blocks=reduced_blocks,
        owned_block=dict(zip(ranks, positions.tolist())),
        layout=layout,
        num_steps=len(distances),
        max_bag_nnz_per_step=max_bag_nnz_per_step,
        resparsified=resparsified,
    )


def _receive(inboxes: Dict[int, List[Message]], ranks: Sequence[int],
             standing: np.ndarray, sent: int, slots: int, buckets: int
             ) -> Tuple[Inbox, np.ndarray]:
    """The inbox of :func:`srs_round`: every worker's received buffers and
    where each bag of them merges — into the slot its block holds among the
    ``slots`` the worker still has.  Theorem 1 says it holds every block it
    receives; a block it no longer holds raises ``RuntimeError``."""
    team_size = standing.shape[1]
    inbox: List[Optional[Tuple[np.ndarray, np.ndarray]]] = [None] * len(ranks)
    in_bounds = np.zeros((len(ranks), slots, buckets, 2), dtype=np.int64)
    rows, payloads = [], []
    for row, rank in enumerate(ranks):
        received = inboxes.get(rank)
        if not received:
            continue
        if len(received) > 1:
            raise RuntimeError(f"worker {rank} received {len(received)} messages "
                               "in one SRS step")
        payload = received[0].payload
        rows.append(row)
        payloads.append(payload)
        inbox[row] = (payload.indices, payload.values)
    if not payloads:
        return inbox, in_bounds
    bags = [payload.num_bags for payload in payloads]
    ids = np.fromiter(chain.from_iterable(payload.ids for payload in payloads),
                      dtype=np.int64, count=sum(bags))
    rows = np.repeat(rows, bags)
    blocks = ids % team_size
    slot = standing[rows, blocks] - sent
    if (slot < 0).any():
        late = int(np.flatnonzero(slot < 0)[0])
        raise RuntimeError(
            f"Theorem 1 violated: worker {ranks[rows[late]]} received block "
            f"{blocks[late]} it no longer holds")
    in_bounds[rows, slot, ids // team_size] = np.stack((
        np.concatenate([payload.offsets[:-1] for payload in payloads]),
        np.concatenate([payload.offsets[1:] for payload in payloads])), axis=1)
    return inbox, in_bounds


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
