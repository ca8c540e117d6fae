"""Spar-All-Gather (SAG): inter-team synchronisation (Section III-D).

After Spar-Reduce-Scatter has run inside every team, the worker at position
``j`` of team ``t`` holds the team-reduced sparse block ``j``.  SAG makes the
workers at the same position of *all* teams hold the same ``L = d*k/P``
sparse gradients, so that the final intra-team All-Gather produces identical
global gradients on every worker.

Two variants are provided, exactly as in the paper:

* :func:`r_sag` — recursive-doubling exchange between teams, usable when the
  number of teams ``d`` is a power of two.  Both sides of an exchange hold
  the same data after summation and drop the same values after the top-L
  selection, so each side collects *half* of the discarded mass as residual.
* :func:`b_sag` — Bruck All-Gather between teams.  Re-sparsifying during a
  Bruck exchange would give different workers different compression orders
  (and therefore different final gradients), so B-SAG instead applies a
  single top-``h`` selection *before* the exchange and a top-``L`` selection
  after it.  ``h`` is adapted across iterations by
  :class:`CompressionRatioController` (Algorithm 2), which drives the
  post-exchange non-zero count towards ``L``.

Both variants ship sparse payloads in the batched
:class:`~repro.comm.packed.PackedBags` wire format: a worker's block travels
as one buffer pair with one bag per segment (one bag when the gradient is a
single bucket; see :mod:`repro.core.srs` on blocks, segments and buckets),
billed by the ``price`` the caller passes (default ``payload_size``: the
pack's ``comm_size``).  Receivers decode zero-copy
views and merge them with the compiled kernels.  With a ``layout`` whose
buckets have budgets of their own, ``keep`` (and B-SAG's ``h``) hold one
entry per segment and every selection is a segmented top-k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from ..comm.transport import Message, Transport, payload_size
from ..comm.collectives import allgather_bruck_grouped
from ..sparse.blocks import BlockLayout
from ..sparse.vector import SparseGradient
from .residuals import ResidualManager
from .srs import pack_blocks, segment_budgets, sparsify_block

__all__ = [
    "CompressionRatioController",
    "SAGOutput",
    "cross_team_groups",
    "r_sag",
    "b_sag",
]


def cross_team_groups(teams: Sequence[Sequence[int]]) -> List[List[int]]:
    """Groups of workers that occupy the same position in every team.

    ``teams`` is a list of ``d`` teams of equal size ``m``; the result is a
    list of ``m`` groups of size ``d``: group ``j`` holds the ``j``-th worker
    of every team.  These are the workers that exchange data during SAG.
    """
    if not teams:
        raise ValueError("at least one team is required")
    sizes = {len(team) for team in teams}
    if len(sizes) != 1:
        raise ValueError("all teams must have the same size")
    team_size = sizes.pop()
    return [[team[pos] for team in teams] for pos in range(team_size)]


@dataclass
class SAGOutput:
    """Result of a Spar-All-Gather step."""

    #: Global worker rank -> synchronised sparse block (identical across the
    #: workers of one cross-team group).
    blocks: Dict[int, SparseGradient]
    #: Number of communication steps used by the SAG exchange.
    num_steps: int
    #: Number of non-zeros held by the busiest worker after merging but
    #: before the final top-L selection (the quantity plotted in Fig. 7).
    merged_nnz_max: int = 0
    #: Mean of the same quantity over workers.
    merged_nnz_mean: float = 0.0
    #: The ``h`` used by B-SAG for this iteration (``None`` for R-SAG; one
    #: per bucket when the buckets have their own).
    h_used: Union[None, int, List[int]] = None
    #: Per bucket, the busiest worker's merged non-zeros inside that bucket
    #: (what each bucket's :class:`CompressionRatioController` steers by).
    bucket_nnz_max: List[int] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Algorithm 2: compression ratio adjustment for B-SAG
# ---------------------------------------------------------------------------
class CompressionRatioController:
    """Adaptive choice of the pre-exchange top-``h`` count of B-SAG.

    Implements Algorithm 2 of the paper, which is modelled on TCP congestion
    window adjustment: the step size keeps its sign while the observed
    non-zero count stays on the same side of the target ``L``, doubling after
    two consecutive moves in the same direction, and is halved and reversed
    when the count crosses the target.

    Parameters
    ----------
    k:
        Total number of selected gradients per worker (the paper's ``k``).
    num_workers:
        Cluster size ``P``.
    num_teams:
        Team count ``d``.
    """

    def __init__(self, k: int, num_workers: int, num_teams: int) -> None:
        if k <= 0:
            raise ValueError("k must be positive")
        if num_workers <= 0 or num_teams <= 0:
            raise ValueError("num_workers and num_teams must be positive")
        if num_teams > num_workers:
            raise ValueError("cannot have more teams than workers")
        self.k = int(k)
        self.num_workers = int(num_workers)
        self.num_teams = int(num_teams)
        #: Target non-zero count after the exchange: ``L(k, d, P) = d*k/P``.
        self.target = max(1.0, self.num_teams * self.k / self.num_workers)
        #: Lower / upper bounds for ``h``: entirely non-overlapping vs
        #: entirely overlapping index sets between teams.
        self.h_min = max(1.0, self.k / self.num_workers)
        self.h_max = max(self.h_min, self.num_teams * self.k / self.num_workers)
        self._h = self.h_min
        initial = 0.01 * self.k * max(self.num_teams - 1, 1) / self.num_workers
        self._step = max(initial, 1e-9)
        self._flag = False
        self.history: List[float] = []

    @property
    def h(self) -> int:
        """Current top-``h`` count (integer, clamped to ``[h_min, h_max]``)."""
        return int(max(1, round(min(max(self._h, self.h_min), self.h_max))))

    @property
    def step(self) -> float:
        return self._step

    def update(self, observed_nnz: float) -> int:
        """Adjust ``h`` given the non-zero count observed after the exchange.

        Returns the new integer ``h`` to use at the next iteration.
        """
        same_direction = (observed_nnz > self.target) ^ (self._step > 0)
        if same_direction:
            if self._flag:
                self._step *= 2.0
                self._flag = False
            else:
                self._flag = True
        else:
            self._step = -self._step * 0.5
            self._flag = False
        self._h += self._step
        self._h = min(max(self._h, self.h_min), self.h_max)
        self.history.append(self._h)
        return self.h


# ---------------------------------------------------------------------------
# R-SAG: recursive doubling between teams (d a power of two)
# ---------------------------------------------------------------------------
def _team_layout(teams: Sequence[Sequence[int]], blocks: Dict[int, SparseGradient],
                 layout: Optional[BlockLayout]) -> BlockLayout:
    """``layout``, or the one-bucket layout of a plain call."""
    if layout is not None:
        return layout
    length = next(iter(blocks.values())).length
    return BlockLayout(length, len(teams[0]))


def r_sag(
    cluster: Transport,
    teams: Sequence[Sequence[int]],
    blocks: Dict[int, SparseGradient],
    keep: Union[int, Sequence[int]],
    residuals: ResidualManager,
    layout: Optional[BlockLayout] = None,
    price: Callable[[Any], float] = payload_size,
) -> SAGOutput:
    """Recursive-doubling Spar-All-Gather.

    Parameters
    ----------
    teams:
        The ``d`` teams used by SRS; ``d`` must be a power of two.
    blocks:
        Per-worker reduced sparse block from SRS.
    keep:
        Non-zeros to keep after each exchange (the paper's ``L = d*k/P``);
        one per segment of ``layout`` when its buckets differ.
    residuals:
        Receives half of every discarded value (both exchange partners drop
        the same values, so each keeps a half share).
    layout:
        The SRS block layout (default: one bucket, a block is one segment).
    price:
        The billed wire size of a payload (the synchroniser's ``wire_size``).
    """
    num_teams = len(teams)
    if num_teams < 1:
        raise ValueError("at least one team is required")
    if num_teams & (num_teams - 1):
        raise ValueError("R-SAG requires a power-of-two number of teams")
    layout = _team_layout(teams, blocks, layout)
    budgets = segment_budgets(layout, keep)

    current = {rank: blocks[rank] for team in teams for rank in team}
    if num_teams == 1:
        return SAGOutput(blocks=current, num_steps=0,
                         merged_nnz_max=max((b.nnz for b in current.values()), default=0),
                         merged_nnz_mean=_mean_nnz(current))

    groups = cross_team_groups(teams)
    num_steps = int(math.log2(num_teams))
    merged_max = 0
    merged_sum = 0.0
    merged_count = 0

    for step in range(num_steps):
        distance = 1 << step
        messages: List[Message] = []
        for position, group in enumerate(groups):
            for team_index, rank in enumerate(group):
                partner = group[team_index ^ distance]
                payload = pack_blocks(layout, [position], [current[rank]])
                messages.append(Message(src=rank, dst=partner, payload=payload,
                                        size=price(payload), tag=f"rsag-{step}"))
        inboxes = cluster.exchange(messages)
        # After step ``t`` the 2^(t+1) teams of a recursive-doubling cohort all
        # hold identical merged data and drop identical values, so each worker
        # keeps a 1/2^(t+1) share of the discard (the paper states "half" for
        # its d=2 setting; the general share keeps the conservation invariant
        # for larger d).
        share = 1.0 / float(2 << step)
        for position, group in enumerate(groups):
            for rank in group:
                current[rank] = SparseGradient.merge_many(
                    [current[rank]] + [message.payload.span()
                                       for message in inboxes.get(rank, [])])
                merged_max = max(merged_max, current[rank].nnz)
                merged_sum += current[rank].nnz
                merged_count += 1
                current[rank], dropped = sparsify_block(
                    layout, position, current[rank], budgets)
                residuals.collect_procedure(rank, dropped, share=share)

    return SAGOutput(
        blocks=current,
        num_steps=num_steps,
        merged_nnz_max=merged_max,
        merged_nnz_mean=merged_sum / merged_count if merged_count else 0.0,
    )


# ---------------------------------------------------------------------------
# B-SAG: Bruck All-Gather between teams with adaptive top-h (any d)
# ---------------------------------------------------------------------------
def b_sag(
    cluster: Transport,
    teams: Sequence[Sequence[int]],
    blocks: Dict[int, SparseGradient],
    keep: Union[int, Sequence[int]],
    h: Union[int, Sequence[int]],
    residuals: ResidualManager,
    layout: Optional[BlockLayout] = None,
    price: Callable[[Any], float] = payload_size,
) -> SAGOutput:
    """Bruck-based Spar-All-Gather.

    Each worker first applies a top-``h`` selection to its block, the
    cross-team groups then run a Bruck All-Gather (no sparsification during
    the exchange, which keeps every group member's result identical), the
    gathered blocks are merge-summed and finally re-sparsified to ``keep``
    non-zeros.  The discarded values of the final selection are identical on
    every member of a group, so each collects a ``1/d`` share.  ``keep`` and
    ``h`` hold one entry per segment of ``layout`` when its buckets differ;
    ``price`` bills every message, as in :func:`r_sag`.
    """
    num_teams = len(teams)
    if num_teams < 1:
        raise ValueError("at least one team is required")
    layout = _team_layout(teams, blocks, layout)
    budgets = segment_budgets(layout, keep)
    pre_budgets = segment_budgets(layout, h)
    h_used = h if np.ndim(h) == 0 else pre_budgets[::layout.num_blocks].tolist()

    current = {rank: blocks[rank] for team in teams for rank in team}
    if num_teams == 1:
        return SAGOutput(blocks=current, num_steps=0,
                         merged_nnz_max=max((b.nnz for b in current.values()), default=0),
                         merged_nnz_mean=_mean_nnz(current), h_used=h_used)

    # Pre-exchange top-h selection.  The dropped values are unique to this
    # worker (different teams hold different team-reduced data), so the full
    # share is collected.
    groups = cross_team_groups(teams)
    selected: Dict[int, object] = {}
    for position, group in enumerate(groups):
        for rank in group:
            kept, dropped = sparsify_block(layout, position, current[rank],
                                           pre_budgets)
            selected[rank] = pack_blocks(layout, [position], [kept])
            residuals.collect_procedure(rank, dropped, share=1.0)

    gathered = allgather_bruck_grouped(cluster, groups, selected, price)

    merged_max = 0
    merged_sum = 0.0
    merged_count = 0
    bucket_max = np.zeros(layout.num_buckets, dtype=np.int64)
    result: Dict[int, SparseGradient] = {}
    for position, group in enumerate(groups):
        for rank in group:
            merged = SparseGradient.merge_many(
                [packed.span() for packed in gathered[rank]])
            merged_max = max(merged_max, merged.nnz)
            merged_sum += merged.nnz
            merged_count += 1
            np.maximum(bucket_max, np.diff(
                layout.segment_offsets(position, merged.indices)), out=bucket_max)
            result[rank], dropped = sparsify_block(layout, position, merged, budgets)
            # Every member of the group discards the same values.
            residuals.collect_procedure(rank, dropped, share=1.0 / num_teams)

    num_steps = max(1, math.ceil(math.log2(num_teams)))
    return SAGOutput(
        blocks=result,
        num_steps=num_steps,
        merged_nnz_max=merged_max,
        merged_nnz_mean=merged_sum / merged_count if merged_count else 0.0,
        h_used=h_used,
        bucket_nnz_max=bucket_max.tolist(),
    )


def _mean_nnz(blocks: Dict[int, SparseGradient]) -> float:
    if not blocks:
        return 0.0
    return sum(b.nnz for b in blocks.values()) / len(blocks)
