"""Shared plumbing for the baseline sparse All-Reduce methods.

Every baseline follows the same outline the paper describes for the
competitors (TopkA, TopkDSA, gTopk, Ok-Topk): add the stored residual to the
new local gradient, sparsify, run a method-specific exchange, and keep the
values the sparsifications dropped according to the method's residual
policy.  :class:`SparseBaseline` owns the shared state (resolved ``k`` and a
:class:`~repro.core.residuals.ResidualManager`); subclasses implement only
the exchange itself.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..comm.packed import PackedBags
from ..comm.transport import Message, Transport
from ..core.base import GradientSynchronizer, shared_dense_gradients
from ..core.pipeline import StepContext
from ..core.residuals import ResidualManager, ResidualPolicy
from ..core.schedules import KSchedule, coerce_schedule
from ..sparse.topk import WarmTopK
from ..sparse.vector import SparseGradient

__all__ = ["SparseBaseline", "power_of_two_split"]


def power_of_two_split(num_workers: int) -> Tuple[int, int]:
    """Split ``P`` into ``(p2, r)`` with ``p2`` the largest power of two not
    exceeding ``P`` and ``r = P - p2`` the number of "extra" workers folded
    in and out of a recursive-doubling exchange (the standard MPI trick for
    non-power-of-two worker counts)."""
    if num_workers <= 0:
        raise ValueError("num_workers must be positive")
    p2 = 1 << (num_workers.bit_length() - 1)
    return p2, num_workers - p2


class SparseBaseline(GradientSynchronizer):
    """Base class for the baseline sparse synchronisation methods.

    Parameters
    ----------
    cluster, num_elements:
        As for :class:`~repro.core.base.GradientSynchronizer`.
    k, density:
        Sparsity of the local selection; exactly one must be given (unless a
        ``schedule`` object carrying its own target is passed instead).
    schedule:
        Optional :class:`~repro.core.schedules.KSchedule` (or spec string
        such as ``"warmup:5"``) resolving the per-step ``k``.  ``None``
        keeps the constant ``k``/``density``, bit for bit.
    residual_policy:
        Error-feedback policy used by the method (the paper's competitors use
        local or partial residual collection).
    """

    def __init__(self, cluster: Transport, num_elements: int, *,
                 k: Optional[int] = None, density: Optional[float] = None,
                 schedule: Optional[KSchedule | str] = None,
                 residual_policy: ResidualPolicy | str = ResidualPolicy.LOCAL) -> None:
        super().__init__(cluster, num_elements,
                         schedule=coerce_schedule(schedule, k=k, density=density))
        self.k = self.schedule.resolve(0, num_elements)
        self.residuals = ResidualManager(cluster.num_workers, num_elements,
                                         residual_policy)
        #: Per-rank cut of the last step's local top-k (the whole vector is
        #: one segment): the selector SparDL's phase 1 uses, so that the
        #: methods' wall-clock compares at the same selection cost.
        self.selector = WarmTopK()

    def set_sparsity(self, k: int) -> None:
        """Adopt a per-step ``k`` (schedule resolution)."""
        self.k = max(1, min(self.num_elements, int(k)))

    # ------------------------------------------------------------------
    def stage_select(self, context: StepContext) -> None:
        context.selected = self.local_select(context.gradients)

    def stage_residual_update(self, context: StepContext) -> None:
        """Resolve deferred (PRES) procedure discards at the final global
        index set."""
        self.residuals.finalize(context.reference.indices)

    def local_select(self, gradients: Dict[int, np.ndarray]) -> Dict[int, SparseGradient]:
        """Residual-corrected local top-k selection for every worker.

        Exactly ``top_k_indices`` of every corrected vector, found through
        :attr:`selector` (fused add + candidate scan where the kernels are
        compiled).  The picks are taken out of the residual store, which
        keeps the rest as the local residual.  Returns the per-worker
        sparse selection in global coordinates.
        """
        bounds = np.array([0, self.num_elements], dtype=np.int64)
        ks = np.array([self.k], dtype=np.int64)
        corrected = self.residuals.apply(gradients, self.selector, bounds, ks)
        ranks = list(corrected)
        picked = self.selector.select_segments(ranks, list(corrected.values()),
                                               bounds, ks)
        values = self.residuals.take_rows(ranks, picked)
        return {rank: SparseGradient.from_sorted_unique(
                    picked[row], values[row], self.num_elements)
                for row, rank in enumerate(ranks)}

    def _reduce_scatter_direct(self, selected: Dict[int, SparseGradient],
                               bounds: Sequence[Tuple[int, int]],
                               tag: str) -> Dict[int, SparseGradient]:
        """Direct-send Reduce-Scatter of the sparse selections: rank ``r``
        ends holding the sum of every selection's entries in ``bounds[r]``.

        Each rank sends every owner its slice straight, as a one-bag
        :class:`~repro.comm.packed.PackedBags`, one peer per round
        (``P - 1`` rounds, the latency-heavy pattern of TopkDSA and
        Ok-Topk); round ``shift``'s messages are tagged ``{tag}-{shift}``.
        Each owner sums its own slice and what arrived, in arrival order,
        once at the end.
        """
        P = self.num_workers
        pieces = {rank: [selected[rank].restrict(*bounds[rank])] for rank in range(P)}
        for shift in range(1, P):
            messages: List[Message] = []
            for rank in range(P):
                dst = (rank + shift) % P
                payload = PackedBags.pack([selected[rank].restrict(*bounds[dst])])
                messages.append(Message(src=rank, dst=dst, payload=payload,
                                        size=self.wire_size(payload),
                                        tag=f"{tag}-{shift}"))
            inboxes = self.cluster.exchange(messages)
            for dst, inbox in inboxes.items():
                pieces[dst].extend(message.payload.bag(0) for message in inbox)
        return {rank: SparseGradient.merge_many(pieces[rank]) for rank in range(P)}

    def _allgather_doubling(self, gathered: Dict[int, List[PackedBags]],
                            tags: Tuple[str, str, str],
                            size: Callable[[int, PackedBags], float]) -> None:
        """Recursive-doubling All-Gather of ``gathered`` (per rank, packs
        whose bag ids no other rank holds), in place.

        Ranks past the largest power of two ``p2`` first fold their packs
        into rank ``rank - p2`` and finally receive the whole set back.
        Every message is one pack of every bag its sender holds
        (:meth:`~repro.comm.packed.PackedBags.join`), tagged ``tags[0]``
        (fold-in), ``f"{tags[1]}-{distance}"`` (doubling) or ``tags[2]``
        (fold-out) and billed ``size(dst, payload)``.
        """
        p2, extra = power_of_two_split(self.num_workers)

        def exchange(pairs, tag):
            messages = []
            for src, dst in pairs:
                payload = PackedBags.join(gathered[src])
                messages.append(Message(src=src, dst=dst, payload=payload, tag=tag,
                                        size=size(dst, payload)))
            return self.cluster.exchange(messages).items() if messages else ()

        for dst, inbox in exchange([(p2 + i, i) for i in range(extra)], tags[0]):
            gathered[dst].extend(message.payload for message in inbox)
        distance = 1
        while distance < p2:
            pairs = [(rank, rank ^ distance) for rank in range(p2)]
            for dst, inbox in exchange(pairs, f"{tags[1]}-{distance}"):
                gathered[dst].extend(message.payload for message in inbox)
            distance <<= 1
        for dst, inbox in exchange([(i, p2 + i) for i in range(extra)], tags[2]):
            gathered[dst] = [message.payload for message in inbox]

    @staticmethod
    def _combine_gathered(context: StepContext,
                          combine: Callable[[List[PackedBags]], SparseGradient]) -> None:
        """Sum every rank's gathered packs (``context.exchanged``) with
        ``combine``, once per distinct set of bag ids: ranks holding the
        same bags are handed the same result object (their packs arrive in
        different orders, and a float sum depends on its order), which
        ``shared_dense_gradients`` densifies once.  Sets
        ``context.global_sparse``, ``context.reference`` (rank 0's) and
        ``context.global_gradients``."""
        results: Dict[Tuple[int, ...], SparseGradient] = {}
        global_sparse = {}
        for rank, packs in context.exchanged.items():
            ids = tuple(sorted(bag_id for pack in packs for bag_id in pack.ids))
            if ids not in results:
                results[ids] = combine(packs)
            global_sparse[rank] = results[ids]
        context.global_sparse = global_sparse
        context.reference = global_sparse[0]
        context.global_gradients = shared_dense_gradients(global_sparse)
