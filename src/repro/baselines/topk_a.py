"""TopkA: sparse All-Gather All-Reduce (SparCML's allgather variant).

TopkA [Renggli et al., SC'19] handles the SGA dilemma by never re-reducing
during the exchange: every worker's local top-k selection is *gathered* on
every worker with a recursive-doubling All-Gather and only summed at the end.
Messages therefore grow with the number of accumulated contributions, giving
the ``2(P-1)k`` bandwidth bound of Table I, but the number of rounds stays at
``log2 P`` (plus the usual fold-in/fold-out rounds when ``P`` is not a power
of two).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..comm.transport import Message, Transport
from ..core.base import shared_dense_gradients
from ..core.pipeline import StepContext
from ..core.residuals import ResidualPolicy
from ..core.schedules import KSchedule
from ..sparse.vector import SparseGradient
from .base import SparseBaseline, power_of_two_split

__all__ = ["TopkASynchronizer"]


class TopkASynchronizer(SparseBaseline):
    """Sparse All-Gather All-Reduce with recursive doubling."""

    name = "TopkA"

    def __init__(self, cluster: Transport, num_elements: int, *,
                 k: Optional[int] = None, density: Optional[float] = None,
                 schedule: Optional[KSchedule | str] = None,
                 num_bits: Optional[int] = None,
                 momentum: Optional[float] = None) -> None:
        super().__init__(cluster, num_elements, k=k, density=density,
                         schedule=schedule, residual_policy=ResidualPolicy.LOCAL,
                         num_bits=num_bits, momentum=momentum)

    # ------------------------------------------------------------------
    def stage_select(self, context: StepContext) -> None:
        context.selected = self.local_select(context.gradients)

    def stage_exchange(self, context: StepContext) -> None:
        selected = context.wire
        P = self.num_workers

        # Per-worker accumulation of gathered contributions.  The exchange
        # only concatenates; summation happens once at the end so that the
        # SGA dilemma manifests purely as growing message sizes.
        gathered: Dict[int, List[SparseGradient]] = {rank: [selected[rank]] for rank in range(P)}
        if P == 1:
            context.exchanged = gathered
            context.scratch["trivial"] = True
            return

        p2, extra = power_of_two_split(P)

        # Fold-in: the last ``extra`` workers hand their contribution to a
        # partner inside the power-of-two core.
        if extra:
            messages = [Message(src=p2 + i, dst=i, payload=gathered[p2 + i],
                                tag="topka-fold-in") for i in range(extra)]
            inboxes = self.cluster.exchange(messages)
            for dst, inbox in inboxes.items():
                for message in inbox:
                    gathered[dst].extend(message.payload)

        # Recursive doubling over the power-of-two core.
        step = 1
        while step < p2:
            messages = []
            for rank in range(p2):
                partner = rank ^ step
                messages.append(Message(src=rank, dst=partner, payload=list(gathered[rank]),
                                        tag=f"topka-rd-{step}"))
            inboxes = self.cluster.exchange(messages)
            for dst, inbox in inboxes.items():
                for message in inbox:
                    gathered[dst].extend(message.payload)
            step <<= 1

        # Fold-out: send the gathered set back to the extra workers.  The
        # receiver already holds its own contribution, so that part of the
        # payload costs no bandwidth (keeping the total at 2(P-1)k as in
        # Table I).
        if extra:
            messages = []
            for i in range(extra):
                payload = list(gathered[i])
                # The receiver already holds its own contribution, so that
                # part of the payload costs no bandwidth (keeping the total
                # at 2(P-1)k as in Table I).  wire_size applies the active
                # compression, and the subtraction makes the size final —
                # a payload-derived pricer could not reconstruct it.
                size = self.wire_size(payload) - self.wire_size(selected[p2 + i])
                messages.append(Message(src=i, dst=p2 + i, payload=payload,
                                        size=max(size, 0.0), tag="topka-fold-out",
                                        size_final=True))
            inboxes = self.cluster.exchange(messages)
            for dst, inbox in inboxes.items():
                for message in inbox:
                    gathered[dst] = list(message.payload)

        context.exchanged = gathered

    def stage_combine(self, context: StepContext) -> None:
        global_sparse = {rank: self.merge_sum(pieces)
                         for rank, pieces in context.exchanged.items()}
        context.global_sparse = global_sparse
        context.reference = global_sparse[0]
        context.global_gradients = shared_dense_gradients(global_sparse)
        context.info = {"k": self.k, "final_nnz": context.reference.nnz}

    def stage_residual_update(self, context: StepContext) -> None:
        if context.scratch.get("trivial"):
            return
        self.finalize_residuals(context.reference)
