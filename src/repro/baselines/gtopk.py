"""gTopk: global top-k sparse All-Reduce with tree-structured exchanges.

gTopk [Shi et al., ICDCS'19] keeps exactly ``k`` global gradients by
re-selecting the top-k after every pairwise merge.  The exchange follows a
recursive-doubling pattern in which *both* partners send their current
selection to each other; because both sides then hold identical data and
apply the same deterministic selection, every cohort of ``2^(t+1)`` workers
stays perfectly consistent, which is what makes the method usable for
synchronous SGD.  The price is bandwidth: each of the ``log2 P`` rounds moves
a full ``k``-entry selection in each direction (the ``4 log2 P k`` term of
Table I counts the equivalent reduction-tree + broadcast-tree realisation).

As in the paper's evaluation, the method is only defined for power-of-two
worker counts (Fig. 12 evaluates gTopk at 8 workers only).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..comm.packed import PackedBags
from ..comm.transport import Message, Transport
from ..core.base import shared_dense_gradients
from ..core.config import is_power_of_two
from ..core.pipeline import StepContext
from ..core.residuals import ResidualPolicy
from ..core.schedules import KSchedule
from ..sparse.vector import SparseGradient
from .base import SparseBaseline

__all__ = ["GTopkSynchronizer"]


def _require_power_of_two(num_workers: int) -> None:
    if not is_power_of_two(num_workers):
        raise ValueError(
            f"gTopk requires a power-of-two number of workers, got P={num_workers}: "
            "its recursive-doubling exchange pairs workers rank ^ step, which only covers "
            "every rank when P is a power of two.  Run it at P in {2, 4, 8, ...} or pick "
            "another method (see repro.api.available_methods)."
        )


class GTopkSynchronizer(SparseBaseline):
    """Global top-k All-Reduce (power-of-two worker counts only)."""

    name = "gTopk"

    def __init__(self, cluster: Transport, num_elements: int, *,
                 k: Optional[int] = None, density: Optional[float] = None,
                 schedule: Optional[KSchedule | str] = None) -> None:
        _require_power_of_two(cluster.num_workers)
        super().__init__(cluster, num_elements, k=k, density=density,
                         schedule=schedule, residual_policy=ResidualPolicy.PARTIAL)

    def apply_membership(self, num_workers: int, mapping: Dict[int, int]) -> None:
        """Refuse, before anything changes, a membership that is not a
        power of two."""
        _require_power_of_two(num_workers)
        super().apply_membership(num_workers, mapping)

    # ------------------------------------------------------------------
    def stage_exchange(self, context: StepContext) -> None:
        selected = context.wire
        P = self.num_workers
        current = dict(selected)

        step = 1
        level = 0
        while step < P:
            messages = []
            for rank in range(P):
                partner = rank ^ step
                payload = PackedBags.pack([current[rank]])
                messages.append(Message(src=rank, dst=partner, payload=payload,
                                        size=self.wire_size(payload),
                                        tag=f"gtopk-{step}"))
            inboxes = self.cluster.exchange(messages)
            # Every worker of a 2^(level+1) cohort ends up with the same merged
            # set and discards the same values, so each keeps the matching share.
            share = 1.0 / float(2 << level)
            for rank in range(P):
                inbox = inboxes.get(rank, [])
                if inbox:
                    current[rank] = SparseGradient.merge_many(
                        [current[rank]] + [message.payload.bag(0) for message in inbox])
                kept, dropped = current[rank].top_k(self.k)
                current[rank] = kept
                self.residuals.collect_procedure(rank, dropped, share=share)
            step <<= 1
            level += 1

        context.exchanged = current

    def stage_combine(self, context: StepContext) -> None:
        current = context.exchanged
        context.global_sparse = current
        context.reference = current[0]
        context.global_gradients = shared_dense_gradients(current)
        context.info = {"k": self.k, "final_nnz": context.reference.nnz}
