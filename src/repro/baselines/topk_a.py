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

from typing import Optional

from ..comm.packed import PackedBags
from ..comm.transport import Transport
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
                 schedule: Optional[KSchedule | str] = None) -> None:
        super().__init__(cluster, num_elements, k=k, density=density,
                         schedule=schedule, residual_policy=ResidualPolicy.LOCAL)

    # ------------------------------------------------------------------
    def stage_exchange(self, context: StepContext) -> None:
        selected = context.wire
        P = self.num_workers

        # Per-worker packs of gathered selections, each bag's id its source
        # rank.  The exchange only concatenates; summation happens once at
        # the end so that the SGA dilemma manifests purely as growing
        # message sizes.  A message forwards every bag its sender holds.
        gathered = {rank: [PackedBags.pack([selected[rank]], ids=[rank])] for rank in range(P)}
        p2, _ = power_of_two_split(P)

        def fold_out_size(dst: int, payload: PackedBags) -> float:
            """Fold-in and doubling bill their payload.  A fold-out receiver
            (``dst >= p2``) already holds its own contribution, so that part
            of the payload costs no bandwidth (keeping the total at 2(P-1)k
            as in Table I).  wire_size applies the active compression to
            both terms."""
            if dst < p2:
                return self.wire_size(payload)
            return max(self.wire_size(payload) - self.wire_size(gathered[dst][0]), 0.0)

        self._allgather_doubling(gathered, ("topka-fold-in", "topka-rd", "topka-fold-out"),
                                 fold_out_size)
        context.exchanged = gathered

    def stage_combine(self, context: StepContext) -> None:
        """Sum every rank's gathered selections in source-rank order (once
        per distinct set of sources)."""
        def merge(packs):
            bags = sorted((bag for pack in packs for bag in pack.items()),
                          key=lambda bag: bag[0])
            return SparseGradient.merge_many([bag for _, bag in bags])

        self._combine_gathered(context, merge)
        context.info = {"k": self.k, "final_nnz": context.reference.nnz}
