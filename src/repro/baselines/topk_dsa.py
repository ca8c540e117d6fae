"""TopkDSA: direct-send Reduce-Scatter + dense-switching All-Gather.

TopkDSA [Renggli et al., SC'19] splits the sparse All-Reduce into a
Reduce-Scatter and an All-Gather:

* **Reduce-Scatter** — every worker partitions its local top-k selection by
  block owner and sends each partition *directly* to its owner, one peer per
  round (``P - 1`` rounds, the latency-heavy pattern the paper criticises).
  The owner merge-sums what it receives, so the SGA dilemma is confined to
  the owner's block.
* **All-Gather** — the reduced blocks are gathered with recursive doubling.
  No re-sparsification happens, so accumulated blocks keep growing; each
  block is transmitted in COO form until that becomes larger than the dense
  block, at which point the transfer switches to dense representation.  This
  is what produces the ``(P-1)/P (2k + n)`` upper bound of Table I.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..comm.packed import PackedBags
from ..comm.transport import Transport
from ..core.pipeline import StepContext
from ..core.residuals import ResidualPolicy
from ..core.schedules import KSchedule
from ..sparse.blocks import BlockLayout
from ..sparse.vector import SparseGradient
from .base import SparseBaseline

__all__ = ["TopkDSASynchronizer"]


class TopkDSASynchronizer(SparseBaseline):
    """Sparse Reduce-Scatter / All-Gather All-Reduce with dense switching."""

    name = "TopkDSA"

    def __init__(self, cluster: Transport, num_elements: int, *,
                 k: Optional[int] = None, density: Optional[float] = None,
                 schedule: Optional[KSchedule | str] = None) -> None:
        super().__init__(cluster, num_elements, k=k, density=density,
                         schedule=schedule, residual_policy=ResidualPolicy.LOCAL)
        self.layout = BlockLayout(num_elements, cluster.num_workers)

    def apply_membership(self, num_workers: int, mapping: Dict[int, int]) -> None:
        """Hand the per-rank state over (see the base class), then cut the
        vector into one block per worker of the new membership."""
        super().apply_membership(num_workers, mapping)
        self.layout = BlockLayout(self.num_elements, num_workers)

    # ------------------------------------------------------------------
    def stage_exchange(self, context: StepContext) -> None:
        reduced = self._reduce_scatter_direct(context.wire, self.layout.bounds, "dsa-rs")
        context.exchanged = self._allgather_dense_switching(reduced)

    def stage_combine(self, context: StepContext) -> None:
        # Block ``b`` is owner ``b``'s index range: concatenation in block
        # order is the merge.
        self._combine_gathered(context, PackedBags.concat_by_id)
        context.info = {"k": self.k, "final_nnz": context.reference.nnz}

    # ------------------------------------------------------------------
    def _allgather_dense_switching(
        self, reduced: Dict[int, SparseGradient]
    ) -> Dict[int, List[PackedBags]]:
        """Recursive-doubling All-Gather of the reduced blocks.

        Every message is one :class:`~repro.comm.packed.PackedBags` of the
        blocks its sender holds, each bag's id its block, so the message
        size can switch from COO (two elements per non-zero) to the dense
        block size, whichever is smaller.  Every rank ends with the packs
        it was handed, its own block first.
        """
        gathered = {rank: [PackedBags.pack([reduced[rank]], ids=[rank])]
                    for rank in range(self.num_workers)}
        self._allgather_doubling(gathered, ("dsa-fold-in", "dsa-ag", "dsa-fold-out"),
                                 lambda dst, payload: self._payload_size(payload))
        return gathered

    def _payload_size(self, payload: PackedBags) -> float:
        """COO size per block, capped at the dense block size (TopkDSA's
        switch to dense transmission)."""
        total = 0.0
        for block, nnz in zip(payload.ids, np.diff(payload.offsets).tolist()):
            total += min(2.0 * nnz, float(self.layout.block_size(block)))
        return total
