"""Dense All-Reduce baseline (no sparsification).

Classic synchronous data-parallel SGD synchronises full dense gradients with
an efficient All-Reduce; the paper's Section I motivates sparsification by
contrasting against exactly this.  The synchroniser picks Rabenseifner's
algorithm for power-of-two worker counts and the ring algorithm otherwise,
both of which reach the ``2 n (P-1)/P`` bandwidth lower bound.

In staged-pipeline terms the method is the degenerate case: ``select`` and
``compress`` pass the dense gradients through untouched, ``exchange`` is
the dense All-Reduce, ``combine`` adopts its output (one read-only array
every worker shares), and there is no residual state to update.

With ``num_bits`` set the method becomes QSGD with error feedback: the
``compress`` stage quantizes every worker's (residual-corrected) gradient
with that worker's independent random stream, the exact quantization error
of the draw is kept in a per-worker residual store and re-applied at the
next step's ``select``, and every All-Reduce message is billed at
``num_bits/32`` elements per value.  Without ``num_bits`` the method is the
pre-quantization dense baseline, bit for bit.

With ``momentum`` set the residual manager accumulates DGC velocity
(``u = m*u + g``).  Because a dense step transmits *everything*, the method
never calls ``finalize`` and the velocity is never masked — which makes the
corrected dense method mathematically equivalent to naive momentum SGD
(averaging commutes with the velocity recursion).  This is the reference
point the momentum-correction convergence bench compares against.
"""

from __future__ import annotations

from typing import Optional

from ..comm.transport import Transport
from ..comm.collectives import _allreduce_dense
from ..core.base import GradientSynchronizer
from ..core.pipeline import StepContext
from ..core.residuals import ResidualManager, ResidualPolicy
from ..sparse.ckernels import get_kernels

__all__ = ["DenseAllReduceSynchronizer"]


class DenseAllReduceSynchronizer(GradientSynchronizer):
    """Exact dense All-Reduce of the local gradients."""

    name = "Dense"

    def __init__(self, cluster: Transport, num_elements: int, *,
                 num_bits: Optional[int] = None,
                 momentum: Optional[float] = None) -> None:
        super().__init__(cluster, num_elements)
        # Load the compiled tree sum now, not inside the first step: loading
        # it between that step's vector-sized allocations left the heap one
        # result larger in about one process in four.
        get_kernels()
        if num_bits is not None or momentum is not None:
            self.residuals = ResidualManager(cluster.num_workers, num_elements,
                                             ResidualPolicy.GLOBAL,
                                             momentum=self._momentum_factor(momentum))
        self._configure_compression(num_bits)

    def stage_select(self, context: StepContext) -> None:
        if self.residuals is None:
            context.selected = context.gradients
        else:
            context.selected = self.residuals.apply(context.gradients)

    def stage_compress(self, context: StepContext) -> None:
        if self.residuals is None:
            context.wire = context.selected
        else:
            self._compress_dense(context)

    def stage_exchange(self, context: StepContext) -> None:
        context.exchanged, context.scratch["final_nnz"] = _allreduce_dense(
            self.cluster, context.wire, price=self.wire_size)

    def stage_combine(self, context: StepContext) -> None:
        context.global_gradients = context.exchanged
        context.info = {
            "k": self.num_elements,
            "final_nnz": context.scratch["final_nnz"],
        }
