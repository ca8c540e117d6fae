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

import math
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..comm.transport import Transport
from ..compression.stack import CompressorStack
from ..core.base import GradientSynchronizer
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
    num_bits:
        Optional value quantization of the wire: ``None`` (default) keeps
        full-precision values — the pre-quantization behaviour bit for bit —
        while an integer in ``[1, 32]`` installs a quantize stage on the
        method's :class:`~repro.compression.stack.CompressorStack` whose
        ``compress`` stage quantizes every worker's selection (independent
        per-worker random streams) and folds the exact quantization error
        into the method's residual store.
    momentum:
        Optional DGC momentum-correction factor in ``(0, 1)``: the residual
        manager accumulates velocity instead of raw gradient, with momentum
        factor masking at the final global indices (``None`` keeps plain
        error feedback, bit for bit).  Coordinate with the trainer so
        momentum is not applied twice (``TrainerConfig.momentum_correction``).
    """

    def __init__(self, cluster: Transport, num_elements: int, *,
                 k: Optional[int] = None, density: Optional[float] = None,
                 schedule: Optional[KSchedule | str] = None,
                 residual_policy: ResidualPolicy | str = ResidualPolicy.LOCAL,
                 num_bits: Optional[int] = None,
                 momentum: Optional[float] = None) -> None:
        super().__init__(cluster, num_elements,
                         schedule=coerce_schedule(schedule, k=k, density=density))
        self.k = self.schedule.resolve(0, num_elements)
        self.residuals = ResidualManager(cluster.num_workers, num_elements, residual_policy)
        #: Per-rank cut of the last step's local top-k (the whole vector is
        #: one segment): the selector SparDL's phase 1 uses, so that the
        #: methods' wall-clock compares at the same selection cost.
        self.selector = WarmTopK()
        self.adopt_stack(CompressorStack.from_config(
            cluster.num_workers, momentum=momentum, num_bits=num_bits,
            sparsify=True))

    def set_sparsity(self, k: int) -> None:
        """Adopt a per-step ``k`` (schedule resolution)."""
        self.k = max(1, min(self.num_elements, int(k)))

    # ------------------------------------------------------------------
    def stage_compress(self, context: StepContext) -> None:
        """Wire encoding of the per-worker selections.

        Identity without a wire-transforming stack stage.  With a quantize
        stage, every worker's sparse selection is folded through the stack
        using that worker's independent random stream — so results do not
        depend on iteration order — and the exact error of the draw is
        collected as that worker's local residual (error feedback over the
        message actually sent).  Declarative stages (momentum correction)
        act through the residual manager and leave the wire untouched.
        """
        if self.stack is None or not self.stack.transforms_wire:
            context.wire = context.selected
            return
        wire: Dict[int, SparseGradient] = {}
        for rank, sparse in context.selected.items():
            quantized, compression_error = self.stack.compress_sparse(rank, sparse)
            self.residuals.collect_local_sparse(rank, compression_error)
            wire[rank] = quantized
        context.wire = wire

    # ------------------------------------------------------------------
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

    def finalize_residuals(self, final: SparseGradient) -> None:
        """Resolve deferred (PRES) procedure discards against the final
        global index set."""
        self.residuals.finalize(final.indices)

    @staticmethod
    def merge_sum(pieces: Sequence[SparseGradient]) -> SparseGradient:
        """Merge-sum a non-empty sequence of sparse gradients (one k-way
        gather merge rather than sequential pairwise adds)."""
        if not pieces:
            raise ValueError("merge_sum needs at least one sparse gradient")
        return SparseGradient.merge_many(pieces)

    @staticmethod
    def num_doubling_steps(size: int) -> int:
        return int(math.log2(size)) if size > 1 else 0
