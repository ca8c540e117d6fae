"""Composable compressor stack: momentum-correction -> sparsify -> quantize.

Before this module, compression logic was smeared across three places: the
:class:`~repro.compression.quantization.QuantizedCompressor` hooked
quantization into the exchange path, the
:class:`~repro.core.residuals.ResidualManager` owned error-feedback policy,
and the dense-fallback / bucket decisions lived in the synchronisers.  The
:class:`CompressorStack` makes the composition explicit: an ordered list of
:class:`CompressorStage` objects, each honouring one uniform contract —
``compress_*`` returns ``(payload, error)`` where ``payload + error``
reconstructs the input exactly — feeding the conservation-gated residual
path unchanged.

The canonical stage order is fixed by the mathematics, mirroring DGC
(Lin et al., ICLR'18):

1. :class:`MomentumCorrection` — *declarative*: momentum must act on the
   error-feedback accumulator itself (velocity accumulates in the residual
   store between rounds), so the stage binds a momentum factor onto the
   synchroniser's :class:`~repro.core.residuals.ResidualManager` rather than
   transforming payloads.  See :meth:`ResidualManager.apply`.
2. :class:`TopKSparsifier` — *structural*: top-k selection is interleaved
   with the communication procedure (block-wise top-k between SRS
   transmissions), so the stage marks where sparsification sits in the
   stack; the selection itself stays in the synchronisers' ``select`` /
   ``exchange`` stages.
3. :class:`QuantizeStage` — *wire-transforming*: quantizes every payload the
   moment it first reaches the wire and returns the exact error of the draw.

Stages that merely *declare* behaviour return their input with a ``None``
error, so a stack is exactly as lossy as its wire-transforming stages.  A
stack whose only stages are declarative prices nothing and transforms
nothing — the synchronisers then keep their pre-stack code paths bit for
bit.
"""

from __future__ import annotations

from abc import ABC
from typing import TYPE_CHECKING, Any, List, Optional, Sequence, Tuple

import numpy as np

from ..sparse.vector import SparseGradient
from .quantization import QuantizedCompressor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.residuals import ResidualManager

__all__ = [
    "CompressorStage",
    "MomentumCorrection",
    "TopKSparsifier",
    "QuantizeStage",
    "CompressorStack",
]

#: Canonical stage order: momentum correction happens in gradient space,
#: sparsification selects in corrected-gradient space, quantization encodes
#: the selected values for the wire.  Any other order is mathematically
#: wrong (e.g. quantizing before selecting would feed quantization error
#: into the top-k ranking).
_STAGE_ORDER = {"momentum": 0, "sparsify": 1, "quantize": 2}


class CompressorStage(ABC):
    """One stage of a :class:`CompressorStack`.

    The uniform contract: :meth:`compress_sparse` / :meth:`compress_dense`
    return ``(payload, error)`` with ``payload + error == input`` exactly;
    declarative stages return ``(input, None)``.  :meth:`bind_residuals`
    lets a stage configure the synchroniser's residual manager (momentum
    correction uses this; wire stages do not).
    """

    #: One of ``"momentum"`` / ``"sparsify"`` / ``"quantize"``.
    kind: str = ""

    #: True when the stage changes payload values on the wire (and therefore
    #: produces errors and requires compressed pricing).
    transforms_wire: bool = False

    def bind_residuals(self, residuals: "ResidualManager") -> None:
        """Configure the residual manager this stack feeds (default no-op)."""

    def compress_sparse(self, worker: int, sparse: SparseGradient,
                        offsets: Optional[np.ndarray] = None
                        ) -> Tuple[SparseGradient, Optional[SparseGradient]]:
        return sparse, None

    def compress_dense(self, worker: int, dense: np.ndarray
                       ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        return dense, None

    def describe(self) -> str:
        return self.kind


class MomentumCorrection(CompressorStage):
    """DGC momentum correction (declarative stage).

    Holds the momentum factor ``m`` and installs it on the synchroniser's
    :class:`~repro.core.residuals.ResidualManager` via :meth:`bind_residuals`
    — the correction itself runs inside
    :meth:`~repro.core.residuals.ResidualManager.apply` (velocity
    ``u = m*u + g`` replaces the raw gradient) and
    :meth:`~repro.core.residuals.ResidualManager.finalize` (momentum factor
    masking at the final global indices).  Payloads pass through unchanged.
    """

    kind = "momentum"

    def __init__(self, factor: float) -> None:
        factor = float(factor)
        if not 0.0 < factor < 1.0:
            raise ValueError("momentum factor must be in (0, 1)")
        self.factor = factor

    def bind_residuals(self, residuals: "ResidualManager") -> None:
        residuals.set_momentum(self.factor)

    def describe(self) -> str:
        return f"momentum({self.factor:g})"


class TopKSparsifier(CompressorStage):
    """Top-k sparsification (structural stage).

    Selection is interleaved with the communication procedure (block-wise
    top-k between SRS transmission steps; local top-k in the baselines), so
    this stage records *where* sparsification sits in the stack rather than
    performing it; the synchronisers keep driving the selection.  Its
    discards flow into the residual manager through the existing
    ``collect_local`` / ``collect_procedure`` hooks.
    """

    kind = "sparsify"

    def describe(self) -> str:
        return "topk"


class QuantizeStage(CompressorStage):
    """Stochastic value quantization (wire-transforming stage).

    Wraps a :class:`~repro.compression.quantization.QuantizedCompressor`
    (per-worker independent random streams) and forwards its
    ``(quantized, error)`` contract.
    """

    kind = "quantize"
    transforms_wire = True

    def __init__(self, compressor: QuantizedCompressor) -> None:
        self.compressor = compressor

    @property
    def num_bits(self) -> int:
        return self.compressor.num_bits

    def compress_sparse(self, worker: int, sparse: SparseGradient,
                        offsets: Optional[np.ndarray] = None
                        ) -> Tuple[SparseGradient, Optional[SparseGradient]]:
        return self.compressor.compress_sparse(worker, sparse, offsets)

    def compress_dense(self, worker: int, dense: np.ndarray
                       ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        return self.compressor.compress_dense(worker, dense)

    def describe(self) -> str:
        return f"quantize({self.num_bits})"


class CompressorStack:
    """An ordered, validated composition of :class:`CompressorStage` objects.

    The stack is the single object a synchroniser owns for everything
    compression-related: it binds declarative stages onto the residual
    manager (:meth:`bind_residuals`), folds payloads through the
    wire-transforming stages with one accumulated error
    (:meth:`compress_sparse` / :meth:`compress_dense`), and prices wire
    messages (:meth:`price_message`) — at the quantized accounting when a
    quantize stage is present, otherwise it does not price at all
    (:attr:`prices` is False and the cluster's full-precision accounting
    stays installed).

    Stage order is validated against the canonical
    momentum -> sparsify -> quantize order; at most one stage per kind.
    """

    def __init__(self, stages: Sequence[CompressorStage]) -> None:
        stages = tuple(stages)
        if not stages:
            raise ValueError("a CompressorStack needs at least one stage")
        seen: List[str] = []
        for stage in stages:
            if stage.kind not in _STAGE_ORDER:
                raise ValueError(f"unknown stage kind {stage.kind!r}")
            if stage.kind in seen:
                raise ValueError(f"duplicate stage kind {stage.kind!r}")
            if seen and _STAGE_ORDER[stage.kind] < _STAGE_ORDER[seen[-1]]:
                raise ValueError(
                    f"stage order must follow momentum -> sparsify -> "
                    f"quantize; got {stage.kind!r} after {seen[-1]!r}")
            seen.append(stage.kind)
        self.stages = stages

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_config(cls, num_workers: int, *, momentum: Optional[float] = None,
                    num_bits: Optional[int] = None, sparsify: bool = False,
                    seed: int = 0, streams: int = 1) -> Optional["CompressorStack"]:
        """Build the stack a synchroniser's configuration implies.

        Returns ``None`` when neither momentum correction nor quantization
        is requested — a sparsify-only stack would change nothing, and the
        ``None`` keeps the synchronisers' pre-stack code paths (and their
        bit-exact outputs) trivially intact.  ``streams`` is the number of
        separately selected tensors the quantizer serves per worker (see
        :class:`~repro.compression.quantization.QuantizedCompressor`).
        """
        if momentum is None and num_bits is None:
            return None
        stages: List[CompressorStage] = []
        if momentum is not None:
            stages.append(MomentumCorrection(momentum))
        if sparsify:
            stages.append(TopKSparsifier())
        if num_bits is not None:
            stages.append(QuantizeStage(
                QuantizedCompressor(num_bits, num_workers, seed=seed,
                                    streams=streams)))
        return cls(stages)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stage(self, kind: str) -> Optional[CompressorStage]:
        """The stage of ``kind``, or ``None``."""
        for stage in self.stages:
            if stage.kind == kind:
                return stage
        return None

    @property
    def momentum(self) -> Optional[float]:
        """The momentum-correction factor, or ``None``."""
        stage = self.stage("momentum")
        return stage.factor if stage is not None else None

    @property
    def quantize(self) -> Optional[QuantizedCompressor]:
        """The quantize stage's compressor, or ``None`` (full precision)."""
        stage = self.stage("quantize")
        return stage.compressor if stage is not None else None

    @property
    def num_bits(self) -> Optional[int]:
        compressor = self.quantize
        return compressor.num_bits if compressor is not None else None

    @property
    def transforms_wire(self) -> bool:
        """True when some stage changes wire values (errors are produced)."""
        return any(stage.transforms_wire for stage in self.stages)

    @property
    def prices(self) -> bool:
        """True when the stack must re-price wire messages (quantization)."""
        return self.quantize is not None

    def describe(self) -> str:
        """Human-readable stage chain, e.g. ``momentum(0.9) -> quantize(8)``."""
        return " -> ".join(stage.describe() for stage in self.stages)

    # ------------------------------------------------------------------
    # residual binding
    # ------------------------------------------------------------------
    def bind_residuals(self, residuals: "ResidualManager") -> None:
        """Let every declarative stage configure the residual manager."""
        for stage in self.stages:
            stage.bind_residuals(residuals)

    # ------------------------------------------------------------------
    # the (payload, error) contract
    # ------------------------------------------------------------------
    def compress_sparse(self, worker: int, sparse: SparseGradient,
                        offsets: Optional[np.ndarray] = None
                        ) -> Tuple[SparseGradient, SparseGradient]:
        """Fold a sparse payload through the wire-transforming stages.

        Returns ``(payload, error)`` with
        ``payload.values + error.values == sparse.values`` exactly; the
        error is an empty sparse gradient when no stage transforms the wire.
        ``offsets`` cuts the payload into segments that reach the wire as
        separate messages (entries ``offsets[s]:offsets[s + 1]``).
        """
        error: Optional[SparseGradient] = None
        for stage in self.stages:
            sparse, stage_error = stage.compress_sparse(worker, sparse, offsets)
            if stage_error is not None and stage_error.nnz:
                error = (stage_error if error is None
                         else SparseGradient.merge_many([error, stage_error]))
        if error is None:
            error = SparseGradient.empty(sparse.length)
        return sparse, error

    def compress_dense(self, worker: int, dense: np.ndarray
                       ) -> Tuple[np.ndarray, np.ndarray]:
        """Dense variant of :meth:`compress_sparse`; the error is a zero
        array when no stage transforms the wire."""
        dense = np.asarray(dense, dtype=np.float64)
        error: Optional[np.ndarray] = None
        for stage in self.stages:
            dense, stage_error = stage.compress_dense(worker, dense)
            if stage_error is not None:
                error = stage_error if error is None else error + stage_error
        if error is None:
            error = np.zeros_like(dense)
        return dense, error

    # ------------------------------------------------------------------
    # wire pricing (delegates to the quantize stage; full precision else)
    # ------------------------------------------------------------------
    def sparse_cost(self, nnz: int) -> float:
        """Billed size of one sparse message of ``nnz`` entries."""
        compressor = self.quantize
        if compressor is not None:
            return compressor.sparse_cost(nnz)
        return 2.0 * max(0, int(nnz))

    def dense_cost(self, num_values: float) -> float:
        """Billed size of ``num_values`` dense values."""
        compressor = self.quantize
        if compressor is not None:
            return compressor.dense_cost(num_values)
        return float(num_values)

    def price(self, payload: Any) -> float:
        """Billed wire size of ``payload`` under the stack's accounting."""
        compressor = self.quantize
        if compressor is None:
            raise RuntimeError(
                "a stack without a quantize stage does not price payloads; "
                "check `stack.prices` before installing the pricer")
        return compressor.price(payload)

    def price_message(self, message) -> float:
        """Pricer hook for the simulated cluster (quantize stage required)."""
        compressor = self.quantize
        if compressor is None:
            raise RuntimeError(
                "a stack without a quantize stage does not price messages; "
                "check `stack.prices` before installing the pricer")
        return compressor.price_message(message)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompressorStack({self.describe()})"
