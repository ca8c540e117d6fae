"""Compression layer: value quantization (Section VI).

A synchroniser's compression state is one optional
:class:`~repro.compression.quantization.QuantizedCompressor`, held as
``sync.stack`` (``None`` keeps full precision).  DGC momentum correction is
not a compression step: it lives in the residual manager, whose factor
the synchroniser's constructor fixes
(:attr:`~repro.core.residuals.ResidualManager.momentum`).
"""

from .quantization import (
    QuantizedCompressor,
    StochasticQuantizer,
    quantized_sparse_cost,
)

__all__ = [
    "QuantizedCompressor",
    "StochasticQuantizer",
    "quantized_sparse_cost",
]
