"""Compression layer: quantization (Section VI) and the composable stack.

The :class:`~repro.compression.stack.CompressorStack` is the single object a
synchroniser owns for everything compression-related — ordered stages
(momentum-correction -> sparsify -> quantize) with a uniform
``(payload, error)`` contract feeding the conservation-gated residual path.
"""

from .quantization import (
    QuantizedCompressor,
    StochasticQuantizer,
    quantize_sparse,
    quantized_sparse_cost,
)
from .stack import (
    CompressorStack,
    CompressorStage,
    MomentumCorrection,
    QuantizeStage,
    TopKSparsifier,
)

__all__ = [
    "CompressorStack",
    "CompressorStage",
    "MomentumCorrection",
    "QuantizeStage",
    "TopKSparsifier",
    "QuantizedCompressor",
    "StochasticQuantizer",
    "quantize_sparse",
    "quantized_sparse_cost",
]
