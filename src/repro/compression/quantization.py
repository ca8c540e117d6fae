"""Gradient value quantization (the paper's "future work" extension).

Section VI of the paper lists combining SparDL's sparsification with
quantization as future work: after top-k selection, the transmitted COO pairs
still carry full-precision values, so quantizing the value half of each pair
multiplies the bandwidth term by ``(1 + b/32) / 2`` for ``b``-bit values.

This module provides that combination:

* :class:`StochasticQuantizer` — unbiased QSGD-style uniform quantization of
  a value vector to ``b`` bits (plus one full-precision scale per message).
  :meth:`StochasticQuantizer.quantize_with_error` performs **one** stochastic
  draw and returns both the dequantized message and the exact quantization
  error ``values - quantized`` of that same draw, so error feedback always
  collects the error of the message actually sent;
* :func:`quantized_sparse_cost` — the compressed transmission size, in
  32-bit elements, of one quantized sparse message;
* :class:`QuantizedCompressor` — the pipeline's ``compress``-stage
  implementation: per-worker independent random streams
  (``np.random.SeedSequence.spawn``, so results do not depend on worker
  iteration order), ``(quantized, error)`` splitting for sparse and dense
  payloads, and the price of every wire payload at the quantized
  accounting (:meth:`QuantizedCompressor.price`), which its synchroniser's
  senders bill their messages with.

The Table I adjustment for quantized values (``quantized_bandwidth`` /
``quantized_complexity``) lives in :mod:`repro.analysis.complexity`.

The quantizer is unbiased, so the usual error-feedback argument for
convergence applies unchanged; the quantization error of each message is
folded into the residual store exactly like a sparsification discard.

Modelling convention for multi-hop procedures: each selected value is
quantized **once**, when it is first placed on the wire, and its exact error
enters error feedback.  Later hops forward merge-sums of quantized values;
those messages are *priced* at ``num_bits`` bits per value (the wire carries
``b``-bit codes end to end) but the re-encoding error of the merged sums is
not modelled — it is second-order in the level width and has no analogue in
the paper's accounting.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..comm.packed import PackedBags
from ..sparse.vector import SparseGradient

__all__ = [
    "StochasticQuantizer",
    "QuantizedCompressor",
    "quantized_sparse_cost",
]

#: Number of bits of one uncompressed element (index or value) in the paper's
#: COO accounting.
_ELEMENT_BITS = 32


def quantized_sparse_cost(nnz: int, num_bits: int) -> float:
    """Wire size, in 32-bit elements, of one quantized sparse message.

    One full element per index, ``num_bits`` bits per value, and one
    full-precision scale element for the whole message (omitted when the
    message is empty — nothing travels at all).  This is exactly
    ``2 * nnz * (1 + num_bits/32) / 2 + 1``: the paper's COO volume scaled by
    the quantization factor, plus the scale.
    """
    if not 1 <= num_bits <= 32:
        raise ValueError("num_bits must be between 1 and 32")
    if nnz < 0:
        raise ValueError("nnz must be non-negative")
    if nnz == 0:
        return 0.0
    return nnz * (1.0 + num_bits / _ELEMENT_BITS) + 1.0


class StochasticQuantizer:
    """Unbiased uniform quantization of gradient values to ``num_bits`` bits.

    Values are mapped onto ``2**num_bits - 1`` uniform levels spanning
    ``[-scale, +scale]`` where ``scale`` is the maximum magnitude of the
    message; each value is rounded stochastically to one of its two
    neighbouring levels so that the expectation equals the input
    (QSGD-style).  The per-message ``scale`` travels at full precision and is
    accounted for by :func:`quantized_sparse_cost`.
    """

    def __init__(self, num_bits: int = 8, seed: int = 0) -> None:
        if not 1 <= num_bits <= 32:
            raise ValueError("num_bits must be between 1 and 32")
        self.num_bits = int(num_bits)
        self.num_levels = (1 << self.num_bits) - 1
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    @property
    def element_cost(self) -> float:
        """Cost of one quantized value in 32-bit elements."""
        return self.num_bits / _ELEMENT_BITS

    def quantize_with_error(self, values: np.ndarray,
                            rng: Optional[np.random.Generator] = None
                            ) -> Tuple[np.ndarray, np.ndarray]:
        """Quantize ``values`` with ONE stochastic draw; return
        ``(quantized, error)`` with ``error == values - quantized`` exactly.

        This is the error-feedback entry point: because the error is computed
        from the same draw as the message, ``quantized + error`` reconstructs
        the input bit for bit, so folding ``error`` into a residual store
        keeps the conservation invariant ``sent + error == input``.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return values.copy(), values.copy()
        scale = float(np.abs(values).max())
        if scale == 0.0:
            return np.zeros_like(values), np.zeros_like(values)
        rng = rng or self._rng
        quantized = self._round(values, scale, rng.random(values.shape))
        return quantized, values - quantized

    def _round(self, values: np.ndarray, scale: "float | np.ndarray",
               uniform: np.ndarray) -> np.ndarray:
        """``values`` (within ``+-scale``) rounded to a neighbouring level:
        up where ``uniform`` falls below the distance to the lower one."""
        normalised = values / scale  # in [-1, 1]
        scaled = (normalised + 1.0) / 2.0 * self.num_levels  # in [0, levels]
        lower = np.floor(scaled)
        probability_up = scaled - lower
        level = lower + (uniform < probability_up)
        level = np.clip(level, 0, self.num_levels)
        return (level / self.num_levels * 2.0 - 1.0) * scale

    def quantize_segments_with_error(
            self, values: np.ndarray, offsets: np.ndarray,
            rngs: Sequence[np.random.Generator]) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`quantize_with_error` on every segment
        ``values[offsets[s]:offsets[s + 1]]`` in one pass: each segment is a
        message of its own, with its own scale.

        The segments divide evenly among ``rngs``, in order, and a stream
        yields what one call per segment would have drawn from it: nothing
        for an empty or all-zero segment, so the stream is left where those
        calls would leave it.
        """
        values = np.asarray(values, dtype=np.float64)
        counts = np.diff(offsets)
        scales = np.zeros(counts.shape[0])
        filled = counts > 0
        if filled.any():
            scales[filled] = np.maximum.reduceat(np.abs(values), offsets[:-1][filled])
        live = scales != 0.0
        drawn = np.where(live, counts, 0).reshape(len(rngs), -1).sum(axis=1)
        uniform = np.concatenate([rng.random(count)
                                  for rng, count in zip(rngs, drawn.tolist())])
        scale = np.repeat(scales, counts)
        if uniform.shape[0] == values.shape[0]:
            quantized = self._round(values, scale, uniform)
            return quantized, values - quantized
        # Some segment is all zeros: like a message of its own, it is sent
        # (and leaves an error of) +0.0 without a draw.
        drawing = np.repeat(live, counts)
        quantized, error = np.zeros_like(values), np.zeros_like(values)
        quantized[drawing] = self._round(values[drawing], scale[drawing], uniform)
        error[drawing] = values[drawing] - quantized[drawing]
        return quantized, error

    def quantize(self, values: np.ndarray,
                 rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Return the dequantized representation of ``values``.

        The result only takes ``2**num_bits - 1`` distinct levels (scaled by
        the message's maximum magnitude) but is returned as float64 so it can
        flow through the rest of the library unchanged.  When the error of
        the same draw is also needed, use :meth:`quantize_with_error`.
        """
        return self.quantize_with_error(values, rng=rng)[0]


class QuantizedCompressor:
    """The ``compress`` stage: quantize wire values, feed back exact errors,
    and price every message at the quantized accounting.

    One compressor serves one synchroniser, which holds it as ``sync.stack``
    and rebuilds it from :attr:`num_bits`, :attr:`seed` and :attr:`streams`
    when its worker count changes.  It owns an independent random
    stream per worker (spawned from one ``np.random.SeedSequence``), so the
    quantized run is reproducible **and** independent of the order in which
    the workers of a simulated step happen to be iterated — a shared stream
    would make worker 3's draw depend on whether worker 2 was processed
    first.

    Responsibilities:

    * :meth:`compress_sparse` / :meth:`compress_dense` — quantize one
      worker's payload with that worker's stream and return
      ``(quantized, error)`` from a single draw, ready for the caller to
      fold ``error`` into its :class:`~repro.core.residuals.ResidualManager`;
    * :meth:`price` — the billed size of a wire payload, with which the
      synchroniser (``GradientSynchronizer.wire_size``) and Spar-Reduce-Scatter
      price every message of a quantized step as they build it.  Every bag
      of a :class:`~repro.comm.packed.PackedBags` bills
      :func:`quantized_sparse_cost` (one scale element per non-empty bag);
      dense float arrays bill ``num_bits/32`` per value (the
      ``dense`` method's convention); routing integers (block ids, group
      positions) and ``None`` stay zero-cost metadata; bare scalars remain
      one element of control traffic, unquantized.
    """

    def __init__(self, num_bits: int, num_workers: int, seed: int = 0,
                 streams: int = 1) -> None:
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        if streams <= 0:
            raise ValueError("streams must be positive")
        self.quantizer = StochasticQuantizer(num_bits)
        self.num_bits = self.quantizer.num_bits
        self.num_workers = int(num_workers)
        self.seed = int(seed)
        self.streams = int(streams)
        #: Per worker, one generator per separately selected tensor
        #: (``streams`` of them, each started where a compressor serving
        #: that tensor alone would start): a tensor's draws do not depend on
        #: which other tensors share its exchange.
        self._rngs: Dict[int, List[np.random.Generator]] = {
            worker: [np.random.default_rng(stream) for _ in range(streams)]
            for worker, stream in enumerate(
                np.random.SeedSequence(seed).spawn(self.num_workers))
        }

    # ------------------------------------------------------------------
    # value transformation (error feedback)
    # ------------------------------------------------------------------
    def compress_sparse(self, worker: int, sparse: SparseGradient,
                        offsets: Optional[np.ndarray] = None
                        ) -> Tuple[SparseGradient, SparseGradient]:
        """Quantize a sparse selection; return ``(quantized, error)``.

        Both outputs share the input's index array (quantization never moves
        support), and ``quantized.values + error.values == sparse.values``
        exactly — the error is what the caller hands to
        ``ResidualManager.collect_local_sparse``.

        ``offsets`` cuts the selection into segments that are quantized as
        separate messages (own scale, own draws): entries
        ``offsets[s]:offsets[s + 1]``, the segments dividing evenly among
        the worker's streams.
        """
        if sparse.nnz == 0:
            return sparse, SparseGradient.empty(sparse.length)
        if offsets is None:
            quantized, error = self.quantizer.quantize_with_error(
                sparse.values, rng=self._rngs[worker][0])
        else:
            quantized, error = self.quantizer.quantize_segments_with_error(
                sparse.values, offsets, self._rngs[worker])
        return (
            SparseGradient.from_sorted_unique(sparse.indices, quantized, sparse.length),
            SparseGradient.from_sorted_unique(sparse.indices, error, sparse.length),
        )

    def compress_dense(self, worker: int, dense: np.ndarray
                       ) -> Tuple[np.ndarray, np.ndarray]:
        """Quantize a dense gradient; return ``(quantized, error)``."""
        return self.quantizer.quantize_with_error(dense, rng=self._rngs[worker][0])

    # ------------------------------------------------------------------
    # wire pricing
    # ------------------------------------------------------------------
    def dense_cost(self, num_values: float) -> float:
        """Quantized cost of ``num_values`` dense values (no indices travel,
        so the only cost is ``num_bits`` bits per value; the ``dense``
        method's convention bills no scale element)."""
        return float(num_values) * self.num_bits / _ELEMENT_BITS

    def price(self, payload: Any) -> float:
        """Quantized wire size of ``payload``, by structural decomposition.

        Mirrors :func:`repro.comm.transport.payload_size` unit by unit, with
        the quantized accounting substituted for every value-bearing unit:
        a :class:`~repro.comm.packed.PackedBags` bills its values at
        ``num_bits`` bits, its indices at full precision and one scale per
        non-empty bag — the sum of :func:`quantized_sparse_cost` over its
        bags, exactly (every term is a dyadic rational).
        Integers inside containers follow the repository's accounting
        convention (block ids, group positions and slice offsets are header
        metadata, never billed); a bare numeric payload is one element of
        control traffic either way.
        """
        if isinstance(payload, (int, float, np.integer, np.floating)):
            return 1.0
        return self._price(payload)

    def _price(self, payload: Any) -> float:
        if payload is None:
            return 0.0
        if isinstance(payload, np.ndarray):
            return self.dense_cost(payload.size)
        if isinstance(payload, PackedBags):
            if payload.nnz == 0:
                return 0.0
            nonempty = int(np.count_nonzero(np.diff(payload.offsets)))
            return payload.nnz * (1.0 + self.num_bits / _ELEMENT_BITS) + float(nonempty)
        if isinstance(payload, (list, tuple)):
            return float(sum(self._price(item) for item in payload))
        if isinstance(payload, (int, np.integer)):
            return 0.0  # routing metadata inside a container
        if isinstance(payload, (float, np.floating)):
            return 1.0  # control scalar (e.g. a transmitted size)
        raise TypeError(
            f"cannot determine quantized wire size of {type(payload)!r}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"QuantizedCompressor(num_bits={self.num_bits}, "
                f"num_workers={self.num_workers}, seed={self.seed})")
