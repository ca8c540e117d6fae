"""Unit and property tests for the quantization extension (Section VI)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.analysis import quantized_bandwidth, quantized_complexity
from repro.analysis.complexity import spardl_complexity, table1
from repro.compression import (
    QuantizedCompressor,
    StochasticQuantizer,
    quantized_sparse_cost,
)
from repro.comm.packed import PackedBags
from repro.comm.transport import payload_size
from repro.sparse.vector import SparseGradient


class TestStochasticQuantizer:
    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            StochasticQuantizer(num_bits=0)
        with pytest.raises(ValueError):
            StochasticQuantizer(num_bits=64)

    def test_zero_vector_stays_zero(self):
        quantizer = StochasticQuantizer(num_bits=4, seed=0)
        np.testing.assert_array_equal(quantizer.quantize(np.zeros(10)), np.zeros(10))

    def test_empty_vector(self):
        quantizer = StochasticQuantizer(num_bits=4, seed=0)
        assert quantizer.quantize(np.zeros(0)).size == 0

    def test_error_bounded_by_one_level(self):
        quantizer = StochasticQuantizer(num_bits=6, seed=1)
        values = np.random.default_rng(0).normal(size=500)
        quantized = quantizer.quantize(values)
        level_width = 2 * np.abs(values).max() / quantizer.num_levels
        assert np.abs(values - quantized).max() <= level_width + 1e-12

    def test_extreme_values_are_representable_exactly(self):
        quantizer = StochasticQuantizer(num_bits=3, seed=0)
        values = np.array([-2.0, 0.0, 2.0])
        quantized = quantizer.quantize(values)
        assert quantized[0] == pytest.approx(-2.0)
        assert quantized[2] == pytest.approx(2.0)

    def test_unbiasedness(self):
        """Averaged over many stochastic roundings, the quantized value
        converges to the input (QSGD unbiasedness)."""
        quantizer = StochasticQuantizer(num_bits=2, seed=3)
        values = np.array([0.3, -0.7, 1.0, 0.05])
        total = np.zeros_like(values)
        repeats = 4000
        for _ in range(repeats):
            total += quantizer.quantize(values)
        np.testing.assert_allclose(total / repeats, values, atol=0.02)

    def test_more_bits_means_lower_error(self):
        values = np.random.default_rng(1).normal(size=2000)
        errors = {}
        for bits in (2, 4, 8):
            quantizer = StochasticQuantizer(num_bits=bits, seed=0)
            errors[bits] = float(np.abs(values - quantizer.quantize(values)).mean())
        assert errors[8] < errors[4] < errors[2]

    def test_element_cost(self):
        assert StochasticQuantizer(num_bits=8).element_cost == pytest.approx(0.25)
        assert StochasticQuantizer(num_bits=32).element_cost == pytest.approx(1.0)

    def test_quantize_with_error_is_exact_from_one_draw(self):
        """The confirmed bug: the error must equal ``values - <the message
        actually produced>``, which requires message and error to come from
        one draw.  quantize_with_error guarantees it bitwise."""
        quantizer = StochasticQuantizer(num_bits=4, seed=5)
        values = np.random.default_rng(2).normal(size=100)
        quantized, error = quantizer.quantize_with_error(values)
        assert np.array_equal(error, values - quantized)
        np.testing.assert_allclose(quantized + error, values, atol=1e-12)

    def test_standalone_error_path_is_gone(self):
        """The deprecated ``quantization_error`` re-draw path is removed:
        a standalone error method could never describe a previously sent
        message (each call consumed fresh randomness), so the only
        error-feedback entry point is :meth:`quantize_with_error`."""
        assert not hasattr(StochasticQuantizer, "quantization_error")
        quantizer = StochasticQuantizer(num_bits=2, seed=5)
        with pytest.raises(AttributeError):
            quantizer.quantization_error  # noqa: B018 - attribute must be gone

    def test_quantize_matches_quantize_with_error(self):
        quantizer = StochasticQuantizer(num_bits=3, seed=0)
        values = np.random.default_rng(4).normal(size=50)
        via_pair = quantizer.quantize_with_error(values, rng=np.random.default_rng(9))[0]
        direct = quantizer.quantize(values, rng=np.random.default_rng(9))
        np.testing.assert_array_equal(via_pair, direct)

    def test_quantize_with_error_empty_and_zero(self):
        quantizer = StochasticQuantizer(num_bits=4, seed=0)
        q, e = quantizer.quantize_with_error(np.zeros(0))
        assert q.size == 0 and e.size == 0
        q, e = quantizer.quantize_with_error(np.zeros(7))
        np.testing.assert_array_equal(q, np.zeros(7))
        np.testing.assert_array_equal(e, np.zeros(7))

    def test_unbiasedness_over_repeated_draws_of_the_pair(self):
        """Mean of quantize_with_error's message converges to the input
        (and the mean error to zero): QSGD unbiasedness through the new
        single-draw interface."""
        quantizer = StochasticQuantizer(num_bits=2, seed=11)
        values = np.array([0.4, -0.9, 0.08, 1.0])
        total_q = np.zeros_like(values)
        total_e = np.zeros_like(values)
        repeats = 4000
        for _ in range(repeats):
            q, e = quantizer.quantize_with_error(values)
            total_q += q
            total_e += e
        np.testing.assert_allclose(total_q / repeats, values, atol=0.02)
        np.testing.assert_allclose(total_e / repeats, np.zeros_like(values), atol=0.02)

    @given(values=hnp.arrays(dtype=np.float64, shape=st.integers(1, 200),
                             elements=st.floats(-1e4, 1e4, allow_nan=False)),
           bits=st.sampled_from([1, 2, 4, 8, 16]))
    @settings(max_examples=50, deadline=None)
    def test_property_levels_and_range(self, values, bits):
        """Quantized output uses at most 2^bits - 1 + 1 distinct levels and
        never exceeds the input range."""
        quantizer = StochasticQuantizer(num_bits=bits, seed=0)
        quantized = quantizer.quantize(values)
        assert np.unique(quantized).size <= (1 << bits)
        assert np.abs(quantized).max() <= np.abs(values).max() + 1e-9


class TestQuantizedSparse:
    def test_indices_preserved_and_size_reduced(self):
        sparse = SparseGradient(np.array([3, 10, 40]), np.array([0.5, -2.0, 1.0]), 100)
        compressor = QuantizedCompressor(8, num_workers=1, seed=0)
        quantized, _ = compressor.compress_sparse(0, sparse)
        np.testing.assert_array_equal(quantized.indices, sparse.indices)
        comm_size = compressor.price(PackedBags.pack([quantized]))
        assert comm_size < payload_size(PackedBags.pack([sparse]))
        assert comm_size == pytest.approx(3 * 1.25 + 1.0)

    def test_empty_sparse(self):
        compressor = QuantizedCompressor(8, num_workers=1, seed=0)
        quantized, _ = compressor.compress_sparse(0, SparseGradient.empty(10))
        assert quantized.nnz == 0
        assert compressor.price(PackedBags.pack([quantized])) == 0.0

    @pytest.mark.parametrize("bits,per_value", [(2, 2 / 32), (4, 0.125),
                                                (8, 0.25), (16, 0.5), (32, 1.0)])
    def test_cost_closed_form(self, bits, per_value):
        """nnz full-precision indices + nnz b-bit values + one scale —
        exactly 2*nnz*(1 + b/32)/2 + 1."""
        for nnz in (1, 3, 17, 1000):
            expected = nnz * (1.0 + per_value) + 1.0
            assert quantized_sparse_cost(nnz, bits) == pytest.approx(expected)
            assert quantized_sparse_cost(nnz, bits) == pytest.approx(
                2 * nnz * (1 + bits / 32) / 2 + 1)
        assert quantized_sparse_cost(0, bits) == 0.0

    def test_cost_matches_the_price_of_a_compressed_selection(self):
        sparse = SparseGradient(np.arange(5), np.arange(1.0, 6.0), 50)
        for bits in (2, 4, 8):
            compressor = QuantizedCompressor(bits, num_workers=1, seed=0)
            quantized, _ = compressor.compress_sparse(0, sparse)
            comm_size = compressor.price(PackedBags.pack([quantized]))
            assert comm_size == quantized_sparse_cost(sparse.nnz, bits)

    def test_cost_validates_inputs(self):
        with pytest.raises(ValueError):
            quantized_sparse_cost(1, 0)
        with pytest.raises(ValueError):
            quantized_sparse_cost(1, 33)
        with pytest.raises(ValueError):
            quantized_sparse_cost(-1, 8)


class TestQuantizedCompressor:
    def test_per_worker_streams_are_independent_of_order(self):
        """The second confirmed bug: a shared RNG made results depend on
        worker iteration order.  With spawned per-worker streams, quantizing
        the workers in any order produces identical messages."""
        values = {w: np.random.default_rng(w).normal(size=64) for w in range(6)}
        sparses = {w: SparseGradient(np.arange(64), v, 64) for w, v in values.items()}
        forward = QuantizedCompressor(4, num_workers=6, seed=1)
        backward = QuantizedCompressor(4, num_workers=6, seed=1)
        out_fwd = {w: forward.compress_sparse(w, sparses[w])[0] for w in range(6)}
        out_bwd = {w: backward.compress_sparse(w, sparses[w])[0]
                   for w in reversed(range(6))}
        for w in range(6):
            np.testing.assert_array_equal(out_fwd[w].values, out_bwd[w].values)

    def test_streams_differ_between_workers(self):
        compressor = QuantizedCompressor(2, num_workers=4, seed=0)
        values = np.random.default_rng(0).normal(size=256)
        sparse = SparseGradient(np.arange(256), values, 256)
        messages = [compressor.compress_sparse(w, sparse)[0].values for w in range(4)]
        assert not np.array_equal(messages[0], messages[1])

    def test_compress_sparse_error_is_exact(self):
        compressor = QuantizedCompressor(4, num_workers=2, seed=3)
        sparse = SparseGradient(np.array([1, 5, 9]), np.array([0.3, -1.2, 0.8]), 20)
        quantized, error = compressor.compress_sparse(0, sparse)
        np.testing.assert_array_equal(quantized.indices, sparse.indices)
        np.testing.assert_array_equal(error.indices, sparse.indices)
        np.testing.assert_array_equal(error.values, sparse.values - quantized.values)
        np.testing.assert_allclose(quantized.values + error.values, sparse.values,
                                   atol=1e-12)

    def test_compress_sparse_empty(self):
        compressor = QuantizedCompressor(8, num_workers=1)
        quantized, error = compressor.compress_sparse(0, SparseGradient.empty(10))
        assert quantized.nnz == 0 and error.nnz == 0

    def test_compress_dense_error_is_exact(self):
        compressor = QuantizedCompressor(2, num_workers=2, seed=0)
        dense = np.random.default_rng(1).normal(size=100)
        quantized, error = compressor.compress_dense(1, dense)
        np.testing.assert_array_equal(error, dense - quantized)
        np.testing.assert_allclose(quantized + error, dense, atol=1e-12)

    def test_pricing_units(self):
        compressor = QuantizedCompressor(8, num_workers=2)
        sparse = PackedBags.pack([
            SparseGradient(np.array([1, 2, 3]), np.array([1.0, 2.0, 3.0]), 10)])
        # sparse message: quantized_sparse_cost accounting, scale included
        assert compressor.price(sparse) == quantized_sparse_cost(3, 8)
        # dense values: num_bits/32 apiece, no scale
        assert compressor.price(np.zeros(100)) == pytest.approx(25.0)
        # routing ints inside containers are metadata; bare scalars are one
        # element of control traffic
        assert compressor.price((7, sparse)) == quantized_sparse_cost(3, 8)
        assert compressor.price(3.5) == 1.0
        assert compressor.price(None) == 0.0
        # lists decompose recursively
        assert compressor.price([sparse, sparse]) == 2 * quantized_sparse_cost(3, 8)

    def test_pricing_packed_bags(self):
        compressor = QuantizedCompressor(8, num_workers=2)
        bags = [SparseGradient(np.array([1, 2]), np.array([1.0, 2.0]), 10),
                SparseGradient.empty(10),
                SparseGradient(np.array([5]), np.array([3.0]), 10)]
        packed = PackedBags.pack(bags)
        # 3 nnz total, 2 non-empty bags -> 2 scales
        assert compressor.price(packed) == pytest.approx(3 * 1.25 + 2.0)
        # exactly the per-bag costs summed: every term is dyadic
        assert compressor.price(packed) == sum(
            quantized_sparse_cost(bag.nnz, 8) for bag in bags)

    def test_pricing_rejects_unknown_payloads(self):
        compressor = QuantizedCompressor(8, num_workers=1)
        with pytest.raises(TypeError):
            compressor.price(object())


class TestQuantizedComplexity:
    def test_bandwidth_factor(self):
        assert quantized_bandwidth(100.0, 8) == pytest.approx(100.0 * (1 + 0.25) / 2)
        assert quantized_bandwidth(100.0, 32) == pytest.approx(100.0)

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            quantized_bandwidth(100.0, 0)

    def test_quantized_complexity_keeps_latency(self):
        bound = spardl_complexity(14, 10 ** 6, 10 ** 4)
        combined = quantized_complexity(bound, 8)
        assert combined.latency_rounds == bound.latency_rounds
        assert combined.bandwidth_high == pytest.approx(bound.bandwidth_high * 0.625)
        assert "8bit" in combined.method

    def test_combining_with_spardl_reduces_predicted_time(self):
        bound = spardl_complexity(14, 10 ** 6, 10 ** 4)
        combined = quantized_complexity(bound, 4)
        assert combined.time(1e-3, 1e-8) < bound.time(1e-3, 1e-8)

    def test_table1_renders_quantized_rows_next_to_plain_ones(self):
        plain = table1(8, 10 ** 5, 10 ** 3, d=2)
        both = table1(8, 10 ** 5, 10 ** 3, d=2, num_bits=8)
        assert set(plain) <= set(both)
        for name, bound in plain.items():
            combined = both[f"{name}+8bit"]
            assert combined.latency_rounds == bound.latency_rounds
            assert combined.bandwidth_high == pytest.approx(
                bound.bandwidth_high * (1 + 8 / 32) / 2)
