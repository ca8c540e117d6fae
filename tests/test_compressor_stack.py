"""A synchroniser's compression state: one optional quantizer and the
momentum factor on its residual manager — the (payload, error) contract,
conservation across every momentum x bits combination, momentum-off
bit-identity, the constructors' range checks, and one ``bits=`` width
across every bucket of a bucketed spec.

The invariants:

* ``QuantizedCompressor.compress_*`` returns ``(payload, error)`` with
  ``payload + error == input`` exactly, so the conservation ledger
  ``global + residual_after == residual_before + m * velocity_before +
  sum_w gradient_w`` holds to 1e-9 for every combination of momentum x
  quantization;
* with momentum and bits both unset, ``sync.stack`` is ``None`` and every
  synchroniser keeps its uncompressed code path bit for bit;
* every constructor that takes them (SparDL's and Dense's) rejects a
  momentum factor outside (0, 1) and a bit width outside [1, 32].
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import describe, make
from repro.baselines import (
    DenseAllReduceSynchronizer,
    GTopkSynchronizer,
    OkTopkSynchronizer,
    TopkASynchronizer,
    TopkDSASynchronizer,
)
from repro.comm.cluster import SimulatedCluster
from repro.compression.quantization import QuantizedCompressor
from repro.core.config import SparDLConfig
from repro.core.residuals import ResidualManager
from repro.core.spardl import SparDLSynchronizer
from repro.nn.models import build_mlp
from repro.sparse.topk import top_k_indices
from repro.sparse.vector import SparseGradient
from repro.training.timing import ComputeProfile

from tests.helpers import random_gradients


class TestPayloadErrorContract:
    def test_sparse_payload_plus_error_reconstructs_exactly(self):
        compressor = QuantizedCompressor(3, 2)
        rng = np.random.default_rng(7)
        dense = rng.normal(size=40)
        sparse = SparseGradient.from_dense(dense, top_k_indices(dense, 10))
        payload, error = compressor.compress_sparse(1, sparse)
        np.testing.assert_array_equal(payload.to_dense() + error.to_dense(),
                                      sparse.to_dense())

    def test_dense_payload_plus_error_reconstructs_exactly(self):
        compressor = QuantizedCompressor(4, 2)
        dense = np.random.default_rng(3).normal(size=25)
        payload, error = compressor.compress_dense(0, dense)
        # The dense error is computed in the quantizer's scaled space, so
        # reconstruction is exact up to one float64 rounding per value.
        np.testing.assert_allclose(payload + error, dense, rtol=0, atol=1e-14)


#: The constructors that take ``momentum=`` and ``num_bits=``.
CONSTRUCTORS = {
    "SparDL": lambda cluster, **kw: SparDLSynchronizer(
        cluster, 64, SparDLConfig(density=0.1, **kw)),
    "Dense": lambda cluster, **kw: DenseAllReduceSynchronizer(cluster, 64, **kw),
}


class TestConstructorRanges:
    """Each constructor checks ``momentum=`` and ``num_bits=`` itself."""

    @pytest.mark.parametrize("method", list(CONSTRUCTORS))
    @pytest.mark.parametrize("factor", [0.0, 1.0, -0.5, 1.5])
    def test_momentum_factor_outside_open_unit_interval_raises(self, method, factor):
        with pytest.raises(ValueError, match=r"momentum.*\(0, 1\)"):
            CONSTRUCTORS[method](SimulatedCluster(4), momentum=factor)

    @pytest.mark.parametrize("method", list(CONSTRUCTORS))
    @pytest.mark.parametrize("bits", [0, 33])
    def test_bits_outside_range_raises(self, method, bits):
        with pytest.raises(ValueError, match="between 1 and 32"):
            CONSTRUCTORS[method](SimulatedCluster(4), num_bits=bits)

    @pytest.mark.parametrize("method", list(CONSTRUCTORS))
    def test_momentum_and_bits_land_on_residuals_and_quantizer(self, method):
        sync = CONSTRUCTORS[method](SimulatedCluster(4), momentum=0.7, num_bits=6)
        assert sync.residuals.momentum == 0.7
        assert sync.residuals.velocity(0) is not None
        assert isinstance(sync.stack, QuantizedCompressor)
        assert (sync.stack.num_bits, sync.stack.num_workers) == (6, 4)


    @pytest.mark.parametrize("argument", [{"num_bits": 8}, {"momentum": 0.9}],
                             ids=["num_bits", "momentum"])
    @pytest.mark.parametrize("cls", [TopkASynchronizer, TopkDSASynchronizer,
                                     GTopkSynchronizer, OkTopkSynchronizer],
                             ids=lambda cls: cls.name)
    def test_sparse_baselines_take_neither(self, cls, argument):
        """The baselines run the paper's competitors unquantized and
        without momentum correction: neither argument exists."""
        with pytest.raises(TypeError, match=next(iter(argument))):
            cls(SimulatedCluster(4), 64, density=0.1, **argument)
        sync = cls(SimulatedCluster(4), 64, density=0.1)
        assert sync.stack is None and sync.residuals.momentum == 0.0


class TestConservationProperty:
    """ISSUE gate: ``sent + error + discards == input`` to 1e-9 across
    momentum x quantize.  With momentum correction the
    ledger gains the re-fed velocity term:
    ``global + residual_after == residual_before + m * velocity_before +
    sum_w gradient_w``  (``m = 0`` reduces it to plain GRES conservation)."""

    @given(momentum=st.sampled_from([None, 0.5, 0.9]),
           bits=st.sampled_from([None, 8, 4]),
           seed=st.integers(min_value=0, max_value=300))
    @settings(max_examples=40, deadline=None)
    def test_spardl_ledger_all_stage_combinations(self, momentum, bits, seed):
        num_workers, num_elements = 4, 120
        cluster = SimulatedCluster(num_workers)
        sync = SparDLSynchronizer(cluster, num_elements, SparDLConfig(
            density=0.05, num_bits=bits, momentum=momentum))
        factor = momentum or 0.0
        for i in range(3):
            grads = random_gradients(num_workers, num_elements, seed=seed + 7 * i)
            residual_before = sync.residuals.total_residual()
            velocity_before = sync.residuals.total_velocity()
            result = sync.synchronize(grads)
            assert result.is_consistent
            lhs = result.gradient(0) + sync.residuals.total_residual()
            rhs = residual_before + factor * velocity_before + sum(grads.values())
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    @given(momentum=st.sampled_from([0.5, 0.9]),
           bits=st.sampled_from([None, 8]),
           seed=st.integers(min_value=0, max_value=200))
    @settings(max_examples=25, deadline=None)
    def test_baseline_ledger_with_momentum(self, momentum, bits, seed):
        num_workers, num_elements = 4, 90
        cluster = SimulatedCluster(num_workers)
        sync = make("dense", cluster, num_elements=num_elements,
                    momentum=momentum, bits=bits)
        for i in range(3):
            grads = random_gradients(num_workers, num_elements, seed=seed + 11 * i)
            residual_before = sync.residuals.total_residual()
            velocity_before = sync.residuals.total_velocity()
            result = sync.synchronize(grads)
            lhs = result.gradient(0) + sync.residuals.total_residual()
            rhs = residual_before + momentum * velocity_before + sum(grads.values())
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)


ALL_METHODS = ["SparDL", "TopkA", "TopkDSA", "gTopk", "Ok-Topk", "Dense"]


class TestMomentumOffBitIdentity:
    """With ``momentum=`` unset the stack machinery must be invisible: no
    velocity is allocated, no ``momentum`` info key appears, and two
    identical builds produce byte-identical gradients, residual stores and
    communication statistics (the PR 9 behaviour)."""

    def _build(self, method):
        cluster = SimulatedCluster(4)
        kwargs = {} if method == "Dense" else {"density": 0.05}
        return make(method, cluster, num_elements=160, **kwargs)

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_no_stack_no_momentum_key(self, method):
        sync = self._build(method)
        assert sync.stack is None
        result = sync.synchronize(random_gradients(4, 160, seed=3))
        assert "momentum" not in result.info

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_two_builds_byte_identical(self, method):
        a, b = self._build(method), self._build(method)
        for i in range(2):
            grads = random_gradients(4, 160, seed=17 + i)
            result_a = a.synchronize(grads)
            result_b = b.synchronize({w: g.copy() for w, g in grads.items()})
            for rank in range(4):
                np.testing.assert_array_equal(result_a.gradient(rank),
                                              result_b.gradient(rank))
            assert result_a.stats.total_volume == result_b.stats.total_volume
            assert result_a.stats.rounds == result_b.stats.rounds
            residuals_a = getattr(a, "residuals", None)
            if residuals_a is not None:
                np.testing.assert_array_equal(residuals_a.total_residual(),
                                              b.residuals.total_residual())

    def test_momentum_zero_manager_matches_plain_manager(self):
        plain = ResidualManager(3, 50)
        zero = ResidualManager(3, 50, momentum=0.0)
        assert zero.velocity(0) is None
        grads = random_gradients(3, 50, seed=5)
        corrected_plain = plain.apply(grads)
        corrected_zero = zero.apply({w: g.copy() for w, g in grads.items()})
        for worker in range(3):
            np.testing.assert_array_equal(corrected_plain[worker],
                                          corrected_zero[worker])
        np.testing.assert_array_equal(zero.total_velocity(), np.zeros(50))


class TestBucketedBits:
    """``bits=`` is one width for every bucket: ``buckets=layer`` is one
    quantized SparDL, and every planned bucket of ``buckets=auto`` prices
    its own wire at that width."""

    def test_every_planned_bucket_prices_the_spec_width(self):
        model = build_mlp(8, [8], 2, seed=0)
        spec = "spardl?density=0.2&buckets=auto&bits=8"
        sync = make(spec, SimulatedCluster(4), model=model,
                    compute_profile=ComputeProfile(0.13, 35.2e6))
        assert describe(sync) == spec
        assert len(sync.sessions) > 1
        assert [s.synchronizer.stack.num_bits for s in sync.sessions] == [8] * len(sync.sessions)

        grads = random_gradients(4, model.num_parameters(), seed=9)
        result = sync.synchronize(grads)
        reported = [info.get("quantized_bits") for info in result.info["per_bucket_info"]]
        assert reported == [8] * len(sync.sessions)
        # Conservation survives the per-bucket quantisers.
        recon = result.gradient(0) + sync.total_residual()
        np.testing.assert_allclose(recon, sum(grads.values()), atol=1e-9)

    def test_layer_bits_is_one_quantized_spardl(self):
        model = build_mlp(8, [8], 2, seed=0)
        sync = make("spardl?density=0.2&buckets=layer&bits=32", SimulatedCluster(2),
                    model=model)
        assert type(sync) is SparDLSynchronizer
        assert sync.bucket_sizes == [p.size for p in model.parameters()]
        assert sync.stack.num_bits == 32
        grads = random_gradients(2, model.num_parameters(), seed=3)
        assert sync.synchronize(grads).info["quantized_bits"] == 32
