"""End-to-end gates for the quantized ``compress`` stage (PR 5).

Three contracts, straight from the issue's acceptance criteria:

* **bits absent == pre-quantization pipeline.**  Without ``bits`` no
  compressor is installed, the compress stage is the identity and every
  message bills its full-precision size, also on a cluster a quantized
  step ran on before — `tests/test_pipeline_equivalence.py` already gates
  the resulting behaviour bit-for-bit; here we gate the *mechanism* (no
  compressor object, identity wire).
* **bits=b == quantized accounting, per message.**  Every message of a
  quantized step bills the ``(1 + b/32)/2`` COO accounting exactly — one
  full element per index, ``b`` bits per value, one scale element per
  non-empty sparse unit, ``b/32`` per dense value — verified message by
  message against an independent re-derivation, plus in closed form for a
  dense All-Reduce.  Fewer bits move strictly less and land strictly
  farther from the exact sum.
* **residual mass is conserved.**  ``sum_t global_t + residuals ==
  sum_t inputs`` (sent + quantization error + discards == input, telescoped
  over iterations) for every GRES-collecting configuration, including teams
  and a high density.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import SYNCHRONIZER_NAMES, describe, make, parse_spec
from repro.comm.cluster import SimulatedCluster
from repro.core.bucketed import BucketedSynchronizer
from repro.core.config import SparDLConfig
from repro.core.pipeline import SyncSession
from repro.nn.models import build_mlp
from repro.training.timing import ComputeProfile

from tests.helpers import random_gradients
from tests.references import expected_price, spy_exchange

NUM_ELEMENTS = 600
ITERATIONS = 3
#: The methods that take ``bits=``.
QUANTIZED = ("SparDL", "Dense")


def _spec(method: str, bits=None) -> str:
    base = "dense" if method == "Dense" else f"{method.lower()}?density=0.05"
    if bits is None:
        return base
    separator = "&" if "?" in base else "?"
    return f"{base}{separator}bits={bits}"


def _gradients(num_workers: int, iteration: int, reverse: bool = False):
    workers = range(num_workers)
    if reverse:
        workers = reversed(list(workers))
    return {
        worker: np.random.default_rng(1000 * iteration + worker)
                  .normal(size=NUM_ELEMENTS)
        for worker in workers
    }


def _assert_bills_full_precision(cluster, method: str) -> None:
    """A full-precision step of ``method`` on ``cluster`` bills exactly what
    it bills on a fresh cluster, message by message."""
    gradients = _gradients(cluster.num_workers, 1)
    bills = []
    for target in (cluster, SimulatedCluster(cluster.num_workers)):
        sync = make(_spec(method), target, num_elements=NUM_ELEMENTS)
        records = spy_exchange(target)
        result = sync.synchronize(gradients)
        assert "quantized_bits" not in result.info
        bills.append(([(tag, size) for tag, size, _ in records],
                      result.stats.rounds, result.stats.received_per_worker))
    assert bills[0] == bills[1]


class TestBitsAbsentIsIdentity:
    @pytest.mark.parametrize("method", SYNCHRONIZER_NAMES)
    def test_no_compressor_without_bits(self, method):
        sync = make(_spec(method), SimulatedCluster(8), num_elements=NUM_ELEMENTS)
        assert sync.stack is None
        result = sync.synchronize(_gradients(8, 0))
        assert "quantized_bits" not in result.info
        # a quantized step first leaves nothing on the cluster that prices
        # a later full-precision one
        cluster = SimulatedCluster(8)
        make(_spec(method if method in QUANTIZED else "SparDL", bits=8), cluster,
             num_elements=NUM_ELEMENTS).synchronize(_gradients(8, 0))
        _assert_bills_full_precision(cluster, method)

    @pytest.mark.parametrize("method", QUANTIZED)
    def test_compressor_with_bits(self, method):
        sync = make(_spec(method, bits=8), SimulatedCluster(8),
                    num_elements=NUM_ELEMENTS)
        assert sync.stack.num_bits == 8
        result = sync.synchronize(_gradients(8, 0))
        assert result.info["quantized_bits"] == 8
        assert result.is_consistent
        # the quantized pricing belongs to the step's own messages: a
        # full-precision step after it on the same cluster bills full precision
        _assert_bills_full_precision(sync.cluster, method)


class TestPerMessageAccounting:
    @pytest.mark.parametrize("num_workers", [5, 8])
    @pytest.mark.parametrize("method", QUANTIZED)
    @pytest.mark.parametrize("bits", [2, 8])
    def test_every_message_bills_the_quantized_accounting(self, method,
                                                          num_workers, bits):
        cluster = SimulatedCluster(num_workers)
        sync = make(_spec(method, bits=bits), cluster, num_elements=NUM_ELEMENTS)
        records = spy_exchange(cluster)
        for iteration in range(2):
            sync.synchronize(_gradients(num_workers, iteration))
        assert records, "no traffic recorded"
        for tag, size, payload in records:
            assert size == expected_price(payload, bits), (
                f"{method}/{tag}: billed {size}, expected "
                f"{expected_price(payload, bits)}")

    @pytest.mark.parametrize("num_workers", [4, 8])
    @pytest.mark.parametrize("bits", [2, 8])
    def test_dense_closed_form_volume(self, num_workers, bits):
        """Dense All-Reduce at a power-of-two P is Rabenseifner's algorithm:
        every rank sends ``n (P - 1) / P`` values while halving and as many
        while doubling, each value billing ``b/32`` of an element, so the
        quantized volume over the cluster is ``2 n (P - 1) b/32`` in
        ``2 log2 P`` rounds."""
        P = num_workers
        sync = make(f"dense?bits={bits}", SimulatedCluster(P), num_elements=NUM_ELEMENTS)
        result = sync.synchronize(_gradients(P, 0))
        assert result.stats.total_volume == 2 * NUM_ELEMENTS * (P - 1) * bits / 32
        assert result.stats.rounds == 2 * (P.bit_length() - 1)

    @pytest.mark.parametrize("density", [0.5, 0.8, 1.0])
    def test_high_density_sparse_steps_price_bits_per_value(self, density):
        """At a high density SparDL still runs the sparse pipeline, whose
        quantized messages bill ``b`` bits per value but a full element per
        index: the volume falls below full precision, yet stays above
        ``b/32`` of it, in the same number of rounds."""
        P, bits = 8, 8
        plain = make(f"spardl?density={density}", SimulatedCluster(P),
                     num_elements=NUM_ELEMENTS)
        quantized = make(f"spardl?density={density}&bits={bits}", SimulatedCluster(P),
                         num_elements=NUM_ELEMENTS)
        result_plain = plain.synchronize(_gradients(P, 0))
        result_quant = quantized.synchronize(_gradients(P, 0))
        assert result_plain.info["srs_steps"] == result_quant.info["srs_steps"] > 0
        assert (result_plain.stats.total_volume * bits / 32
                < result_quant.stats.total_volume < result_plain.stats.total_volume)
        assert result_quant.stats.rounds == result_plain.stats.rounds

    def test_quantized_volume_is_reduced_for_every_method(self):
        P = 8
        for method in QUANTIZED:
            plain = make(_spec(method), SimulatedCluster(P),
                         num_elements=NUM_ELEMENTS)
            quantized = make(_spec(method, bits=4), SimulatedCluster(P),
                             num_elements=NUM_ELEMENTS)
            volume_plain = plain.synchronize(_gradients(P, 0)).stats.total_volume
            volume_quant = quantized.synchronize(_gradients(P, 0)).stats.total_volume
            assert volume_quant < volume_plain, method

    @pytest.mark.parametrize("layout", ["flat", "bucketed"])
    def test_fewer_bits_move_less_and_land_farther_from_the_exact_sum(self, layout):
        """Eight steps of P = 4, n = 4,000 (buckets 1,500 / 400 / 1,600 /
        500): volume falls strictly from full precision to 8, 4 and 2
        bits, and the mean relative distance of the global gradient from
        the exact dense sum grows strictly, full precision closest."""
        P, n = 4, 4_000
        volumes, errors = [], []
        for bits in (None, 8, 4, 2):
            spec = "spardl?density=0.02" + (f"&bits={bits}" if bits else "")
            if layout == "flat":
                sync = make(spec, SimulatedCluster(P), num_elements=n)
            else:
                sync = BucketedSynchronizer(
                    SimulatedCluster(P), [1_500, 400, 1_600, 500],
                    SparDLConfig(density=0.02, num_bits=bits))
            volume, distances = 0.0, []
            for iteration in range(8):
                gradients = random_gradients(P, n, seed=7000 + 100 * iteration)
                exact = sum(gradients.values())
                result = sync.synchronize(gradients)
                volume += result.stats.total_volume
                distances.append(np.linalg.norm(result.gradient(0) - exact)
                                 / np.linalg.norm(exact))
            volumes.append(volume)
            errors.append(np.mean(distances))
        assert all(more > less for more, less in zip(volumes, volumes[1:])), volumes
        assert all(closer < farther for closer, farther in zip(errors, errors[1:])), errors


class TestOrderIndependence:
    @pytest.mark.parametrize("method", QUANTIZED)
    def test_worker_iteration_order_does_not_change_results(self, method):
        """Per-worker spawned random streams: feeding the gradients dict in
        reversed insertion order must produce bit-identical results."""
        P = 8
        forward = make(_spec(method, bits=4), SimulatedCluster(P),
                       num_elements=NUM_ELEMENTS)
        backward = make(_spec(method, bits=4), SimulatedCluster(P),
                        num_elements=NUM_ELEMENTS)
        for iteration in range(ITERATIONS):
            result_fwd = forward.synchronize(_gradients(P, iteration))
            result_bwd = backward.synchronize(
                _gradients(P, iteration, reverse=True))
            for worker in range(P):
                np.testing.assert_array_equal(
                    result_fwd.global_gradients[worker],
                    result_bwd.global_gradients[worker],
                    err_msg=f"{method}: worker {worker} depends on iteration order")
            assert result_fwd.stats.total_volume == result_bwd.stats.total_volume

    def test_streams_are_reproducible_across_constructions(self):
        P = 4
        first = make("spardl?density=0.05&bits=8", SimulatedCluster(P),
                     num_elements=NUM_ELEMENTS)
        second = make("spardl?density=0.05&bits=8", SimulatedCluster(P),
                      num_elements=NUM_ELEMENTS)
        a = first.synchronize(_gradients(P, 0))
        b = second.synchronize(_gradients(P, 0))
        np.testing.assert_array_equal(a.gradient(0), b.gradient(0))


class TestResidualConservation:
    @pytest.mark.parametrize("spec", [
        "spardl?density=0.05&bits=8",
        "spardl?density=0.05&bits=2",
        "spardl?density=0.05&teams=2&bits=4",          # R-SAG
        "spardl?density=0.05&teams=3&bits=8",          # B-SAG (P=6)
        "spardl?density=0.8&bits=8",                   # high density, still sparse
        "dense?bits=8",                                # QSGD with error feedback
    ])
    def test_sent_plus_error_plus_discards_equals_input(self, spec):
        P = 6 if "teams=3" in spec else 8
        sync = make(spec, SimulatedCluster(P), num_elements=NUM_ELEMENTS)
        total_input = np.zeros(NUM_ELEMENTS)
        total_global = np.zeros(NUM_ELEMENTS)
        for iteration in range(ITERATIONS):
            gradients = _gradients(P, iteration)
            total_input += sum(gradients.values())
            result = sync.synchronize(gradients)
            assert result.is_consistent
            total_global += result.gradient(0)
        residual = sync.residuals.total_residual()
        np.testing.assert_allclose(total_global + residual, total_input,
                                   atol=1e-9)


class TestSessionsAndBuckets:
    @pytest.mark.parametrize("method", QUANTIZED)
    def test_session_equals_legacy_with_bits(self, method):
        P = 8
        legacy = make(_spec(method, bits=8), SimulatedCluster(P),
                      num_elements=NUM_ELEMENTS)
        session = SyncSession(make(_spec(method, bits=8), SimulatedCluster(P),
                                   num_elements=NUM_ELEMENTS))
        for iteration in range(ITERATIONS):
            gradients = _gradients(P, iteration)
            expected = legacy.synchronize({w: g.copy() for w, g in gradients.items()})
            actual = session.step({w: g.copy() for w, g in gradients.items()})
            for worker in range(P):
                np.testing.assert_array_equal(actual.global_gradients[worker],
                                              expected.global_gradients[worker])
            assert actual.stats.total_volume == expected.stats.total_volume
            assert actual.stats.rounds == expected.stats.rounds

    def test_bucketed_quantized_run_conserves_and_prices(self):
        P = 4
        cluster = SimulatedCluster(P)
        sizes = [200, 150, 250]
        bucketed = BucketedSynchronizer(cluster, sizes, SparDLConfig(density=0.05, num_bits=8))
        total_input = np.zeros(NUM_ELEMENTS)
        total_global = np.zeros(NUM_ELEMENTS)
        for iteration in range(ITERATIONS):
            gradients = _gradients(P, iteration)
            total_input += sum(gradients.values())
            result = bucketed.synchronize(gradients)
            total_global += result.gradient(0)
        np.testing.assert_allclose(total_global + bucketed.total_residual(),
                                   total_input, atol=1e-9)

    def test_mixed_precision_buckets_bill_their_own_precision(self):
        """A quantized synchroniser must not leak its pricing into a later
        full-precision one on the shared cluster."""
        P = 4
        cluster = SimulatedCluster(P)
        quantized = make("spardl?density=0.2&bits=8", cluster, num_elements=300)
        full = make("spardl?density=0.2", cluster, num_elements=300)
        reference = make("spardl?density=0.2", SimulatedCluster(P),
                         num_elements=300)
        gradients = _gradients(P, 0)
        result = quantized.synchronize({w: g[:300] for w, g in gradients.items()})
        unleaked = full.synchronize({w: g[300:] for w, g in gradients.items()})
        expected = reference.synchronize({w: g[300:] for w, g in gradients.items()})
        # the full-precision synchroniser's volume matches a standalone
        # full-precision run exactly: no pricing leaked
        assert unleaked.stats.total_volume == expected.stats.total_volume
        assert result.is_consistent
        # nor into a full-precision step after both
        _assert_bills_full_precision(cluster, "SparDL")


class TestSpecSurface:
    def test_plain_bits_canonicalizes_to_int(self):
        assert parse_spec("spardl?density=0.1&bits=8").bits == 8

    def test_describe_round_trips_bits(self):
        spec = "spardl?density=0.01&teams=2&schedule=warmup:5&bits=8"
        sync = make(spec, SimulatedCluster(8), num_elements=1000)
        assert describe(sync) == spec
        assert parse_spec(describe(sync)).bits == 8

    def test_bits_validation(self):
        with pytest.raises(ValueError):
            parse_spec("spardl?density=0.01&bits=0")
        with pytest.raises(ValueError):
            parse_spec("spardl?density=0.01&bits=33")
        with pytest.raises(ValueError):
            SparDLConfig(density=0.01, num_bits=40)

    @pytest.mark.parametrize("value", ["q", "8.5", "1e1", "-4", "64"])
    def test_malformed_bits_name_the_range(self, value):
        with pytest.raises(ValueError, match="integer between 1 and 32"):
            parse_spec(f"spardl?density=0.1&bits={value}")

    @pytest.mark.parametrize("spec", [
        "spardl?density=0.2&buckets=layer&bits=8",
        "spardl?density=0.2&buckets=auto&bits=8",
    ])
    def test_bucketed_bits_round_trips(self, spec):
        parsed = parse_spec(spec)
        assert parsed.bits == 8
        assert parsed.canonical() == spec
        sync = make(spec, SimulatedCluster(4), model=build_mlp(8, [8], 2, seed=0),
                    compute_profile=ComputeProfile(0.13, 35.2e6))
        assert describe(sync) == spec

    def test_config_describe_mentions_bits(self):
        assert "8bit" in SparDLConfig(density=0.01, num_bits=8).describe()

    def test_make_bits_keyword(self):
        sync = make("SparDL", SimulatedCluster(4), num_elements=1000,
                    density=0.01, bits=4)
        assert sync.stack.num_bits == 4

    def test_bits_override_through_make(self):
        sync = make("spardl?density=0.01", SimulatedCluster(4),
                    num_elements=1000, bits=8)
        assert sync.stack.num_bits == 8
        assert describe(sync) == "spardl?density=0.01&bits=8"
