"""Unit tests for the dense collective algorithms."""

from __future__ import annotations

import contextlib
import math
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.api as api
from repro.baselines.ok_topk import OkTopkSynchronizer
from repro.baselines.topk_dsa import TopkDSASynchronizer
from repro.comm.cluster import SimulatedCluster
from repro.comm import collectives
from repro.comm.collectives import (
    _BLOCK,
    _sum_range,
    allgather_bruck_grouped,
    allreduce_dense,
    allreduce_rabenseifner,
    allreduce_ring,
)
from repro.comm.faults import FaultPlan
from repro.comm.packed import PackedBags
from repro.comm.transport import payload_size
from repro.compression.quantization import QuantizedCompressor
from repro.obs import Tracer
from repro.sparse.vector import SparseGradient

from repro.sparse.ckernels import get_kernels

from tests.helpers import lanes, random_gradients
from tests.references import seed_allreduce_rabenseifner, seed_allreduce_ring


compiled_only = pytest.mark.skipif(get_kernels() is None,
                                   reason="compiled kernels unavailable")


def numpy_leg():
    """The dense All-Reduce's NumPy statement, compiled kernels or not."""
    return mock.patch.object(collectives, "get_kernels", lambda: None)


def _items(num_workers):
    return {rank: np.array([float(rank)]) for rank in range(num_workers)}


class TestBruckAllGather:
    @pytest.mark.parametrize("num_workers", [1, 2, 3, 4, 5, 6, 7, 8, 14])
    def test_all_workers_get_all_items_in_order(self, num_workers):
        cluster = SimulatedCluster(num_workers)
        result = allgather_bruck_grouped(cluster, [list(range(num_workers))], _items(num_workers))
        expected = [float(rank) for rank in range(num_workers)]
        for rank in range(num_workers):
            assert [float(item[0]) for item in result[rank]] == expected

    @pytest.mark.parametrize("num_workers", [2, 4, 8, 16])
    def test_round_count_is_log2_for_power_of_two(self, num_workers):
        cluster = SimulatedCluster(num_workers)
        allgather_bruck_grouped(cluster, [list(range(num_workers))], _items(num_workers))
        assert cluster.stats.rounds == int(math.log2(num_workers))

    @pytest.mark.parametrize("num_workers", [3, 5, 6, 7, 14])
    def test_round_count_is_ceil_log2_for_any_count(self, num_workers):
        cluster = SimulatedCluster(num_workers)
        allgather_bruck_grouped(cluster, [list(range(num_workers))], _items(num_workers))
        assert cluster.stats.rounds == math.ceil(math.log2(num_workers))

    def test_bandwidth_reaches_lower_bound(self):
        # Each worker receives exactly (P-1) items of unit size.
        num_workers = 6
        cluster = SimulatedCluster(num_workers)
        allgather_bruck_grouped(cluster, [list(range(num_workers))], _items(num_workers))
        assert cluster.stats.max_received == num_workers - 1

    def test_grouped_execution_shares_rounds(self):
        cluster = SimulatedCluster(8)
        groups = [[0, 1, 2, 3], [4, 5, 6, 7]]
        items = _items(8)
        result = allgather_bruck_grouped(cluster, groups, items)
        assert cluster.stats.rounds == 2  # log2(4), shared by both groups
        assert [float(i[0]) for i in result[5]] == [4.0, 5.0, 6.0, 7.0]

    @pytest.mark.parametrize("groups", [
        [[0, 1, 2], [3, 4, 5, 6, 7]],
        [[6, 1, 4], [0, 7], [2, 5, 3]],
        [[0], [1, 2, 3, 4, 5, 6, 7]],
    ], ids=["uneven", "interleaved", "singleton"])
    def test_every_group_gathers_its_own_items_in_group_order(self, groups):
        cluster = SimulatedCluster(8)
        result = allgather_bruck_grouped(cluster, groups, _items(8))
        assert cluster.stats.rounds == max(math.ceil(math.log2(len(g))) for g in groups)
        for group in groups:
            for rank in group:
                assert [float(item[0]) for item in result[rank]] == [float(r) for r in group]

    def test_duplicate_ranks_rejected(self):
        cluster = SimulatedCluster(4)
        with pytest.raises(ValueError):
            allgather_bruck_grouped(cluster, [[0, 0, 1]], _items(4))

    def test_single_worker_group(self):
        cluster = SimulatedCluster(3)
        result = allgather_bruck_grouped(cluster, [[2]], {2: np.array([9.0])})
        assert result[2][0][0] == 9.0
        assert cluster.stats.rounds == 0


class TestReduceScatterDirect:
    """``SparseBaseline._reduce_scatter_direct``: the one direct-send
    Reduce-Scatter TopkDSA and Ok-Topk both run."""

    @staticmethod
    def _selections(num_workers, n):
        return {rank: SparseGradient.from_dense(dense)
                for rank, dense in random_gradients(num_workers, n).items()}

    @pytest.mark.parametrize("num_workers", [2, 3, 5, 8])
    def test_each_worker_holds_reduced_partition(self, num_workers):
        n = 12
        cluster = SimulatedCluster(num_workers)
        sync = TopkDSASynchronizer(cluster, n, k=n)
        selected = self._selections(num_workers, n)
        bounds = sync.layout.bounds
        reduced = sync._reduce_scatter_direct(selected, bounds, "t")
        total = sum(piece.to_dense() for piece in selected.values())
        rebuilt = np.concatenate([reduced[r].to_dense()[lo:hi]
                                  for r, (lo, hi) in enumerate(bounds)])
        np.testing.assert_allclose(rebuilt, total)
        for rank, (lo, hi) in enumerate(bounds):
            assert np.all((reduced[rank].indices >= lo) & (reduced[rank].indices < hi))

    def test_uses_p_minus_one_rounds(self):
        cluster = SimulatedCluster(5)
        sync = TopkDSASynchronizer(cluster, 10, k=10)
        sync._reduce_scatter_direct(self._selections(5, 10), sync.layout.bounds, "t")
        assert cluster.stats.rounds == 4

    def test_each_worker_receives_its_slice_of_every_other_selection(self):
        num_workers, n = 5, 40
        cluster = SimulatedCluster(num_workers)
        sync = TopkDSASynchronizer(cluster, n, k=n)
        selected = self._selections(num_workers, n)
        bounds = sync.layout.bounds
        sync._reduce_scatter_direct(selected, bounds, "t")
        for rank, (lo, hi) in enumerate(bounds):
            expected = sum(payload_size(PackedBags.pack([selected[src].restrict(lo, hi)]))
                           for src in range(num_workers) if src != rank)
            assert cluster.stats.received_per_worker[rank] == expected

    @pytest.mark.parametrize("method, tag", [(TopkDSASynchronizer, "dsa-rs"),
                                             (OkTopkSynchronizer, "oktopk-rs")])
    def test_round_shift_tags_every_message(self, method, tag):
        num_workers = 4
        cluster = SimulatedCluster(num_workers)
        tracer = Tracer("comm")
        cluster.install_tracer(tracer)
        method(cluster, 400, k=20).synchronize(random_gradients(num_workers, 400))
        tags = [e.args["tag"] for e in tracer.events if e.cat == "message"]
        for shift in range(1, num_workers):
            assert tags.count(f"{tag}-{shift}") == num_workers
        assert f"{tag}-{num_workers}" not in tags


class TestDenseAllReduce:
    @pytest.mark.parametrize("algorithm", [allreduce_ring, allreduce_dense])
    @pytest.mark.parametrize("num_workers", [1, 2, 3, 4, 6, 8])
    def test_result_equals_sum(self, algorithm, num_workers):
        n = 16
        cluster = SimulatedCluster(num_workers)
        vectors = {r: np.random.default_rng(r).normal(size=n) for r in range(num_workers)}
        result = algorithm(cluster, vectors)
        total = sum(vectors.values())
        for rank in range(num_workers):
            np.testing.assert_allclose(result[rank], total, atol=1e-10)

    @pytest.mark.parametrize("num_workers", [2, 4, 8])
    def test_rabenseifner_equals_sum(self, num_workers):
        n = 16
        cluster = SimulatedCluster(num_workers)
        vectors = {r: np.random.default_rng(r).normal(size=n) for r in range(num_workers)}
        result = allreduce_rabenseifner(cluster, vectors)
        total = sum(vectors.values())
        for rank in range(num_workers):
            np.testing.assert_allclose(result[rank], total, atol=1e-10)

    def test_rabenseifner_rejects_non_power_of_two(self):
        cluster = SimulatedCluster(6)
        with pytest.raises(ValueError):
            allreduce_rabenseifner(cluster, {r: np.ones(4) for r in range(6)})

    def test_ring_bandwidth_near_lower_bound(self):
        num_workers, n = 4, 64
        cluster = SimulatedCluster(num_workers)
        vectors = {r: np.ones(n) for r in range(num_workers)}
        allreduce_ring(cluster, vectors)
        lower_bound = 2 * n * (num_workers - 1) / num_workers
        assert cluster.stats.max_received == pytest.approx(lower_bound, rel=0.05)

    def test_dense_dispatches_by_worker_count(self):
        # Power of two -> Rabenseifner round count (2 log P); otherwise ring (2(P-1)).
        cluster = SimulatedCluster(8)
        allreduce_dense(cluster, {r: np.ones(16) for r in range(8)})
        assert cluster.stats.rounds == 6
        cluster = SimulatedCluster(6)
        allreduce_dense(cluster, {r: np.ones(18) for r in range(6)})
        assert cluster.stats.rounds == 10


def _special_vectors(num_workers, n, dtype, seed):
    """Normal draws salted with ±0.0, subnormals, ±inf and NaN."""
    rng = np.random.default_rng(seed)
    specials = np.array([0.0, -0.0, 5e-324, -2.5e-320, np.inf, -np.inf, np.nan])
    vectors = {}
    for rank in range(num_workers):
        vector = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, size=n)
        salted = rng.random(n) < 0.2
        vector[salted] = rng.choice(specials, size=int(salted.sum()))
        vectors[rank] = vector.astype(dtype)
    return vectors


class RecordingCluster(SimulatedCluster):
    """A simulated cluster that keeps every round's messages as billed:
    ``log`` is one list of ``(src, dst, tag, size)`` per exchange call."""

    def __init__(self, num_workers):
        super().__init__(num_workers)
        self.log = []

    def exchange(self, messages):
        inboxes = super().exchange(messages)
        self.log.append([(message.src, message.dst, message.tag, message.size)
                         for message in messages])
        return inboxes


_ALGORITHMS = [(allreduce_ring, seed_allreduce_ring),
               (allreduce_rabenseifner, seed_allreduce_rabenseifner)]
#: Ring at every size, Rabenseifner at the power-of-two ones.
_SEED_CASES = [pytest.param(algorithm, seed_algorithm, num_workers,
                            id=f"{algorithm.__name__}-P{num_workers}")
               for algorithm, seed_algorithm in _ALGORITHMS
               for num_workers in range(1, 10)
               if algorithm is allreduce_ring or not num_workers & (num_workers - 1)]


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestCopyFreeDenseAllReduce:
    """The collectives reduce each range once into one shared read-only
    result; bytes, rounds and volumes equal the seed's copying algorithms
    (``inf + -inf`` in the salted inputs is meant to make NaNs)."""

    @pytest.mark.parametrize("algorithm, seed_algorithm, num_workers", _SEED_CASES)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bit_identical_to_the_seed(self, algorithm, seed_algorithm, num_workers, dtype):
        # The last length: two blocks per owned range, the second with a remainder.
        for n in sorted({1, num_workers - 1, num_workers, 2 * num_workers + 1, 257,
                         (2 * _BLOCK + 3) * num_workers + 1}):
            vectors = _special_vectors(num_workers, n, dtype, seed=1000 * num_workers + n)
            ours, seeds = SimulatedCluster(num_workers), SimulatedCluster(num_workers)
            result = algorithm(ours, vectors)
            expected = seed_algorithm(seeds, vectors)
            for rank in range(num_workers):
                assert result[rank].dtype == np.float64
                assert result[rank].tobytes() == expected[rank].tobytes(), (n, rank)
            assert ours.stats.rounds == seeds.stats.rounds
            assert ours.stats.total_volume == seeds.stats.total_volume
            assert ours.stats.max_received == seeds.stats.max_received

    @pytest.mark.parametrize("algorithm, seed_algorithm", _ALGORITHMS,
                             ids=["ring", "rabenseifner"])
    @pytest.mark.parametrize("num_workers", [1, 2, 4, 8])
    def test_inputs_are_only_read(self, algorithm, seed_algorithm, num_workers):
        """Read-only inputs: any write into a caller's array would raise."""
        vectors = _special_vectors(num_workers, 37, np.float64, seed=num_workers)
        snapshot = {rank: vector.tobytes() for rank, vector in vectors.items()}
        for vector in vectors.values():
            vector.flags.writeable = False
        result = algorithm(SimulatedCluster(num_workers), vectors)
        expected = seed_algorithm(SimulatedCluster(num_workers), vectors)
        for rank in range(num_workers):
            assert result[rank].tobytes() == expected[rank].tobytes()
            assert vectors[rank].tobytes() == snapshot[rank]

    @pytest.mark.parametrize("num_workers", [1, 2, 3, 4, 6, 8])
    def test_every_rank_shares_one_read_only_result(self, num_workers):
        vectors = {r: np.random.default_rng(r).normal(size=11) for r in range(num_workers)}
        result = allreduce_dense(SimulatedCluster(num_workers), vectors)
        shared = result[0]
        assert all(result[rank] is shared for rank in range(num_workers))
        assert not shared.flags.writeable
        assert all(not np.shares_memory(shared, vector) for vector in vectors.values())
        with pytest.raises(ValueError):
            shared[0] = 1.0

    @pytest.mark.parametrize("algorithm, seed_algorithm, num_workers", _SEED_CASES)
    def test_nothing_but_nans(self, algorithm, seed_algorithm, num_workers):
        """IEEE 754 leaves open which NaN ``a + b`` returns when both are
        NaN, and NumPy's choice depends on where an element falls in its
        vector loop (body or remainder), not only on the operand order.  The
        ring adds over the seed's very ranges (its last block takes the
        remainder), so its NaNs are the seed's bit for bit; Rabenseifner adds
        over blocks of the owned ranges, not over the seed's halves, so a
        NaN may carry the other sign.  Every number is the seed's either way
        (``test_bit_identical_to_the_seed``).  On either leg the bytes are
        those of the NumPy statement: the compiled sum hands a range with a
        NaN back to it."""
        rng = np.random.default_rng(num_workers)
        for n in (1, 5, 37, 1001, 2 * _BLOCK * num_workers + 77):
            vectors = {r: np.where(rng.random(n) < 0.5, np.nan, -np.nan)
                       for r in range(num_workers)}
            result = algorithm(SimulatedCluster(num_workers), vectors)[0]
            expected = seed_algorithm(SimulatedCluster(num_workers), vectors)[0]
            with numpy_leg():
                statement = algorithm(SimulatedCluster(num_workers), vectors)[0]
            assert np.isnan(result).all()
            assert result.tobytes() == statement.tobytes(), n
            if algorithm is allreduce_ring:
                assert result.tobytes() == expected.tobytes(), n

    @pytest.mark.parametrize("algorithm, seed_algorithm, num_workers", _SEED_CASES)
    @pytest.mark.parametrize("bits", [None, 8], ids=["unpriced", "bits8"])
    def test_every_message_is_the_seeds(self, algorithm, seed_algorithm, num_workers, bits):
        """Not just the totals: round by round, every message's ``(src, dst,
        tag, size)`` equals the seed's, also under the ``dense?bits=8``
        price (which bills ``bits/32`` per value of the chunk)."""
        vectors = _special_vectors(num_workers, 3 * num_workers + 2, np.float64,
                                   seed=num_workers)
        ours, seeds = RecordingCluster(num_workers), RecordingCluster(num_workers)
        price = QuantizedCompressor(bits, num_workers).price if bits else payload_size
        algorithm(ours, vectors, price=price)
        seed_algorithm(seeds, vectors, price=price)
        assert ours.log == seeds.log
        assert len(ours.log) == (0 if num_workers == 1 else ours.stats.rounds)

    @pytest.mark.parametrize("algorithm, seed_algorithm, group", [
        (allreduce_ring, seed_allreduce_ring, [1, 3, 5]),
        (allreduce_ring, seed_allreduce_ring, [5, 0, 2, 4]),
        (allreduce_rabenseifner, seed_allreduce_rabenseifner, [0, 2, 3, 5]),
        (allreduce_rabenseifner, seed_allreduce_rabenseifner, [4, 1]),
    ])
    def test_group_subsets_equal_the_seed(self, algorithm, seed_algorithm, group):
        vectors = _special_vectors(6, 2 * _BLOCK + 11, np.float64, seed=len(group))
        ours, seeds = RecordingCluster(6), RecordingCluster(6)
        result = algorithm(ours, vectors, group=group)
        expected = seed_algorithm(seeds, vectors, group=group)
        assert sorted(result) == sorted(group)
        for rank in group:
            assert result[rank].tobytes() == expected[rank].tobytes()
        assert ours.log == seeds.log

    @pytest.mark.parametrize("num_workers", range(1, 10))
    def test_pooled_equals_inline(self, num_workers):
        """The reduction's rank-pool tasks on three threads write the bytes
        the calling thread writes alone; ``comm.reduce_workers`` says which
        ran."""
        vectors = _special_vectors(num_workers, _BLOCK * num_workers + 7, np.float64,
                                   seed=num_workers)
        results, gauges = {}, {}
        for width in (0, 3):
            cluster = SimulatedCluster(num_workers)
            cluster.install_tracer(Tracer("steps"))
            with lanes(width):
                results[width] = allreduce_dense(cluster, vectors)[0].tobytes()
            gauges[width] = cluster.tracer.snapshot().get("comm.reduce_workers")
        assert results[0] == results[3]
        if num_workers == 1:
            assert gauges == {0: None, 3: None}  # nothing to reduce
        else:
            assert gauges == {0: 1, 3: min(3, num_workers)}

    @pytest.mark.parametrize("num_workers, expected", [
        # (rounds, fault_extra_rounds, retried, dropped, forced)
        (8, (16, 10, 15, 15, 0)),
        (6, (31, 21, 24, 26, 2)),
    ])
    def test_a_dense_step_under_drops_returns_the_fault_free_bytes(self, num_workers,
                                                                 expected):
        """Dense messages are not lossy: drops and forced deliveries cost
        rounds (the ones the copying algorithms recorded under this plan)
        but never change the result."""
        n = 1000 + num_workers % 2
        gradients = {w: np.random.default_rng(w).standard_normal(n)
                     for w in range(num_workers)}
        spec = f"dense?backend=sim:{num_workers}"
        clean = api.make(spec, num_elements=n).synchronize(gradients)
        sync = api.make(spec, num_elements=n)
        sync.cluster.install_fault_plan(FaultPlan(seed=11, drop_rate=0.3))
        faulted = sync.synchronize(gradients)
        assert faulted.gradient(0).tobytes() == clean.gradient(0).tobytes()
        stats = faulted.stats
        assert (stats.rounds, stats.fault_extra_rounds, stats.retried_messages,
                stats.dropped_messages, stats.forced_deliveries) == expected
        assert stats.rounds - stats.fault_extra_rounds == clean.stats.rounds
        assert stats.total_volume == clean.stats.total_volume
        assert sync.cluster.drain_lost() == []

    def test_sub_group_shares_one_result(self):
        cluster = SimulatedCluster(6)
        vectors = {r: np.full(5, float(r)) for r in (1, 3, 4, 5)}
        result = allreduce_ring(cluster, vectors, group=[1, 3, 4])
        assert sorted(result) == [1, 3, 4]
        assert result[1] is result[3] is result[4]
        np.testing.assert_array_equal(result[1], np.full(5, 8.0))


#: What the tree-sum tests salt their inputs with: signed zeros,
#: subnormals, infinities, huge values whose sums overflow, and NaNs of both
#: signs with several payloads (one of them signalling).
_PALETTE = np.concatenate([
    [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-320, np.inf, -np.inf, 1e308, -1e308],
    np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001,
              0xFFFC00000000BEEF, 0x7FFFFFFFFFFFFFFF, 0x7FF0000000000001],
             dtype=np.uint64).view(np.float64)])


def _salted(rng, n, share):
    """Draws over a wide range of magnitudes, a ``share`` of them replaced by
    ``_PALETTE`` values."""
    values = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, size=n)
    wide = rng.random(n) < 0.1
    values[wide] = np.ldexp(rng.normal(size=int(wide.sum())),
                            rng.integers(-1074, 1000, size=int(wide.sum())))
    salted = rng.random(n) < share
    values[salted] = rng.choice(_PALETTE, size=int(salted.sum()))
    return values


def _laid_out(values, layout):
    """``values`` as a ``float32`` copy, a strided or reversed view, or
    themselves."""
    if layout == "float32":
        return values.astype(np.float32)
    if layout == "strided":
        buffer = np.full(2 * values.shape[0], 7.0)
        buffer[::2] = values
        return buffer[::2]
    if layout == "reversed":
        return values[::-1].copy()[::-1]
    return values


def _chain(num_inputs):
    """The ring's own-first chain of chunk 0: ``a[P-1] + (… + (a[1] + a[0]))``."""
    tree = 0
    for hop in range(1, num_inputs):
        tree = (hop, tree)
    return tree


def _xor_tree(num_inputs):
    """Rabenseifner's own-first XOR tree of position 0."""
    trees = list(range(num_inputs))
    distance = num_inputs // 2
    while distance:
        trees = [(trees[pos], trees[pos ^ distance]) for pos in range(num_inputs)]
        distance //= 2
    return trees[0]


def _pieces(edges):
    return list(zip(edges, edges[1:]))


@compiled_only
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestCompiledTreeSum:
    """With the compiled kernels every owned range is one ``tree_sum_f64``
    call that also counts the range's non-zeros and NaNs; a range holding a
    NaN is summed again by the NumPy statement (``_sum_range``).  So both
    legs write the same bytes — NaN payloads included — and the counts are
    ``np.count_nonzero``'s."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_the_compiled_leg_writes_the_numpy_statement(self, data):
        num_workers = data.draw(st.sampled_from([*range(1, 10), 16]), label="P")
        n = data.draw(st.sampled_from(sorted({
            0, 1, num_workers - 1, num_workers + 1,
            _BLOCK * num_workers - 1, _BLOCK * num_workers + 1})) | st.integers(0, 3000),
            label="n")
        layout = data.draw(st.sampled_from(["contiguous", "strided", "reversed",
                                            "float32"]), label="layout")
        share = data.draw(st.sampled_from([0.0, 0.001, 0.05, 0.3, 1.0]), label="share")
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        vectors = {rank: _laid_out(_salted(rng, n, share), layout)
                   for rank in range(num_workers)}
        edges = [0, *sorted(data.draw(st.lists(st.integers(0, n), max_size=5),
                                      label="cuts")), n]
        algorithms = [collectives._ring]
        if not num_workers & (num_workers - 1):
            algorithms.append(collectives._rabenseifner)
        for algorithm in algorithms:
            result, counts = algorithm(SimulatedCluster(num_workers), vectors, None,
                                       payload_size, edges)
            with numpy_leg():
                statement, statement_counts = algorithm(
                    SimulatedCluster(num_workers), vectors, None, payload_size, edges)
            assert result[0].tobytes() == statement[0].tobytes()
            assert counts == statement_counts == [
                np.count_nonzero(result[0][lo:hi]) for lo, hi in _pieces(edges)]

    @pytest.mark.parametrize("tree", [
        _chain(2), _chain(5), _chain(9), _xor_tree(4), _xor_tree(16),
        ((0, 1), ((2, (3, 4)), 5)), (((0, 1), 2), ((3, 4), (5, 6))),
    ], ids=["pair", "chain5", "chain9", "xor4", "xor16", "lopsided", "mixed"])
    @pytest.mark.parametrize("layout", ["contiguous", "strided", "reversed"])
    def test_the_kernel_alone_writes_every_number_of_the_statement(self, tree, layout):
        """Before any range goes back to NumPy: every number equals the
        statement's bit for bit, NaNs stand where its NaNs stand, and each
        piece counts ``(np.count_nonzero, NaNs)``."""
        leaves = len(str(tree).replace("(", "").replace(")", "").split(","))
        n = 3 * 16 * 1024 + 37
        rng = np.random.default_rng(leaves)
        inputs = [np.asarray(_laid_out(_salted(rng, n, 0.02), layout))
                  for _ in range(leaves)]
        cuts = np.array([0, 1, 40, 40, 5000, n - 3, n], dtype=np.int64)
        counts = np.full((cuts.shape[0] - 1, 2), -1, dtype=np.int64)
        result = np.full(n, 3.0)
        ranges = [(tree, 0, 2), (tree, 2, 4), (tree, 4, 5)]  # the last piece stays
        for task in get_kernels().tree_sum_tasks(inputs, result, cuts, counts, ranges):
            task()
        statement = np.full(n, 3.0)
        _sum_range(statement, inputs, tree, 0, int(cuts[-2]), rows=leaves)
        nan = np.isnan(statement)
        assert np.array_equal(np.isnan(result), nan)
        assert np.array_equal(result[~nan].view(np.uint64), statement[~nan].view(np.uint64))
        assert counts[:-1].tolist() == [
            [np.count_nonzero(statement[lo:hi]), np.isnan(statement[lo:hi]).sum()]
            for lo, hi in _pieces(cuts[:-1].tolist())]
        assert counts[-1].tolist() == [-1, -1] and (result[cuts[-2]:] == 3.0).all()

    def test_inputs_off_the_element_grid_are_read_from_a_copy(self):
        values = np.random.default_rng(0).normal(size=(2, 100))
        buffer = bytearray(2 * 800 + 4)  # each row 4 bytes past a whole element
        inputs = []
        for row in values:
            view = np.ndarray((100,), np.float64, buffer=buffer,
                              offset=4 + 800 * len(inputs))
            view[:] = row
            inputs.append(view)
        result, counts = np.empty(100), np.zeros((1, 2), dtype=np.int64)
        for task in get_kernels().tree_sum_tasks(inputs, result, np.array([0, 100]),
                                                 counts, [((1, 0), 0, 1)]):
            task()
        assert result.tobytes() == (values[1] + values[0]).tobytes()
        assert counts.tolist() == [[100, 0]]

    @pytest.mark.parametrize("tree, cuts, counts, ranges, message", [
        (0, [0, 8], (1, 2), [(0, 0, 1)], "at least two"),
        ((0, 2), [0, 8], (1, 2), [((0, 2), 0, 1)], "not there"),
        ((0, -1), [0, 8], (1, 2), [((0, -1), 0, 1)], "not there"),
        ((0, 1), [0, 4, 8], (2, 2), [((0, 1), 0, 2), ((1, 0), 1, 2)], "disjoint"),
        ((0, 1), [0, 8], (1, 2), [((0, 1), 0, 2)], "disjoint"),
        ((0, 1), [0, 9], (1, 2), [((0, 1), 0, 1)], "rise inside"),
        ((0, 1), [4, 2], (1, 2), [((0, 1), 0, 1)], "rise inside"),
        ((0, 1), [0, 8], (2, 2), [((0, 1), 0, 1)], "rise inside"),
    ])
    def test_a_call_that_would_stray_is_refused(self, tree, cuts, counts, ranges,
                                                 message):
        inputs = [np.ones(8), np.ones(8)]
        with pytest.raises(ValueError, match=message):
            get_kernels().tree_sum_tasks(inputs, np.empty(8), np.array(cuts),
                                         np.zeros(counts, dtype=np.int64), ranges)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("leg", ["compiled", "numpy"])
@pytest.mark.parametrize("num_workers", [1, 3, 4, 8])
@pytest.mark.parametrize("spec", ["dense", "spardl?density=0.6", "spardl-bucketed"])
def test_a_dense_step_reports_numpys_counts(leg, num_workers, spec):
    """``final_nnz`` and SparDL's per-bucket ``bucket_final_nnz`` of a dense
    step come out of the sum itself and equal ``np.count_nonzero`` over the
    result on both legs — exact zeros, ``-0.0`` (zero) and NaN (non-zero)
    entries included."""
    if leg == "compiled" and get_kernels() is None:
        pytest.skip("compiled kernels unavailable")
    sizes = [3000, 17, 1, 9000, 250]
    n = sum(sizes)
    model = types.SimpleNamespace(parameters=lambda: [
        types.SimpleNamespace(name=f"p{index}", size=size)
        for index, size in enumerate(sizes)])
    rng = np.random.default_rng(num_workers)
    gradients = {}
    for rank in range(num_workers):
        gradient = rng.normal(size=n)
        gradient[:1500] = 0.0  # zero in every rank: a zero sum
        gradient[1500:1600] = -0.0
        gradient[rng.random(n) < 0.001] = np.nan
        gradients[rank] = gradient
    shape = {"model": model} if spec == "spardl-bucketed" else {"num_elements": n}
    spec = {"spardl-bucketed": "spardl?density=0.6&buckets=layer"}.get(spec, spec)
    sync = api.make(f"{spec}{'&' if '?' in spec else '?'}backend=sim:{num_workers}",
                    **shape)
    with numpy_leg() if leg == "numpy" else contextlib.nullcontext():
        result = sync.synchronize(gradients)
    reference = result.gradient(0)
    assert 0 < result.info["final_nnz"] == np.count_nonzero(reference) < n
    if spec.startswith("spardl"):
        info = result.info.get("per_bucket_info", [result.info])[0]
        assert info["dense_fallback"]
        edges = np.cumsum([0, *sizes]).tolist() if "buckets" in spec else [0, n]
        assert info["bucket_final_nnz"] == [
            np.count_nonzero(reference[lo:hi]) for lo, hi in _pieces(edges)]


class TestDenseAllReduceInputs:
    """Mismatched inputs raise a ``ValueError`` naming the rank on both
    algorithms instead of returning a partly reduced or truncated vector."""

    @pytest.mark.parametrize("algorithm, num_workers",
                             [(allreduce_rabenseifner, 4), (allreduce_ring, 3),
                              (allreduce_ring, 4)])
    def test_length_mismatch(self, algorithm, num_workers):
        vectors = {r: np.ones(8) for r in range(num_workers)}
        vectors[1] = np.ones(9)
        with pytest.raises(ValueError, match="rank 1's input has 9 elements"):
            algorithm(SimulatedCluster(num_workers), vectors)

    @pytest.mark.parametrize("algorithm, num_workers",
                             [(allreduce_rabenseifner, 4), (allreduce_ring, 3)])
    def test_missing_rank(self, algorithm, num_workers):
        vectors = {r: np.ones(8) for r in range(num_workers - 1)}
        with pytest.raises(ValueError, match=f"rank {num_workers - 1} of the group has no input"):
            algorithm(SimulatedCluster(num_workers), vectors)

    @pytest.mark.parametrize("algorithm, num_workers",
                             [(allreduce_rabenseifner, 4), (allreduce_ring, 3),
                              (allreduce_ring, 1)])
    def test_not_one_dimensional(self, algorithm, num_workers):
        vectors = {r: np.ones(8) for r in range(num_workers)}
        vectors[0] = np.ones((2, 4))
        with pytest.raises(ValueError, match=r"rank 0's input has shape \(2, 4\)"):
            algorithm(SimulatedCluster(num_workers), vectors)


    @pytest.mark.parametrize("algorithm, num_workers",
                             [(allreduce_rabenseifner, 4), (allreduce_ring, 3),
                              (allreduce_ring, 1)])
    def test_complex_input(self, algorithm, num_workers):
        """Regression: complex inputs were cast to ``float64`` with only a
        ``ComplexWarning``, dropping their imaginary parts."""
        vectors = {r: np.arange(4.0) for r in range(num_workers)}
        vectors[num_workers - 1] = np.arange(4) + 1j
        with pytest.raises(ValueError, match=f"rank {num_workers - 1}'s input is complex"):
            algorithm(SimulatedCluster(num_workers), vectors)


class TestVolumeAccounting:
    """Recorded volumes must equal the closed-form element counts exactly —
    control metadata (group positions, slice offsets, block ids) is free."""

    @pytest.mark.parametrize("num_workers", [2, 4, 8, 16])
    def test_bruck_dense_allgather_volume_is_exact(self, num_workers):
        item_size = 3
        cluster = SimulatedCluster(num_workers)
        items = {r: np.full(item_size, float(r)) for r in range(num_workers)}
        allgather_bruck_grouped(cluster, [list(range(num_workers))], items)
        # Every worker ends holding all P items, P-1 of which arrived over
        # the wire; the rolling buffer's positions are metadata.
        expected = float(item_size * (num_workers - 1))
        for rank in range(num_workers):
            assert cluster.stats.received_per_worker[rank] == expected

    @pytest.mark.parametrize("num_workers", [2, 4, 8, 16])
    def test_rabenseifner_volume_is_exact(self, num_workers):
        n = 16 * num_workers  # divisible so halving never truncates
        cluster = SimulatedCluster(num_workers)
        vectors = {r: np.random.default_rng(r).normal(size=n) for r in range(num_workers)}
        allreduce_rabenseifner(cluster, vectors)
        # Recursive halving: n/2 + n/4 + ... + n/P = n(P-1)/P, then the
        # all-gather mirrors it; slice offsets are metadata.
        expected = 2.0 * n * (num_workers - 1) / num_workers
        for rank in range(num_workers):
            assert cluster.stats.received_per_worker[rank] == expected

    @pytest.mark.parametrize("num_workers", [2, 3, 5, 8])
    def test_bruck_sparse_allgather_volume_is_exact(self, num_workers):
        nnz = 4
        cluster = SimulatedCluster(num_workers)
        items = {
            r: PackedBags.pack([SparseGradient(np.arange(nnz, dtype=np.int64) + r * nnz,
                                               np.ones(nnz), num_workers * nnz)], ids=[r])
            for r in range(num_workers)
        }
        allgather_bruck_grouped(cluster, [list(range(num_workers))], items)
        # P-1 foreign items of 2*nnz elements each; the packed wire format's
        # bag ids and offsets must not change the count.
        expected = 2.0 * nnz * (num_workers - 1)
        for rank in range(num_workers):
            assert cluster.stats.received_per_worker[rank] == expected
