"""Buckets as segments of one SparDL exchange.

``buckets=layer`` selects per layer and exchanges once: consecutive buckets
with equally configured SparDL synchronisers become one
``SparDLSynchronizer`` over their sizes, in which a bucket is a set of
segments of the block layout.  The contract is that fusing is invisible
except for rounds and messages:

* one synchroniser over the concatenated gradient equals N independent
  single-bucket synchronisers on the slices, bit for bit — globals, per-rank
  stores, velocity, warm cuts and total volume — at the rounds of *one*;
* the segmented quantiser equals one ``quantize_with_error`` per segment,
  stream positions included;
* compiled and NumPy kernel legs agree on every bit (child process);
* which buckets share an exchange is derived: ``buckets=layer`` is one
  SparDL, and every bucket of a ``buckets=auto`` plan exchanges on its own;
* a membership change reaches every bucket (regression: it reached none).

The segmented top-k kernel has its property test next to ``top_k_indices``
(``tests/test_sparse_topk.py``), the segmented SRS next to the plain one
(``tests/test_core_srs.py``).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.comm.cluster import SimulatedCluster
from repro.comm.faults import FaultPlan, MembershipEvent
from repro.compression.quantization import QuantizedCompressor, StochasticQuantizer
from repro.core.bucketed import BucketedSynchronizer
from repro.core.config import SparDLConfig
from repro.core.pipeline import SyncSession
from repro.core.spardl import SparDLSynchronizer
from repro.sparse import compiled_kernels_available
from repro.sparse.vector import SparseGradient
from repro.training.timing import ComputeProfile

from tests.helpers import ledger


def bits(array):
    return np.ascontiguousarray(array, dtype=np.float64).view(np.uint64)


def drifting_gradients(num_workers, num_elements, step, seed=0):
    """Heavy-tailed gradients that change slowly from step to step (warm
    cuts hit), with a component every worker shares (SRS merges overlap)."""
    shared = np.random.default_rng(50 + seed).standard_normal(num_elements) ** 3
    out = {}
    for worker in range(num_workers):
        base = np.random.default_rng(1000 * seed + worker).standard_normal(num_elements) ** 3
        noise = np.random.default_rng(7919 * (step + 1) + worker).standard_normal(num_elements)
        out[worker] = (1.0 + 0.05 * step) * (base + 0.5 * shared) + 0.05 * noise
    return out


class _Model:
    def __init__(self, layout):
        self._layout = layout

    def parameters(self):
        return [type("P", (), {"name": name, "size": size})()
                for name, size in self._layout]

    def num_parameters(self):
        return sum(size for _, size in self._layout)


# ---------------------------------------------------------------------------
# one synchroniser over B buckets == B synchronisers, at the rounds of one
# ---------------------------------------------------------------------------
configs = st.fixed_dictionaries({
    "density": st.sampled_from([0.05, 0.2]),
    "num_teams": st.sampled_from([1, 2, 4]),
    "sag_mode": st.sampled_from(["rsag", "bsag"]),
    "num_bits": st.sampled_from([None, 8]),
    "momentum": st.sampled_from([None, 0.9]),
    "schedule": st.sampled_from([None, "warmup:3"]),
    "residual_policy": st.sampled_from(["global", "partial", "local"]),
    "sparsify_all_blocks": st.booleans(),
})
#: tensors of one and two elements and ones shorter than a team included
bucket_sizes = st.lists(st.one_of(st.sampled_from([1, 2, 3]),
                                  st.integers(min_value=4, max_value=90)),
                        min_size=1, max_size=5)


class TestGroupedEqualsIndependent:
    NUM_WORKERS = 4

    @given(sizes=bucket_sizes, config=configs, seed=st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_except_for_rounds(self, sizes, config, seed):
        config = SparDLConfig(**config)
        workers, total = self.NUM_WORKERS, sum(sizes)
        grouped = SparDLSynchronizer(SimulatedCluster(workers), sizes, config)
        singles = [SparDLSynchronizer(SimulatedCluster(workers), size, config)
                   for size in sizes]
        edges = np.concatenate(([0], np.cumsum(sizes))).tolist()
        team = grouped.team_size
        for step in range(4):
            gradients = drifting_gradients(workers, total, step, seed)
            result = grouped.synchronize(gradients)
            parts = [single.synchronize({rank: grad[lo:hi]
                                         for rank, grad in gradients.items()})
                     for single, lo, hi in zip(singles, edges, edges[1:])]
            assert grouped.bucket_k == [single.k for single in singles]
            assert result.info["bucket_k"] == grouped.bucket_k
            assert result.info["bucket_final_nnz"] == [
                part.info["final_nnz"] for part in parts]
            for rank in range(workers):
                assert np.array_equal(
                    bits(result.gradient(rank)),
                    bits(np.concatenate([part.gradient(rank) for part in parts])))
                assert np.array_equal(
                    bits(grouped.residuals.store(rank).peek()),
                    bits(np.concatenate([single.residuals.store(rank).peek()
                                         for single in singles])))
                if config.momentum:
                    assert np.array_equal(
                        bits(grouped.residuals.velocity(rank)),
                        bits(np.concatenate([single.residuals.velocity(rank)
                                             for single in singles])))
            # the wire: same elements, the rounds of one exchange
            assert result.stats.total_volume == sum(
                part.stats.total_volume for part in parts)
            assert result.stats.received_per_worker == [
                sum(column) for column in zip(*(part.stats.received_per_worker
                                                for part in parts))]
            assert result.stats.rounds == max(part.stats.rounds for part in parts)
            assert result.stats.total_messages == max(
                part.stats.total_messages for part in parts)
        # warm-selection state, segment by segment
        cuts = {}
        for bucket, single in enumerate(singles):
            for (rank, block), cut in single.selector.cuts.items():
                cuts[(rank, bucket * team + block)] = cut
        assert grouped.selector.cuts == cuts
        selector = grouped.selector
        # (seeded cuts included: what is sampled depends on a segment's
        # length and k, not on what shares its exchange)
        assert (selector.hits, selector.misses, selector.candidates,
                selector.requested, selector.seeded) == tuple(
            sum(getattr(single.selector, name) for single in singles)
            for name in ("hits", "misses", "candidates", "requested", "seeded"))
        if grouped.controller is not None:  # B-SAG: one h per bucket
            assert [c.h for c in grouped._controllers] == [
                single.controller.h for single in singles]

    def test_one_bucket_is_the_flat_synchroniser(self):
        """Sizes ``[n]`` and ``n`` are the same code path."""
        config = SparDLConfig(density=0.03, num_teams=2, num_bits=8, momentum=0.9)
        listed, plain = (SparDLSynchronizer(SimulatedCluster(4), sizes, config)
                         for sizes in ([600], 600))
        for step in range(3):
            gradients = drifting_gradients(4, 600, step)
            a, b = listed.synchronize(gradients), plain.synchronize(gradients)
            assert np.array_equal(bits(a.gradient(0)), bits(b.gradient(0)))
            assert a.stats == b.stats and a.info == b.info
        assert isinstance(listed.k_block, int) and listed.k_block == plain.k_block

    def test_the_block_budget_is_the_sum_of_its_segments(self):
        sync = SparDLSynchronizer(SimulatedCluster(8), [4000, 40, 900],
                                  SparDLConfig(density=0.01, num_teams=2))
        assert sync.bucket_k == [40, 1, 9] and sync.k == 50
        assert sync.segment_k.tolist() == [10] * 4 + [1] * 4 + [3] * 4
        assert sync.k_block == 14
        assert len(sync.layout.bounds) == 12 and sync.layout.num_blocks == 4
        with pytest.raises(ValueError, match="one k each"):
            sync.set_sparsity(50)

    @pytest.mark.parametrize("density, bucket_k", [
        (0.05, [20, 1, 5]), (0.6, [240, 1, 59]), (1.0, [400, 1, 99])])
    def test_a_one_element_tensor_rides_the_groups_sparse_exchange(self, density,
                                                                   bucket_k):
        """A one-element tensor (``k/n = 1`` on its own) keeps one entry of
        the group's budget and runs SRS with its group at every density;
        the step holds the ledger, and at ``k = n`` it is the exact sum."""
        sizes = [400, 1, 99]
        sync = SparDLSynchronizer(SimulatedCluster(4), sizes, SparDLConfig(density=density))
        gradients = drifting_gradients(4, 500, 0)
        result = sync.synchronize(gradients)
        info = result.info
        assert info["bucket_k"] == bucket_k and info["srs_steps"] > 0
        assert min(info["bucket_final_nnz"]) >= 1
        np.testing.assert_allclose(result.gradient(0) + sync.residuals.total_residual(),
                                   sum(gradients.values()), rtol=0, atol=1e-9)
        if density == 1.0:
            assert info["bucket_final_nnz"] == sizes
            np.testing.assert_allclose(result.gradient(0), sum(gradients.values()),
                                       rtol=0, atol=1e-9)


# ---------------------------------------------------------------------------
# the segmented quantiser == one quantize_with_error per segment
# ---------------------------------------------------------------------------
class TestSegmentedQuantiser:
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_equals_per_segment_calls_and_leaves_the_streams_where_they_would(self, data):
        streams = data.draw(st.integers(min_value=1, max_value=3))
        per_stream = data.draw(st.integers(min_value=1, max_value=4))
        lengths = data.draw(st.lists(st.integers(min_value=0, max_value=9),
                                     min_size=streams * per_stream,
                                     max_size=streams * per_stream))
        offsets = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        values = rng.standard_normal(int(offsets[-1])) ** 3
        for segment in range(len(lengths)):  # all-zero (and signed-zero) segments
            if data.draw(st.sampled_from([False, False, True])):
                values[offsets[segment]:offsets[segment + 1]] = rng.choice(
                    [0.0, -0.0], size=lengths[segment])
        num_bits = data.draw(st.sampled_from([1, 4, 8]))
        quantizer = StochasticQuantizer(num_bits)
        seeds = np.random.SeedSequence(7).spawn(streams)
        mine = [np.random.default_rng(seed) for seed in seeds]
        theirs = [np.random.default_rng(seed) for seed in seeds]

        quantized, error = quantizer.quantize_segments_with_error(values, offsets, mine)
        pieces = [quantizer.quantize_with_error(values[lo:hi], rng=theirs[s // per_stream])
                  for s, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:]))]
        assert np.array_equal(bits(quantized),
                              bits(np.concatenate([q for q, _ in pieces])))
        assert np.array_equal(bits(error),
                              bits(np.concatenate([e for _, e in pieces])))
        np.testing.assert_allclose(quantized + error, values, rtol=0, atol=1e-12)
        for a, b in zip(mine, theirs):  # the position afterwards
            assert a.bit_generator.state == b.bit_generator.state

    def test_compressor_streams_start_where_a_single_tensor_compressor_does(self):
        """Per worker, one stream per tensor, each the stream a compressor
        serving that tensor alone would own."""
        shared = QuantizedCompressor(8, num_workers=3, streams=2)
        alone = [QuantizedCompressor(8, num_workers=3) for _ in range(2)]
        indices = np.arange(12, dtype=np.int64)
        values = np.random.default_rng(1).standard_normal(12)
        sparse = SparseGradient(indices, values, 12)
        offsets = np.array([0, 3, 5, 9, 12])  # two segments per tensor
        for worker in range(3):
            quantized, error = shared.compress_sparse(worker, sparse, offsets)
            expected = np.concatenate([
                alone[tensor].compress_sparse(
                    worker, SparseGradient(indices[lo:hi], values[lo:hi], 12))[0].values
                for tensor, lo, hi in [(0, 0, 3), (0, 3, 5), (1, 5, 9), (1, 9, 12)]])
            assert np.array_equal(bits(quantized.values), bits(expected))
            np.testing.assert_allclose(quantized.values + error.values, values,
                                       rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# which buckets share an exchange
# ---------------------------------------------------------------------------
LAYOUT = [("a.weight", 700), ("a.bias", 60), ("b.weight", 440), ("b.bias", 9),
          ("out.weight", 90), ("out.bias", 1)]
NUM_ELEMENTS = sum(size for _, size in LAYOUT)


#: The profile under which the planner splits LAYOUT into three buckets,
#: ``[700, 500, 100]``.
PROFILE = ComputeProfile(0.13, 35.2e6)


def make_bucketed(spec, workers=4, **kwargs):
    return api.make(f"{spec}&backend=sim:{workers}", model=_Model(LAYOUT), **kwargs)


class TestGroupingRule:
    def test_equally_configured_spardl_layers_share_one_exchange(self):
        sync = make_bucketed("spardl?density=0.05&buckets=layer&teams=2&bits=8&momentum=0.9")
        assert type(sync) is SparDLSynchronizer
        assert sync.bucket_sizes == [size for _, size in LAYOUT]
        result = sync.synchronize(drifting_gradients(4, NUM_ELEMENTS, 0))
        flat = api.make("spardl?density=0.05&teams=2&bits=8&momentum=0.9&backend=sim:4",
                        num_elements=NUM_ELEMENTS)
        assert result.stats.rounds == flat.synchronize(
            drifting_gradients(4, NUM_ELEMENTS, 0)).stats.rounds

    def test_a_one_group_wrapper_hands_its_spardl_result_through(self):
        """A :class:`BucketedSynchronizer` of one bucket (a plan that fused
        every layer) returns its SparDL's read-only global, not a
        concatenation of it."""
        config = SparDLConfig(density=0.05, num_teams=2)
        sync = BucketedSynchronizer(SimulatedCluster(4), [NUM_ELEMENTS], config)
        assert len(sync.sessions) == 1 and sync.slices == [(0, NUM_ELEMENTS)]
        result = sync.synchronize(drifting_gradients(4, NUM_ELEMENTS, 0))
        assert result.gradient(0) is sync.sessions[0].last_result.gradient(0)

    @pytest.mark.parametrize("spec", [
        "spardl?density=0.01&buckets=layer&bits=8&momentum=0.9&teams=2",
        "spardl?density=0.05&buckets=layer",
        "spardl?k=40&buckets=layer&teams=4&sag=bsag",
        "spardl?density=0.05&buckets=layer&residuals=partial",
        "spardl?density=0.05&buckets=layer&schedule=warmup:3",
    ])
    def test_a_uniform_spec_is_the_spardl_its_wrapper_ran(self, spec):
        """What ``make`` returns for a ``buckets=layer`` spec equals the
        session a one-group wrapper ran over the same config, bit for bit:
        globals, per-rank stores and velocities, and statistics."""
        sync = make_bucketed(spec, workers=8)
        assert type(sync) is SparDLSynchronizer
        wrapper = SyncSession(SparDLSynchronizer(SimulatedCluster(8), sync.bucket_sizes,
                                                 sync.config))
        for step in range(4):
            gradients = drifting_gradients(8, NUM_ELEMENTS, step)
            ours, theirs = sync.synchronize(gradients), wrapper.step(gradients)
            assert ours.stats == theirs.stats
            assert (ours.info["k"], ours.info["final_nnz"]) == (
                theirs.info["k"], theirs.info["final_nnz"])
            inner = wrapper.synchronizer.residuals
            for rank in range(8):
                assert np.array_equal(bits(ours.gradient(rank)), bits(theirs.gradient(rank)))
                assert np.array_equal(bits(sync.residuals.store(rank).peek()),
                                      bits(inner.store(rank).peek()))
                if inner.momentum:
                    assert np.array_equal(bits(sync.residuals.velocity(rank)),
                                          bits(inner.velocity(rank)))

    @pytest.mark.parametrize("spec", [
        "spardl?density=0.05&buckets=auto",
        "spardl?density=0.05&buckets=auto&bits=8",
        "spardl?density=0.05&buckets=auto&momentum=0.9&teams=2",
    ])
    def test_exceptions_stay_groups_of_their_own(self, spec):
        """Every bucket of a planned layout exchanges on its own."""
        sync = make_bucketed(spec, compute_profile=PROFILE)
        assert sync.bucket_sizes == [700, 500, 100]
        assert len(sync.sessions) == len(sync.slices) == 3
        edges = np.concatenate(([0], np.cumsum(sync.bucket_sizes))).tolist()
        assert sync.slices == list(zip(edges[:-1], edges[1:]))
        gradients = drifting_gradients(4, NUM_ELEMENTS, 0)
        result = sync.synchronize(gradients)
        info = result.info
        assert info["group_sizes"] == [hi - lo for lo, hi in sync.slices]
        assert len(info["bucket_stats"]) == len(info["per_bucket_info"]) == 3
        assert (len(info["bucket_names"]) == len(info["bucket_sizes"])
                == sync.num_buckets == 3)
        assert result.is_consistent
        np.testing.assert_allclose(result.gradient(0) + sync.total_residual(),
                                   sum(gradients.values()), atol=1e-9)

    def test_a_planned_layout_keeps_its_exchanges(self):
        """``buckets=auto``: the planner priced every exchange against the
        backward pass; its buckets are not regrouped."""
        sync = make_bucketed("spardl?density=0.05&buckets=auto")
        assert sync.fusion_plan is not None
        assert len(sync.sessions) == sync.num_buckets
        assert [s.synchronizer.num_elements for s in sync.sessions] == sync.bucket_sizes

    def test_group_info_lists_every_bucket(self):
        """Per-layer selection stays testable at group granularity: every
        layer keeps its own k and at least one entry."""
        sync = make_bucketed("spardl?density=0.05&buckets=layer")
        result = sync.synchronize(drifting_gradients(4, NUM_ELEMENTS, 0))
        info = result.info
        assert info["bucket_k"] == [35, 3, 22, 1, 4, 1]
        assert len(info["bucket_final_nnz"]) == 6 and min(info["bucket_final_nnz"]) >= 1
        assert sum(info["bucket_final_nnz"]) == info["final_nnz"]
        assert info["k"] == sync.k == 66


# ---------------------------------------------------------------------------
# membership changes reach every bucket
# ---------------------------------------------------------------------------
MATRIX = list(itertools.product([1, 2], [None, 8], [None, 0.9]))
CRASH_STEP, JOIN_STEP, STEPS = 2, 4, 6


def churn_session(teams, num_bits, momentum, split=False, workers=4):
    # split: a planned layout of three buckets, each its own SparDL
    spec = f"spardl?density=0.05&buckets={'auto' if split else 'layer'}&teams={teams}"
    spec += f"&bits={num_bits}" if num_bits else ""
    spec += f"&momentum={momentum}" if momentum else ""
    sync = make_bucketed(spec, workers=workers, compute_profile=PROFILE)
    sync.cluster.install_fault_plan(FaultPlan(events=[
        MembershipEvent(iteration=CRASH_STEP, kind="crash", worker=1),
        MembershipEvent(iteration=JOIN_STEP, kind="join")]))
    return SyncSession(sync)


class TestMembershipReachesEveryGroup:
    def test_a_crash_used_to_leave_the_groups_at_the_old_size(self):
        """Regression: ``BucketedSynchronizer`` inherited the base
        ``apply_membership``, which only resized the cluster — the next
        step died with ``worker 3 outside cluster of size 3``."""
        sync = make_bucketed("spardl?density=0.05&buckets=auto", compute_profile=PROFILE)
        sync.cluster.install_fault_plan(FaultPlan(events=[
            MembershipEvent(iteration=1, kind="crash", worker=1)]))
        session = SyncSession(sync)
        session.step(drifting_gradients(4, NUM_ELEMENTS, 0))
        before = sync.total_residual()
        assert session.poll_membership() and session.num_workers == 3
        for inner in (s.synchronizer for s in sync.sessions):
            assert inner.residuals.num_workers == 3 and inner.team_size == 3
            assert inner.selector.cuts == {}
        np.testing.assert_allclose(sync.total_residual(), before, atol=1e-12)
        gradients = drifting_gradients(3, NUM_ELEMENTS, 1)
        result = session.step(gradients)
        np.testing.assert_allclose(result.gradient(0) + sync.total_residual(),
                                   before + sum(gradients.values()), atol=1e-9)

    @pytest.mark.parametrize("teams,num_bits,momentum", MATRIX)
    @pytest.mark.parametrize("split", [False, True], ids=["one-group", "three-groups"])
    def test_crash_and_join_conserve_through_every_group(self, teams, num_bits,
                                                         momentum, split):
        session = churn_session(teams, num_bits, momentum, split)
        sync = session.synchronizer
        if split:
            assert sync.bucket_sizes == [700, 500, 100]
            inners = [s.synchronizer for s in sync.sessions]
        else:
            assert type(sync) is SparDLSynchronizer
            assert sync.bucket_sizes == [size for _, size in LAYOUT]
            inners = [sync]
        sizes = []
        for step in range(STEPS):
            residual, velocity = ledger(sync)
            session.poll_membership()
            # the hand-off itself moves state between ranks, never mass
            moved, moved_velocity = ledger(sync)
            np.testing.assert_allclose(moved, residual, atol=1e-12)
            np.testing.assert_allclose(moved_velocity, velocity, atol=1e-12)
            sizes.append(session.num_workers)
            gradients = drifting_gradients(session.num_workers, NUM_ELEMENTS, step)
            result = session.step(gradients)
            assert result.is_consistent
            expected = residual + velocity + sum(gradients.values())
            scale = max(1.0, float(np.abs(expected).max()))
            np.testing.assert_allclose(result.gradient(0) + ledger(sync)[0],
                                       expected, atol=1e-9 * scale, rtol=0)
        assert sizes == [4, 4, 3, 3, 4, 4]
        for inner in inners:
            assert inner.residuals.num_workers == 4
            if inner.stack is not None:
                assert inner.stack.num_workers == 4

    def test_the_shared_cluster_is_resized_once(self):
        session = churn_session(1, None, None, split=True)
        cluster = session.synchronizer.cluster
        resized = []
        inner = cluster.resize
        cluster.resize = lambda size: resized.append(size) or inner(size)
        for step in range(STEPS):
            session.poll_membership()
            session.step(drifting_gradients(session.num_workers, NUM_ELEMENTS, step))
        assert resized == [3, 4]  # three buckets, one resize per event


# ---------------------------------------------------------------------------
# compiled kernels == NumPy reference, through grouping and churn
# ---------------------------------------------------------------------------
def churn_digest(teams, num_bits, momentum):
    """SHA-256 over every step's globals, stores, velocities and stats of a
    six-bucket group that loses and regains a worker (P = 6: teams of 6 or 3
    become one team of 5)."""
    session = churn_session(teams, num_bits, momentum, workers=6)
    inner, digest = session.synchronizer, hashlib.sha256()
    for step in range(STEPS):
        session.poll_membership()
        result = session.step(drifting_gradients(session.num_workers, NUM_ELEMENTS, step))
        for rank in range(session.num_workers):
            digest.update(bits(result.gradient(rank)).tobytes())
            digest.update(bits(inner.residuals.store(rank).peek()).tobytes())
            if inner.residuals.momentum:
                digest.update(bits(inner.residuals.velocity(rank)).tobytes())
        stats = result.stats
        digest.update(repr((stats.rounds, stats.total_volume, stats.total_messages,
                            stats.max_received, result.info["final_nnz"],
                            sorted((key, float(cut).hex()) for key, cut
                                   in inner.selector.cuts.items()))).encode())
    return digest.hexdigest()


def matrix_digests():
    return {"compiled": compiled_kernels_available(),
            "digests": {repr(case): churn_digest(*case) for case in MATRIX}}


def test_compiled_kernels_equal_the_numpy_reference():
    """The matrix in a child process on the *other* kernel leg
    (``REPRO_DISABLE_CKERNELS`` flipped): fused scan + segmented quickselect
    and NumPy add + per-segment partition agree on every bit, warm cuts
    included."""
    env = dict(os.environ)
    if compiled_kernels_available():
        env["REPRO_DISABLE_CKERNELS"] = "1"
    else:
        env.pop("REPRO_DISABLE_CKERNELS", None)
    root = Path(__file__).resolve().parents[1]
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root)] + env.get("PYTHONPATH", "").split(os.pathsep))
    child = subprocess.run([sys.executable, __file__], env=env, check=True,
                           capture_output=True, text=True, timeout=300)
    other = json.loads(child.stdout)
    if other["compiled"] == compiled_kernels_available():
        pytest.skip("no C compiler: both processes ran the NumPy kernels")
    assert other["digests"] == matrix_digests()["digests"]


if __name__ == "__main__":  # the child of test_compiled_kernels_equal_the_numpy_reference
    print(json.dumps(matrix_digests()))
