"""Property-based tests (hypothesis) for the sparse gradient substrate."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import pytest

from repro.sparse import ckernels as ckernels_module
from repro.sparse import vector as vector_module
from repro.sparse.blocks import BlockLayout, block_bounds
from repro.sparse.topk import kth_largest_magnitude, top_k_indices
from repro.sparse.vector import SparseGradient, merge_many_coo

from tests.references import (
    naive_merge_add as reference_merge_add,
    naive_merge_many as reference_merge_many,
    naive_top_k_indices as reference_top_k_indices,
)

dense_vectors = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=1, max_value=200),
    elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
)

#: Vectors drawn from a tiny value set: nearly every magnitude is tied, the
#: adversarial case for deterministic top-k tie-breaking.
tie_vectors = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=1, max_value=200),
    elements=st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]),
)


def force_kernel_path(monkeypatch: pytest.MonkeyPatch, path: str) -> None:
    """Pin the merge implementation: 'c' or 'numpy'."""
    if path != "c":
        monkeypatch.setattr(ckernels_module, "_KERNELS", None)
    elif vector_module._get_c_kernels() is None:
        pytest.skip("compiled merge kernels unavailable")


KERNEL_PATHS = ["c", "numpy"]


class TestKernelEquivalence:
    """The vectorized kernels must be bit-identical to the seed idioms,
    including adversarial tie patterns, on every implementation path."""

    @pytest.mark.parametrize("path", KERNEL_PATHS)
    def test_top_k_bit_identical_on_ties(self, path, monkeypatch):
        force_kernel_path(monkeypatch, path)
        rng = np.random.default_rng(7)
        pool = np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
        for trial in range(200):
            n = int(rng.integers(1, 300))
            values = rng.choice(pool, size=n)
            k = int(rng.integers(-2, n + 3))
            np.testing.assert_array_equal(
                top_k_indices(values, k), reference_top_k_indices(values, k))

    @pytest.mark.parametrize("path", KERNEL_PATHS)
    def test_merge_add_bit_identical(self, path, monkeypatch):
        force_kernel_path(monkeypatch, path)
        rng = np.random.default_rng(11)
        for trial in range(200):
            n = int(rng.integers(1, 500))
            a = SparseGradient.from_dense(
                rng.normal(size=n) * (rng.random(n) < 0.3), length=n)
            b = SparseGradient.from_dense(
                rng.normal(size=n) * (rng.random(n) < 0.3), length=n)
            if a.nnz == 0 or b.nnz == 0:
                continue
            got_idx, got_val = merge_many_coo([a.indices, b.indices], [a.values, b.values])
            ref_idx, ref_val = reference_merge_add(a.indices, a.values, b.indices, b.values)
            np.testing.assert_array_equal(got_idx, ref_idx)
            assert np.array_equal(got_val.view(np.uint64), ref_val.view(np.uint64)), \
                "merge-add values are not bit-identical to the seed idiom"

    @pytest.mark.parametrize("path", KERNEL_PATHS)
    def test_merge_many_bit_identical_to_pairwise_fold(self, path, monkeypatch):
        force_kernel_path(monkeypatch, path)
        rng = np.random.default_rng(13)
        for trial in range(60):
            n = int(rng.integers(1, 400))
            num_streams = int(rng.integers(1, 9))
            streams = []
            for _ in range(num_streams):
                dense = rng.normal(size=n) * (rng.random(n) < 0.2)
                sparse = SparseGradient.from_dense(dense, length=n)
                if sparse.nnz:
                    streams.append(sparse)
            if not streams:
                continue
            got_idx, got_val = merge_many_coo([s.indices for s in streams],
                                              [s.values for s in streams])
            ref_idx, ref_val = reference_merge_many([s.indices for s in streams],
                                                    [s.values for s in streams])
            np.testing.assert_array_equal(got_idx, ref_idx)
            assert np.array_equal(got_val.view(np.uint64), ref_val.view(np.uint64)), \
                "k-way merge values are not bit-identical to sequential pairwise adds"

    def test_merge_many_is_the_seed_fold_on_wide_gathers(self):
        """Gathers as wide as 8 .. 256 workers, 2,000 entries each of a
        1e6-long gradient: the production merge is the seed's pairwise
        fold, bit for bit."""
        rng = np.random.default_rng(0)
        for num_streams in (8, 64, 128, 256):
            streams = [(np.sort(rng.choice(1_000_000, size=2_000, replace=False)),
                        rng.normal(size=2_000)) for _ in range(num_streams)]
            got_idx, got_val = merge_many_coo(*zip(*streams))
            ref_idx, ref_val = reference_merge_many(*zip(*streams))
            np.testing.assert_array_equal(got_idx, ref_idx)
            assert np.array_equal(got_val.view(np.uint64), ref_val.view(np.uint64)), \
                f"{num_streams} streams: the merge is not the seed fold"

    @pytest.mark.parametrize("path", KERNEL_PATHS)
    def test_merge_add_both_empty(self, path, monkeypatch):
        force_kernel_path(monkeypatch, path)
        empty_i = np.empty(0, dtype=np.int64)
        empty_v = np.empty(0, dtype=np.float64)
        got_idx, got_val = merge_many_coo([empty_i, empty_i], [empty_v, empty_v])
        assert got_idx.shape == (0,) and got_val.shape == (0,)

    @pytest.mark.parametrize("path", KERNEL_PATHS)
    def test_merge_add_negative_zero_bit_identical(self, path, monkeypatch):
        # The seed np.add.at accumulates from +0.0 and therefore never emits
        # -0.0; every kernel path must match it bit-for-bit, sign bit
        # included (the random normals above never generate -0.0, so this
        # adversarial case needs explicit coverage).
        force_kernel_path(monkeypatch, path)
        a_idx = np.array([0, 2, 5], dtype=np.int64)
        a_val = np.array([-0.0, 1.0, -0.0])
        b_idx = np.array([1, 5], dtype=np.int64)
        b_val = np.array([-0.0, -0.0])
        got_idx, got_val = merge_many_coo([a_idx, b_idx], [a_val, b_val])
        ref_idx, ref_val = reference_merge_add(a_idx, a_val, b_idx, b_val)
        np.testing.assert_array_equal(got_idx, ref_idx)
        assert np.array_equal(got_val.view(np.uint64), ref_val.view(np.uint64)), \
            "-0.0 handling differs from the seed idiom"

    @given(values=tie_vectors, k=st.integers(min_value=-5, max_value=250))
    @settings(max_examples=100, deadline=None)
    def test_top_k_hypothesis_ties(self, values, k):
        np.testing.assert_array_equal(
            top_k_indices(values, k), reference_top_k_indices(values, k))

    @given(a=dense_vectors, seed=st.integers(min_value=0, max_value=100))
    @settings(max_examples=60, deadline=None)
    def test_sparse_add_matches_seed_merge(self, a, seed):
        b = np.random.default_rng(seed).normal(size=a.shape[0])
        sa = SparseGradient.from_dense(a)
        sb = SparseGradient.from_dense(b, length=a.shape[0])
        if sa.nnz == 0 or sb.nnz == 0:
            return
        merged = SparseGradient.merge_many([sa, sb])
        ref_idx, ref_val = reference_merge_add(sa.indices, sa.values, sb.indices, sb.values)
        np.testing.assert_array_equal(merged.indices, ref_idx)
        np.testing.assert_array_equal(merged.values, ref_val)


class TestTopKProperties:
    @given(values=dense_vectors, k=st.integers(min_value=0, max_value=250))
    @settings(max_examples=60, deadline=None)
    def test_selection_size_and_optimality(self, values, k):
        picked = top_k_indices(values, k)
        expected = min(max(k, 0), values.shape[0])
        assert picked.size == expected
        if 0 < picked.size < values.shape[0]:
            # Every selected magnitude >= every unselected magnitude.
            mask = np.zeros(values.shape[0], dtype=bool)
            mask[picked] = True
            assert np.abs(values[mask]).min() >= np.abs(values[~mask]).max() - 1e-12

    @given(values=dense_vectors, k=st.integers(min_value=1, max_value=200))
    @settings(max_examples=60, deadline=None)
    def test_kth_magnitude_consistent_with_selection(self, values, k):
        cut = kth_largest_magnitude(values, k)
        count_at_least = (np.abs(values) >= cut).sum()
        assert count_at_least >= min(k, values.shape[0])


class TestSparseGradientProperties:
    @given(values=dense_vectors)
    @settings(max_examples=60, deadline=None)
    def test_dense_round_trip(self, values):
        sparse = SparseGradient.from_dense(values)
        np.testing.assert_allclose(sparse.to_dense(values.shape[0]), values)

    @given(values=dense_vectors, k=st.integers(min_value=0, max_value=250))
    @settings(max_examples=60, deadline=None)
    def test_topk_split_conserves_mass(self, values, k):
        sparse = SparseGradient.from_dense(values)
        kept, dropped = sparse.top_k(k)
        np.testing.assert_allclose(kept.to_dense() + dropped.to_dense(), sparse.to_dense())
        assert kept.nnz <= max(k, 0) or k >= sparse.nnz

    @given(a=dense_vectors, seed=st.integers(min_value=0, max_value=100))
    @settings(max_examples=60, deadline=None)
    def test_add_matches_dense_addition(self, a, seed):
        b = np.random.default_rng(seed).normal(size=a.shape[0])
        sparse_sum = SparseGradient.merge_many([SparseGradient.from_dense(a),
                                                SparseGradient.from_dense(b)])
        np.testing.assert_allclose(sparse_sum.to_dense(), a + b, atol=1e-9)

    @given(values=dense_vectors,
           lo=st.integers(min_value=0, max_value=200),
           hi=st.integers(min_value=0, max_value=200))
    @settings(max_examples=60, deadline=None)
    def test_restrict_never_leaks_outside_range(self, values, lo, hi):
        lo, hi = min(lo, hi), max(lo, hi)
        sparse = SparseGradient.from_dense(values)
        restricted = sparse.restrict(lo, hi)
        if restricted.nnz:
            assert restricted.indices.min() >= lo
            assert restricted.indices.max() < hi


class TestBlockLayoutProperties:
    @given(length=st.integers(min_value=0, max_value=500),
           num_blocks=st.integers(min_value=1, max_value=40))
    @settings(max_examples=80, deadline=None)
    def test_bounds_partition_the_range(self, length, num_blocks):
        bounds = block_bounds(length, num_blocks)
        assert len(bounds) == num_blocks
        assert bounds[0][0] == 0
        assert bounds[-1][1] == length
        sizes = [hi - lo for lo, hi in bounds]
        assert max(sizes) - min(sizes) <= 1
        for (_, prev_hi), (lo, _) in zip(bounds, bounds[1:]):
            assert prev_hi == lo

    @given(length=st.integers(min_value=1, max_value=300),
           num_blocks=st.integers(min_value=1, max_value=20),
           seed=st.integers(min_value=0, max_value=50))
    @settings(max_examples=60, deadline=None)
    def test_concat_of_block_restrictions_recovers_vector(self, length, num_blocks, seed):
        layout = BlockLayout(length, num_blocks)
        dense = np.random.default_rng(seed).normal(size=length)
        sparse = SparseGradient.from_dense(dense)
        pieces = [sparse.restrict(*layout.bound(block)) for block in range(num_blocks)]
        np.testing.assert_array_equal(
            np.concatenate([piece.indices for piece in pieces]), sparse.indices)
        np.testing.assert_array_equal(
            np.concatenate([piece.values for piece in pieces]), sparse.values)
