"""Unit tests for the COO sparse gradient container."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sparse.vector import SparseGradient

from tests.references import naive_merge_add


class TestConstruction:
    def test_from_dense_keeps_nonzeros(self):
        dense = np.array([0.0, 1.0, 0.0, -2.0])
        sparse = SparseGradient.from_dense(dense)
        assert sparse.nnz == 2
        assert set(sparse.indices.tolist()) == {1, 3}

    def test_from_dense_with_offset(self):
        dense = np.array([1.0, 2.0])
        sparse = SparseGradient.from_dense(dense, offset=10, length=20)
        assert list(sparse.indices) == [10, 11]
        assert sparse.length == 20

    def test_empty(self):
        sparse = SparseGradient.empty(5)
        assert sparse.nnz == 0
        assert sparse.length == 5

    def test_rejects_out_of_range_indices(self):
        with pytest.raises(ValueError):
            SparseGradient(np.array([5]), np.array([1.0]), length=3)

    def test_rejects_negative_indices(self):
        with pytest.raises(ValueError):
            SparseGradient(np.array([-1]), np.array([1.0]), length=3)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            SparseGradient(np.array([0, 1]), np.array([1.0]), length=3)

    def test_duplicate_indices_are_merged(self):
        sparse = SparseGradient(np.array([2, 2, 0]), np.array([1.0, 3.0, 5.0]), length=4)
        assert sparse.nnz == 2
        dense = sparse.to_dense()
        assert dense[2] == 4.0
        assert dense[0] == 5.0

    def test_unsorted_indices_are_sorted(self):
        sparse = SparseGradient(np.array([3, 1]), np.array([1.0, 2.0]), length=5)
        assert list(sparse.indices) == [1, 3]


class TestAlgebra:
    def test_round_trip_dense(self):
        dense = np.array([0.0, 1.5, 0.0, -2.5, 0.0])
        sparse = SparseGradient.from_dense(dense)
        np.testing.assert_allclose(sparse.to_dense(), dense)

    def test_add_disjoint(self):
        a = SparseGradient(np.array([0]), np.array([1.0]), 4)
        b = SparseGradient(np.array([2]), np.array([2.0]), 4)
        merged = SparseGradient.merge_many([a, b])
        np.testing.assert_allclose(merged.to_dense(), [1.0, 0.0, 2.0, 0.0])

    def test_add_overlapping_sums_values(self):
        a = SparseGradient(np.array([1, 2]), np.array([1.0, 1.0]), 4)
        b = SparseGradient(np.array([2, 3]), np.array([2.0, 3.0]), 4)
        merged = SparseGradient.merge_many([a, b])
        np.testing.assert_allclose(merged.to_dense(), [0.0, 1.0, 3.0, 3.0])

    def test_add_exhibits_sga_growth(self):
        # The sum of two k-sparse gradients with different supports has up to
        # 2k non-zeros: the root of the SGA dilemma.
        a = SparseGradient(np.array([0, 1, 2]), np.ones(3), 10)
        b = SparseGradient(np.array([5, 6, 7]), np.ones(3), 10)
        assert SparseGradient.merge_many([a, b]).nnz == 6

    def test_add_empty_is_identity(self):
        a = SparseGradient(np.array([1]), np.array([2.0]), 4)
        assert SparseGradient.merge_many([a, SparseGradient.empty(4)]) is a
        assert SparseGradient.merge_many([SparseGradient.empty(4), a]) is a

    def test_add_length_mismatch_raises(self):
        a = SparseGradient(np.array([1]), np.array([2.0]), 4)
        b = SparseGradient(np.array([1]), np.array([2.0]), 5)
        with pytest.raises(ValueError):
            SparseGradient.merge_many([a, b])
        with pytest.raises(ValueError):
            SparseGradient.merge_many([b, a])

    def test_scale(self):
        a = SparseGradient(np.array([1]), np.array([2.0]), 4)
        np.testing.assert_allclose(a.scale(0.5).to_dense(), [0.0, 1.0, 0.0, 0.0])

    def test_add_commutative(self):
        rng = np.random.default_rng(0)
        a = SparseGradient.from_dense(rng.normal(size=30) * (rng.random(30) < 0.3))
        b = SparseGradient.from_dense(rng.normal(size=30) * (rng.random(30) < 0.3))
        np.testing.assert_allclose(SparseGradient.merge_many([a, b]).to_dense(),
                                   SparseGradient.merge_many([b, a]).to_dense())


class TestSparsification:
    def test_top_k_keeps_largest(self):
        sparse = SparseGradient(np.array([0, 1, 2]), np.array([1.0, -5.0, 2.0]), 5)
        kept, dropped = sparse.top_k(1)
        assert list(kept.indices) == [1]
        assert set(dropped.indices.tolist()) == {0, 2}

    def test_top_k_preserves_mass(self):
        rng = np.random.default_rng(1)
        sparse = SparseGradient.from_dense(rng.normal(size=40))
        kept, dropped = sparse.top_k(10)
        np.testing.assert_allclose(kept.to_dense() + dropped.to_dense(), sparse.to_dense())

    def test_top_k_with_k_larger_than_nnz(self):
        sparse = SparseGradient(np.array([0]), np.array([1.0]), 5)
        kept, dropped = sparse.top_k(10)
        assert kept.nnz == 1
        assert dropped.nnz == 0

    def test_top_k_zero(self):
        sparse = SparseGradient(np.array([0]), np.array([1.0]), 5)
        kept, dropped = sparse.top_k(0)
        assert kept.nnz == 0
        assert dropped.nnz == 1

    def test_threshold_split(self):
        sparse = SparseGradient(np.array([0, 1, 2]), np.array([0.5, -2.0, 1.5]), 5)
        kept, dropped = sparse.threshold(1.0)
        assert set(kept.indices.tolist()) == {1, 2}
        assert set(dropped.indices.tolist()) == {0}


class TestTrustedConstructor:
    def test_matches_validating_constructor(self):
        indices = np.array([1, 4, 7], dtype=np.int64)
        values = np.array([1.0, -2.0, 3.0])
        trusted = SparseGradient.from_sorted_unique(indices, values, 10)
        checked = SparseGradient(indices, values, 10)
        np.testing.assert_array_equal(trusted.indices, checked.indices)
        np.testing.assert_array_equal(trusted.values, checked.values)
        assert trusted.length == checked.length

    def test_does_not_copy_arrays(self):
        indices = np.array([0, 2], dtype=np.int64)
        values = np.array([1.0, 2.0])
        sparse = SparseGradient.from_sorted_unique(indices, values, 5)
        assert sparse.indices is indices
        assert sparse.values is values

    def test_skips_validation(self):
        # The trust contract: invalid invariants are the caller's problem and
        # are NOT detected (this is what makes the constructor free).
        sparse = SparseGradient.from_sorted_unique(
            np.array([9, 3], dtype=np.int64), np.array([1.0, 2.0]), 5)
        np.testing.assert_array_equal(sparse.indices, [9, 3])


class TestMergeMany:
    def test_empty_sequence_raises(self):
        with pytest.raises(ValueError):
            SparseGradient.merge_many([])

    def test_single_piece_is_returned_unchanged(self):
        sparse = SparseGradient(np.array([1]), np.array([2.0]), 4)
        assert SparseGradient.merge_many([sparse]) is sparse

    def test_all_empty_pieces(self):
        merged = SparseGradient.merge_many([SparseGradient.empty(6),
                                            SparseGradient.empty(6)])
        assert merged.nnz == 0
        assert merged.length == 6

    def test_length_mismatch_raises(self):
        a = SparseGradient(np.array([1]), np.array([2.0]), 4)
        b = SparseGradient(np.array([1]), np.array([2.0]), 5)
        with pytest.raises(ValueError):
            SparseGradient.merge_many([a, b])

    def test_matches_pairwise_fold(self):
        rng = np.random.default_rng(3)
        pieces = []
        for _ in range(5):
            dense = rng.normal(size=40) * (rng.random(40) < 0.4)
            pieces.append(SparseGradient.from_dense(dense, length=40))
        merged = SparseGradient.merge_many(pieces)
        indices, values = pieces[0].indices, pieces[0].values
        for piece in pieces[1:]:
            indices, values = naive_merge_add(indices, values, piece.indices, piece.values)
        np.testing.assert_array_equal(merged.indices, indices)
        np.testing.assert_array_equal(merged.values, values)

    def test_overlapping_supports_sum(self):
        a = SparseGradient(np.array([0, 2]), np.array([1.0, 1.0]), 4)
        b = SparseGradient(np.array([2, 3]), np.array([2.0, 3.0]), 4)
        c = SparseGradient(np.array([0, 3]), np.array([4.0, 5.0]), 4)
        merged = SparseGradient.merge_many([a, b, c])
        np.testing.assert_allclose(merged.to_dense(), [5.0, 0.0, 3.0, 8.0])

    def test_non_contiguous_input_arrays(self):
        # Strided views are legal at the API boundary; the compiled kernels
        # read raw pointers and must compact them first.
        big_indices = np.arange(20, dtype=np.int64)
        big_values = np.ones(20)
        a = SparseGradient(big_indices[::2], big_values[::2], 100)
        b = SparseGradient(np.array([0, 2], dtype=np.int64),
                           np.array([1.0, 1.0]), 100)
        added = SparseGradient.merge_many([a, b])
        np.testing.assert_array_equal(added.indices, np.arange(0, 20, 2))
        np.testing.assert_allclose(added.to_dense()[[0, 2, 4]], [2.0, 2.0, 1.0])
        merged = SparseGradient.merge_many([a, b, a])
        np.testing.assert_array_equal(merged.indices, np.arange(0, 20, 2))
        np.testing.assert_allclose(merged.to_dense()[[0, 2, 4]], [3.0, 3.0, 2.0])


class TestSlicing:
    def test_restrict_range(self):
        sparse = SparseGradient(np.array([0, 3, 7]), np.array([1.0, 2.0, 3.0]), 10)
        restricted = sparse.restrict(2, 8)
        assert set(restricted.indices.tolist()) == {3, 7}
        assert restricted.length == 10

    def test_restrict_empty_range(self):
        sparse = SparseGradient(np.array([0, 3]), np.array([1.0, 2.0]), 10)
        assert sparse.restrict(4, 4).nnz == 0

    def test_restrict_inverted_range_is_empty(self):
        sparse = SparseGradient(np.array([0, 3, 7]), np.array([1.0, 2.0, 3.0]), 10)
        assert sparse.restrict(8, 2).nnz == 0

    def test_restrict_beyond_bounds(self):
        sparse = SparseGradient(np.array([0, 3, 7]), np.array([1.0, 2.0, 3.0]), 10)
        assert sparse.restrict(-5, 50).nnz == 3
        assert sparse.restrict(8, 50).nnz == 0

    def test_restrict_boundaries_are_half_open(self):
        sparse = SparseGradient(np.array([2, 5, 8]), np.array([1.0, 2.0, 3.0]), 10)
        restricted = sparse.restrict(2, 8)
        assert set(restricted.indices.tolist()) == {2, 5}

    def test_len_is_nnz(self):
        sparse = SparseGradient(np.array([2, 5]), np.array([1.0, 2.0]), 10)
        assert len(sparse) == 2
