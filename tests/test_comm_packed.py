"""Unit tests for the batched sparse wire format (:mod:`repro.comm.packed`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.cluster import payload_size
from repro.comm.packed import PackedBags
from repro.sparse.vector import SparseGradient


def sparse(indices, values, length=100):
    return SparseGradient(np.array(indices, dtype=np.int64),
                          np.array(values, dtype=np.float64), length)


class TestPack:
    def test_round_trip_preserves_bags_bit_for_bit(self):
        bags = [sparse([1, 5, 9], [0.1, -0.2, 0.3]),
                sparse([0, 50], [1.5, 2.5]),
                sparse([99], [-7.0])]
        packed = PackedBags.pack(bags, ids=[4, 0, 2])
        assert packed.num_bags == 3
        assert list(packed.ids) == [4, 0, 2]
        for original, (bag_id, decoded) in zip(bags, packed.items()):
            np.testing.assert_array_equal(decoded.indices, original.indices)
            np.testing.assert_array_equal(decoded.values, original.values)
            assert decoded.length == original.length

    def test_default_ids_are_positions(self):
        packed = PackedBags.pack([sparse([1], [1.0]), sparse([2], [2.0])])
        assert list(packed.ids) == [0, 1]

    def test_empty_bag_inside_batch(self):
        bags = [sparse([3], [1.0]), SparseGradient.empty(100), sparse([7], [2.0])]
        packed = PackedBags.pack(bags)
        assert packed.bag(1).nnz == 0
        np.testing.assert_array_equal(packed.bag(2).indices, [7])

    def test_to_list_preserves_order(self):
        bags = [sparse([i], [float(i)]) for i in range(5)]
        decoded = PackedBags.pack(bags).to_list()
        assert [b.indices[0] for b in decoded] == list(range(5))

    def test_rejects_no_bags(self):
        with pytest.raises(ValueError):
            PackedBags.pack([])

    def test_rejects_mismatched_ids(self):
        with pytest.raises(ValueError):
            PackedBags.pack([sparse([1], [1.0])], ids=[1, 2])

    def test_rejects_mixed_lengths(self):
        with pytest.raises(ValueError):
            PackedBags.pack([sparse([1], [1.0], length=10), sparse([1], [1.0], length=20)])


class TestWireAccounting:
    def test_comm_size_counts_packed_arrays_only(self):
        """Two elements per non-zero; ids and offsets are free metadata."""
        bags = [sparse([1, 2, 3], [1.0, 2.0, 3.0]), sparse([10, 20], [1.0, 2.0])]
        packed = PackedBags.pack(bags, ids=[7, 8])
        assert packed.comm_size == 2.0 * 5
        assert packed.comm_size == sum(bag.comm_size for bag in bags)

    def test_payload_size_uses_comm_size(self):
        packed = PackedBags.pack([sparse([1, 2], [1.0, 2.0])])
        assert payload_size(packed) == packed.comm_size == 4.0

    def test_buffers_are_contiguous_and_read_only(self):
        packed = PackedBags.pack([sparse([1], [1.0]), sparse([2], [2.0])])
        assert packed.indices.flags.c_contiguous
        assert not packed.indices.flags.writeable
        assert not packed.values.flags.writeable
        with pytest.raises(ValueError):
            packed.values[0] = 9.0

    def test_single_bag_pack_does_not_freeze_source_arrays(self):
        indices = np.array([1, 2], dtype=np.int64)
        values = np.array([1.0, 2.0])
        bag = SparseGradient(indices, values, 10)
        PackedBags.pack([bag])
        assert bag.indices.flags.writeable  # freeze applies to the packed view only


class TestDecode:
    def test_decoded_bags_are_views_of_the_packed_buffers(self):
        packed = PackedBags.pack([sparse([1, 2], [1.0, 2.0]), sparse([5], [5.0])])
        decoded = packed.bag(0)
        assert decoded.indices.base is not None
        assert decoded.indices.base is packed.indices or \
            decoded.indices.base is packed.indices.base

    def test_decoded_bags_merge_with_kernels(self):
        """Decoded views feed straight into the merge fast path."""
        a = sparse([1, 4, 8], [1.0, 2.0, 3.0])
        b = sparse([4, 9], [10.0, 20.0])
        packed = PackedBags.pack([a, b])
        merged = packed.bag(0).add(packed.bag(1))
        expected = a.add(b)
        np.testing.assert_array_equal(merged.indices, expected.indices)
        np.testing.assert_array_equal(merged.values, expected.values)

    def test_merge_many_over_decoded_views(self):
        bags = [sparse([i, i + 10], [1.0, 2.0]) for i in range(4)]
        packed = PackedBags.pack(bags)
        merged = SparseGradient.merge_many(packed.to_list())
        expected = SparseGradient.merge_many(bags)
        np.testing.assert_array_equal(merged.indices, expected.indices)
        np.testing.assert_array_equal(merged.values, expected.values)


class TestSplitBags:
    """A piece that spans several segments travels as one bag per segment
    and comes back as one view."""

    def test_pack_split_cuts_every_piece_into_its_bags(self):
        first = sparse([1, 4, 40, 41, 90], [1.0, 2.0, 3.0, 4.0, 5.0])
        second = sparse([7, 55], [6.0, 7.0])
        packed = PackedBags.pack_split(
            [first, second], [np.array([0, 2, 4, 5]), np.array([0, 1, 1, 2])],
            ids=[2, 6, 10, 3, 7, 11])
        assert packed.ids == (2, 6, 10, 3, 7, 11)
        assert packed.offsets.tolist() == [0, 2, 4, 5, 6, 6, 7]
        assert [bag.indices.tolist() for bag in packed.to_list()] == [
            [1, 4], [40, 41], [90], [7], [], [55]]
        # accounting: the packed arrays alone, whatever the bag boundaries
        assert packed.comm_size == first.comm_size + second.comm_size
        assert payload_size(packed) == packed.comm_size
        assert not packed.offsets.flags.writeable

    def test_span_returns_a_piece_as_one_zero_copy_view(self):
        first = sparse([1, 4, 40, 41, 90], [1.0, 2.0, 3.0, 4.0, 5.0])
        second = sparse([7, 55], [6.0, 7.0])
        packed = PackedBags.pack_split(
            [first, second], [np.array([0, 2, 4, 5]), np.array([0, 1, 1, 2])],
            ids=range(6))
        for piece, (start, stop) in ((first, (0, 3)), (second, (3, 6))):
            view = packed.span(start, stop)
            np.testing.assert_array_equal(view.indices, piece.indices)
            np.testing.assert_array_equal(view.values, piece.values)
            assert np.shares_memory(view.values, packed.values)
        whole = PackedBags.pack_split([first], [np.array([0, 2, 5])], ids=[0, 1])
        np.testing.assert_array_equal(whole.span().indices, first.indices)

    def test_one_bag_per_piece_is_plain_pack(self):
        bags = [sparse([1, 2], [1.0, 2.0]), sparse([5], [5.0])]
        split = PackedBags.pack_split(bags, [np.array([0, 2]), np.array([0, 1])],
                                      ids=[0, 1])
        plain = PackedBags.pack(bags)
        assert split.ids == plain.ids
        np.testing.assert_array_equal(split.offsets, plain.offsets)
        np.testing.assert_array_equal(split.indices, plain.indices)
