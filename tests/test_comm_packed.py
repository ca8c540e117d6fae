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
        assert packed.comm_size == sum(payload_size(PackedBags.pack([bag])) for bag in bags)

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
        merged = SparseGradient.merge_many([packed.bag(0), packed.bag(1)])
        expected = SparseGradient.merge_many([a, b])
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
        assert packed.comm_size == (payload_size(PackedBags.pack([first]))
                                    + payload_size(PackedBags.pack([second])))
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


class TestConcatById:
    """Bags numbered like the index ranges they hold — the segments of a
    block layout — are merged by putting them in id order: bit for bit what
    ``merge_many`` over the payloads returns."""

    @staticmethod
    def bits(sparse_gradient):
        return (sparse_gradient.indices.tolist(),
                sparse_gradient.values.view(np.uint64).tolist(), sparse_gradient.length)

    @staticmethod
    def blocks(sync, rng, share):
        """One random sparse block per rank: entries inside the segments of
        the block at the rank's team position (each segment left empty with
        probability ``1 - share``), ``-0.0``, exact zeros and NaN among the
        values."""
        layout, blocks = sync.layout, {}
        for team in sync.teams:
            for position, rank in enumerate(team):
                indices = np.concatenate([
                    np.sort(rng.choice(np.arange(lo, hi), replace=False, size=(
                        int(rng.integers(0, hi - lo + 1)) if rng.random() < share else 0)))
                    for lo, hi in (layout.bound(s) for s in layout.block_segments(position))])
                values = rng.choice([-0.0, 0.0, 1.5, -2.0, 1e-300, np.nan],
                                    size=indices.shape[0])
                blocks[rank] = SparseGradient.from_sorted_unique(
                    indices.astype(np.int64), values, layout.length)
        return blocks

    @pytest.mark.parametrize("sizes", [[240], [97, 5, 1, 60, 33]],
                             ids=["one-bucket", "five-buckets"])
    @pytest.mark.parametrize("workers,teams", [(4, 1), (8, 2), (8, 4), (6, 1),
                                               (6, 2), (12, 4), (5, 1)])
    @pytest.mark.parametrize("fill", ["full", "holes", "one-block", "none"])
    def test_the_combine_equals_merge_many(self, sizes, workers, teams, fill):
        from repro.comm.cluster import SimulatedCluster
        from repro.core.config import SparDLConfig
        from repro.core.spardl import SparDLSynchronizer
        sync = SparDLSynchronizer(SimulatedCluster(workers), sizes,
                                  SparDLConfig(density=0.1, num_teams=teams))
        rng = np.random.default_rng(workers * 31 + teams)
        blocks = self.blocks(sync, rng, {"holes": 0.6, "none": 0.0}.get(fill, 1.0))
        if fill == "one-block":  # merge_many hands a lone non-empty piece through
            only = int(rng.integers(0, sync.team_size))
            blocks = {rank: block if rank % sync.team_size == only
                      else SparseGradient.empty(block.length)
                      for rank, block in blocks.items()}
        final = sync._intra_team_allgather(blocks)
        for team in sync.teams:
            expected = SparseGradient.merge_many([blocks[rank] for rank in team])
            for rank in team:
                assert self.bits(final[rank]) == self.bits(expected)

    def test_bags_come_out_in_id_order_whatever_order_they_arrive_in(self):
        first = PackedBags.pack([sparse([40, 41], [1.0, -0.0]), sparse([2], [3.0])],
                                ids=[2, 0])
        second = PackedBags.pack([sparse([20], [5.0]), SparseGradient.empty(100)],
                                 ids=[1, 3])
        merged = PackedBags.concat_by_id([first, second])
        np.testing.assert_array_equal(merged.indices, [2, 20, 40, 41])
        assert self.bits(merged) == self.bits(SparseGradient.merge_many(
            [sparse([2, 40, 41], [3.0, 1.0, -0.0]), sparse([20], [5.0])]))
        assert not np.signbit(merged.values).any()  # 0.0 + -0.0, as a merge adds

    def test_a_lone_payload_is_handed_through_as_a_view(self):
        packed = PackedBags.pack([sparse([1, 2], [-0.0, 1.0])])
        empty = PackedBags.pack([SparseGradient.empty(100)])
        merged = PackedBags.concat_by_id([empty, packed, empty])
        assert np.shares_memory(merged.values, packed.values)
        assert np.signbit(merged.values[0])
        assert PackedBags.concat_by_id([empty, empty]).nnz == 0
