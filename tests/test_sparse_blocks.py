"""Unit tests for block layouts."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sparse.blocks import BlockLayout, block_bounds
from repro.sparse.vector import SparseGradient


class TestBlockBounds:
    def test_even_split(self):
        assert block_bounds(10, 5) == [(0, 2), (2, 4), (4, 6), (6, 8), (8, 10)]

    def test_remainder_goes_to_early_blocks(self):
        bounds = block_bounds(10, 3)
        sizes = [hi - lo for lo, hi in bounds]
        assert sizes == [4, 3, 3]

    def test_covers_whole_range(self):
        bounds = block_bounds(17, 6)
        assert bounds[0][0] == 0
        assert bounds[-1][1] == 17
        for (prev_lo, prev_hi), (lo, hi) in zip(bounds, bounds[1:]):
            assert prev_hi == lo

    def test_more_blocks_than_elements(self):
        bounds = block_bounds(2, 4)
        sizes = [hi - lo for lo, hi in bounds]
        assert sizes == [1, 1, 0, 0]

    def test_invalid_num_blocks(self):
        with pytest.raises(ValueError):
            block_bounds(10, 0)


class TestBlockLayout:
    def test_block_of(self):
        layout = BlockLayout(10, 5)
        assert layout.block_of(0) == 0
        assert layout.block_of(9) == 4
        assert layout.block_of(4) == 2

    def test_block_of_out_of_range(self):
        layout = BlockLayout(10, 5)
        with pytest.raises(ValueError):
            layout.block_of(10)

    def test_block_size(self):
        layout = BlockLayout(10, 3)
        assert [layout.block_size(b) for b in range(3)] == [4, 3, 3]

    def test_slice_dense(self):
        layout = BlockLayout(6, 3)
        dense = np.arange(6, dtype=float)
        np.testing.assert_array_equal(layout.slice_dense(dense, 1), [2.0, 3.0])

    def test_restrict_to_a_block(self):
        layout = BlockLayout(8, 4)
        sparse = SparseGradient(np.array([0, 3, 6]), np.array([1.0, 2.0, 3.0]), 8)
        assert sparse.restrict(*layout.bound(3)).indices.tolist() == [6]

    def test_iter_blocks_order(self):
        layout = BlockLayout(10, 4)
        blocks = list(layout.iter_blocks())
        assert [b for b, _, _ in blocks] == [0, 1, 2, 3]
        assert blocks[0][1] == 0
        assert blocks[-1][2] == 10

    def test_invalid_layout(self):
        with pytest.raises(ValueError):
            BlockLayout(10, 0)
