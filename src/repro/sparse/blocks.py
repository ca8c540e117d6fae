"""Partitioning a gradient vector into contiguous blocks.

Spar-Reduce-Scatter partitions the ``n`` dense gradients of each worker into
``P`` (or ``P/d``) contiguous blocks; every block is sparsified and reduced
independently.  This module owns the block geometry so every algorithm
agrees on where block ``b`` starts and ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from .vector import SparseGradient

__all__ = ["BlockLayout", "block_bounds"]


def block_bounds(length: int, num_blocks: int) -> List[Tuple[int, int]]:
    """Split ``[0, length)`` into ``num_blocks`` contiguous, nearly equal
    half-open ranges.  Earlier blocks receive the remainder, matching the
    usual MPI partitioning convention."""
    if num_blocks <= 0:
        raise ValueError("num_blocks must be positive")
    if length < 0:
        raise ValueError("length must be non-negative")
    base = length // num_blocks
    remainder = length % num_blocks
    bounds = []
    start = 0
    for i in range(num_blocks):
        size = base + (1 if i < remainder else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


@dataclass(frozen=True)
class BlockLayout:
    """Geometry of a gradient vector split into contiguous blocks."""

    length: int
    num_blocks: int

    def __post_init__(self) -> None:
        if self.num_blocks <= 0:
            raise ValueError("num_blocks must be positive")
        if self.length < 0:
            raise ValueError("length must be non-negative")
        bounds = tuple(block_bounds(self.length, self.num_blocks))
        object.__setattr__(self, "_bounds", bounds)
        edges = np.array([0] + [hi for _, hi in bounds], dtype=np.int64)
        edges.flags.writeable = False
        object.__setattr__(self, "_edges", edges)

    @property
    def bounds(self) -> Tuple[Tuple[int, int], ...]:
        return self._bounds  # type: ignore[attr-defined]

    @property
    def edges(self) -> np.ndarray:
        """The ``num_blocks + 1`` block boundaries as one read-only
        ``int64`` array (block ``b`` is ``edges[b]:edges[b + 1]``)."""
        return self._edges  # type: ignore[attr-defined]

    def bound(self, block: int) -> Tuple[int, int]:
        return self.bounds[block]

    def block_of(self, index: int) -> int:
        """Block that owns coordinate ``index``."""
        if not 0 <= index < self.length:
            raise ValueError("index out of range")
        for block, (lo, hi) in enumerate(self.bounds):
            if lo <= index < hi:
                return block
        raise RuntimeError("unreachable")  # pragma: no cover

    def block_size(self, block: int) -> int:
        lo, hi = self.bound(block)
        return hi - lo

    def slice_dense(self, dense: np.ndarray, block: int) -> np.ndarray:
        lo, hi = self.bound(block)
        return dense[lo:hi]

    def restrict(self, sparse: SparseGradient, block: int) -> SparseGradient:
        lo, hi = self.bound(block)
        return sparse.restrict(lo, hi)

    def iter_blocks(self) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(block, lo, hi)`` for every block."""
        for block, (lo, hi) in enumerate(self.bounds):
            yield block, lo, hi

    def concat_blocks(self, pieces: Sequence[SparseGradient]) -> SparseGradient:
        """Merge per-block sparse gradients (disjoint coordinate ranges) into
        one sparse gradient over the full vector."""
        if len(pieces) == 0:
            return SparseGradient.empty(self.length)
        return SparseGradient.merge_many(pieces)
