"""Partitioning a gradient vector into blocks.

Spar-Reduce-Scatter partitions the ``n`` dense gradients of each worker into
``P`` (or ``P/d``) blocks; every block is sparsified and reduced
independently.  This module owns the block geometry so every algorithm
agrees on where block ``b`` starts and ends.

A vector that is one tensor is cut into contiguous blocks.  A vector that
concatenates several *buckets* (tensors selected from separately) cuts every
bucket into the same number of contiguous **segments**; block ``j`` is
segment ``j`` of every bucket, so one exchange moves all buckets while each
segment keeps its own top-k budget.  With one bucket a segment is a block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

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
    """Geometry of a gradient vector split into ``num_blocks`` blocks.

    ``bucket_sizes`` (default: one bucket of ``length``) are the tensors the
    vector concatenates.  :attr:`bounds` / :attr:`edges` /
    :meth:`iter_blocks` describe the ``num_buckets * num_blocks`` contiguous
    *segments* in index order — segment ``b * num_blocks + j`` is the
    ``j``-th part of bucket ``b`` — and block ``j`` is the union of the
    segments ``j, j + num_blocks, ...`` (:meth:`block_segments`).
    """

    length: int
    num_blocks: int
    bucket_sizes: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.num_blocks <= 0:
            raise ValueError("num_blocks must be positive")
        if self.length < 0:
            raise ValueError("length must be non-negative")
        sizes = ((self.length,) if self.bucket_sizes is None
                 else tuple(int(size) for size in self.bucket_sizes))
        if not sizes or min(sizes) < 0 or sum(sizes) != self.length:
            raise ValueError("bucket_sizes must be non-negative and sum to length")
        object.__setattr__(self, "bucket_sizes", sizes)
        bounds, start = [], 0
        for size in sizes:
            bounds += [(start + lo, start + hi)
                       for lo, hi in block_bounds(size, self.num_blocks)]
            start += size
        object.__setattr__(self, "_bounds", tuple(bounds))
        edges = np.array([0] + [hi for _, hi in bounds], dtype=np.int64)
        edges.flags.writeable = False
        object.__setattr__(self, "_edges", edges)

    @property
    def num_buckets(self) -> int:
        return len(self.bucket_sizes)

    @property
    def bounds(self) -> Tuple[Tuple[int, int], ...]:
        """``(lo, hi)`` of every segment, in index order."""
        return self._bounds  # type: ignore[attr-defined]

    @property
    def edges(self) -> np.ndarray:
        """The segment boundaries as one read-only ``int64`` array (segment
        ``s`` is ``edges[s]:edges[s + 1]``)."""
        return self._edges  # type: ignore[attr-defined]

    def bound(self, block: int) -> Tuple[int, int]:
        return self.bounds[block]

    def block_segments(self, block: int) -> range:
        """The segments block ``block`` is made of, in index order."""
        return range(block, len(self.bounds), self.num_blocks)

    def segment_offsets(self, block: int, indices: np.ndarray) -> np.ndarray:
        """Where the segments of ``block`` start and end inside ``indices``,
        the sorted coordinates of entries of that block: ``num_buckets + 1``
        offsets."""
        if self.num_buckets == 1:
            return np.array([0, indices.shape[0]], dtype=np.int64)
        offsets = np.empty(self.num_buckets + 1, dtype=np.int64)
        offsets[:-1] = np.searchsorted(indices, self.edges[block:-1:self.num_blocks])
        offsets[-1] = indices.shape[0]
        return offsets

    def block_of(self, index: int) -> int:
        """Segment that owns coordinate ``index``."""
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

    def iter_blocks(self) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(segment, lo, hi)`` for every segment."""
        for block, (lo, hi) in enumerate(self.bounds):
            yield block, lo, hi

