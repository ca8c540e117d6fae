"""Sparse gradients in coordinate (COO) form.

The paper transmits sparse gradients as ``(index, value)`` pairs, so every
non-zero costs two elements of bandwidth.  :class:`SparseGradient` is an
immutable-by-convention container over sorted, unique indices; it provides
exactly the operations the communication algorithms need:

* construction from a dense vector (optionally restricted to a block),
* merge-summation of two (or many) sparse gradients — the operation whose
  output can be larger than its inputs, the root of the SGA dilemma,
* exact top-k re-sparsification with the discarded remainder returned so
  residual collection can keep it,
* densification and block restriction.

The merge kernels are the synchronisation hot path, so they are written as
vectorized linear merges over the already-sorted COO streams (no
``np.unique`` re-sort, no ``np.add.at``) and construct their results through
the trusted :meth:`SparseGradient.from_sorted_unique` constructor, which
skips the invariant re-validation of :meth:`__post_init__`.  Full validation
happens only at the API boundaries (``__init__`` / :meth:`from_dense`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .ckernels import get_kernels as _get_c_kernels
from .topk import segmented_top_k, threshold_indices


def compiled_kernels_available() -> bool:
    """Whether the compiled C kernels are active in this process.

    Probes (and caches) the lazy loader, honouring ``REPRO_DISABLE_CKERNELS``.
    Process-backed transports use this to verify that spawned workers run
    the same kernel path as the parent — a worker silently falling back to
    the NumPy kernels while the parent runs compiled ones (or vice versa)
    would make the two CI matrix legs meaningless inside workers.
    """
    return _get_c_kernels() is not None


__all__ = ["SparseGradient", "compiled_kernels_available", "merge_many_coo"]


def _stable_merge_sorted(index_streams: Sequence[np.ndarray],
                         value_streams: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Merge already-sorted COO streams into one index-sorted stream.

    Duplicates are kept, ordered by stream (stability) so that a later
    segment-sum accumulates values in stream order.  The fast path packs
    ``index * 2^shift + position`` into one int64 key per entry and sorts the
    keys directly: timsort gallops through the pre-sorted runs in near-linear
    time, and sorting scalar keys avoids the indirection cost of a stable
    ``argsort``.  Falls back to ``argsort`` when the pack could overflow.
    """
    indices = np.concatenate(index_streams)
    values = np.concatenate(value_streams)
    m = indices.shape[0]
    if m <= 1:
        return indices, values
    shift = (m - 1).bit_length()
    max_index = int(max(int(stream[-1]) for stream in index_streams if stream.shape[0]))
    if max_index < (1 << (62 - shift)):
        keys = indices << shift
        keys += np.arange(m, dtype=np.int64)
        keys.sort(kind="stable")
        pos = keys & ((1 << shift) - 1)
        keys >>= shift
        return keys, values[pos]
    order = np.argsort(indices, kind="stable")
    return indices[order], values[order]


def _segment_sum_sorted(indices: np.ndarray, values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Collapse duplicates of an index-sorted COO stream by summation.

    ``np.bincount`` accumulates strictly left-to-right within each
    duplicate run, from +0.0, which keeps results bit-identical to
    sequential pairwise merging.  (``np.add.reduceat`` would *not* be: its
    reduction order within a segment is unspecified and observably differs
    from left-to-right.)
    """
    is_start = np.empty(indices.shape[0], dtype=bool)
    is_start[0] = True
    np.not_equal(indices[1:], indices[:-1], out=is_start[1:])
    segment = np.cumsum(is_start) - 1
    return indices[is_start], np.bincount(segment, weights=values)


def merge_many_coo(index_streams: Sequence[np.ndarray],
                   value_streams: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """K-way merge-sum of sorted-unique COO streams.

    Every index array must be sorted ascending and internally unique (the
    :class:`SparseGradient` invariant; a lone stream may repeat indices,
    which are summed).  One k-way tournament-tree merge when the compiled
    kernels are available (two streams take its two-pointer loop), else
    one stable merge plus one segment-sum pass in NumPy.  (The NumPy path
    keeps the packed-key stable sort: timsort's galloping merges the
    presorted runs in O(total * log streams) comparisons, so it already
    *is* a tournament merge in optimized C.)  Duplicate values accumulate
    in stream order from ``+0.0``, so each output value is the
    left-to-right sum over streams — bit-identical to the seed's pairwise
    fold of ``np.unique`` + ``np.add.at`` merges.
    """
    kernels = _get_c_kernels()
    if kernels is not None:
        merged = kernels.merge_many(index_streams, value_streams)
        if merged is not None:
            return merged
    indices, values = _stable_merge_sorted(index_streams, value_streams)
    if indices.shape[0] == 0:
        return indices, values
    return _segment_sum_sorted(indices, values)


@dataclass(frozen=True)
class SparseGradient:
    """A sparse slice of a length-``length`` gradient vector.

    ``indices`` are global coordinates (sorted, unique, ``int64``);
    ``values`` are the corresponding gradient entries (``float64``).
    """

    indices: np.ndarray
    values: np.ndarray
    length: int

    def __post_init__(self) -> None:
        indices = np.asarray(self.indices, dtype=np.int64)
        values = np.asarray(self.values, dtype=np.float64)
        if indices.ndim != 1 or values.ndim != 1:
            raise ValueError("indices and values must be one-dimensional")
        if indices.shape[0] != values.shape[0]:
            raise ValueError("indices and values must have the same length")
        if self.length < 0:
            raise ValueError("length must be non-negative")
        if indices.shape[0]:
            if indices.min() < 0 or indices.max() >= self.length:
                raise ValueError("indices out of range")
            if np.any(np.diff(indices) <= 0):
                # Sort and merge duplicates to restore the invariant.
                order = np.argsort(indices, kind="stable")
                indices, values = merge_many_coo([indices[order]], [values[order]])
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "values", values)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_sorted_unique(cls, indices: np.ndarray, values: np.ndarray,
                           length: int) -> "SparseGradient":
        """Trusted constructor: no invariant re-validation.

        The caller guarantees ``indices`` is a sorted, unique ``int64`` array
        within ``[0, length)`` and ``values`` a ``float64`` array of the same
        shape.  Every kernel in this module and its consumers (merge, top-k
        split, restrict, scale) already produces arrays with these
        properties, so re-checking them on each internal construction would
        dominate the hot path.  External callers must use ``SparseGradient``
        / :meth:`from_dense`, which validate.
        """
        obj = object.__new__(cls)
        object.__setattr__(obj, "indices", indices)
        object.__setattr__(obj, "values", values)
        object.__setattr__(obj, "length", length)
        return obj

    @classmethod
    def empty(cls, length: int) -> "SparseGradient":
        """An all-zero sparse gradient over a vector of ``length`` entries."""
        if length < 0:
            raise ValueError("length must be non-negative")
        return cls.from_sorted_unique(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64), length
        )

    @classmethod
    def from_dense(cls, dense: np.ndarray, indices: Optional[np.ndarray] = None,
                   offset: int = 0, length: Optional[int] = None) -> "SparseGradient":
        """Build from a dense array.

        With ``indices`` given, only those (local) positions are kept; the
        ``offset`` shifts them into global coordinates.  Without ``indices``
        all non-zero positions are kept.
        """
        dense = np.asarray(dense, dtype=np.float64)
        if length is None:
            length = offset + dense.shape[0]
        if indices is None:
            indices = np.flatnonzero(dense)
        indices = np.asarray(indices, dtype=np.int64)
        values = dense[indices]
        return cls(indices + offset, values, length)

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored non-zero entries (``int``)."""
        return int(self.indices.shape[0])

    def to_dense(self, length: Optional[int] = None) -> np.ndarray:
        """Densify into a fresh ``float64`` array of ``length`` entries
        (defaults to :attr:`length`)."""
        length = self.length if length is None else length
        dense = np.zeros(length, dtype=np.float64)
        dense[self.indices] = self.values
        return dense

    # ------------------------------------------------------------------
    # algebra
    # ------------------------------------------------------------------
    @staticmethod
    def merge_many(pieces: Sequence["SparseGradient"]) -> "SparseGradient":
        """Merge-sum a non-empty sequence of sparse gradients over the same
        vector in one pass; inputs are unchanged.

        Values sum in sequence order (bit-identical with folding a pairwise
        merge-sum over the sequence) in a single k-way merge.  An empty
        piece adds nothing: with one non-empty piece, that piece itself is
        returned, and with none, the first.
        """
        if not pieces:
            raise ValueError("merge_many needs at least one sparse gradient")
        length = pieces[0].length
        for piece in pieces[1:]:
            if piece.length != length:
                raise ValueError("cannot merge sparse gradients of different lengths")
        nonempty = [piece for piece in pieces if piece.nnz]
        if not nonempty:
            return pieces[0]
        if len(nonempty) == 1:
            return nonempty[0]
        indices, values = merge_many_coo([piece.indices for piece in nonempty],
                                         [piece.values for piece in nonempty])
        return SparseGradient.from_sorted_unique(indices, values, length)

    def scale(self, factor: float) -> "SparseGradient":
        """A new sparse gradient with every value multiplied by ``factor``
        (indices shared, not copied)."""
        return SparseGradient.from_sorted_unique(
            self.indices, self.values * float(factor), self.length
        )

    # ------------------------------------------------------------------
    # sparsification
    # ------------------------------------------------------------------
    def top_k(self, k: int) -> Tuple["SparseGradient", "SparseGradient"]:
        """Keep the top-k entries; return ``(kept, dropped)``."""
        if k >= self.nnz:
            return self, SparseGradient.empty(self.length)
        if k <= 0:
            return SparseGradient.empty(self.length), self
        return self._top_k_split(np.array([0, self.nnz], dtype=np.int64),
                                 np.array([k], dtype=np.int64))

    def top_k_segments(self, offsets: np.ndarray, ks: np.ndarray
                       ) -> Tuple["SparseGradient", "SparseGradient"]:
        """:meth:`top_k` on every segment of the stored entries at once:
        entries ``offsets[s]:offsets[s + 1]`` keep their ``ks[s]`` largest.
        Returns ``(kept, dropped)`` over all segments."""
        if (np.diff(offsets) <= ks).all():  # no segment is over its budget
            return self, SparseGradient.empty(self.length)
        return self._top_k_split(offsets, ks)

    def _top_k_split(self, offsets: np.ndarray, ks: np.ndarray
                     ) -> Tuple["SparseGradient", "SparseGradient"]:
        """The segmented selection and the split it decides: one call with
        the compiled kernels; the NumPy path
        (:func:`~repro.sparse.topk.segmented_top_k` and two boolean gathers
        per side) is the reference it is index-for-index equal to."""
        kernels = _get_c_kernels()
        if kernels is None:
            keep, _, _ = segmented_top_k(np.abs(self.values), offsets, ks)
            return self._split(keep)
        kept_indices, kept_values, rest_indices, rest_values = kernels.top_k_split(
            self.indices, self.values, offsets, ks)
        return (SparseGradient.from_sorted_unique(kept_indices, kept_values, self.length),
                SparseGradient.from_sorted_unique(rest_indices, rest_values, self.length))

    def threshold(self, tau: float) -> Tuple["SparseGradient", "SparseGradient"]:
        """Threshold pruning; return ``(kept, dropped)``."""
        picked_local = threshold_indices(self.values, tau)
        return self._split(picked_local)

    def _split(self, picked_local: np.ndarray) -> Tuple["SparseGradient", "SparseGradient"]:
        """Split into (picked, rest) by sorted local positions, or by the
        boolean mask of the picked entries."""
        mask = picked_local
        if mask.dtype != bool:
            mask = np.zeros(self.nnz, dtype=bool)
            mask[picked_local] = True
        kept = SparseGradient.from_sorted_unique(
            self.indices[mask], self.values[mask], self.length
        )
        dropped = SparseGradient.from_sorted_unique(
            self.indices[~mask], self.values[~mask], self.length
        )
        return kept, dropped

    # ------------------------------------------------------------------
    # slicing
    # ------------------------------------------------------------------
    def restrict(self, lo: int, hi: int) -> "SparseGradient":
        """Entries with ``lo <= index < hi`` (still in global coordinates)."""
        start = int(np.searchsorted(self.indices, lo, side="left"))
        stop = int(np.searchsorted(self.indices, hi, side="left"))
        return SparseGradient.from_sorted_unique(
            self.indices[start:stop], self.values[start:stop], self.length
        )

    def __len__(self) -> int:
        """Alias for :attr:`nnz`."""
        return self.nnz

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SparseGradient(nnz={self.nnz}, length={self.length})"
