"""Top-k and threshold selection primitives.

Top-k sparsification keeps the ``k`` entries of a gradient vector with the
largest absolute value.  The paper additionally contrasts exact top-k
selection (used by SparDL, TopkA, TopkDSA, gTopk) with *threshold pruning*
(used by Ok-Topk), which selects every entry whose magnitude exceeds an
estimated threshold and therefore may return more or fewer than ``k``
entries.

All selections are deterministic: ties are broken towards the lower index so
repeated runs (and different workers holding identical data) agree exactly.
"""

from __future__ import annotations

from typing import Dict, Hashable, Tuple

import numpy as np

__all__ = [
    "WarmTopK",
    "top_k_indices",
    "top_k_mask",
    "threshold_indices",
    "kth_largest_magnitude",
]


def top_k_indices(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest-magnitude entries of ``values``.

    Returns a sorted index array.  ``k`` larger than the vector length
    returns all indices; ``k <= 0`` returns an empty array.  Ties are broken
    deterministically towards lower indices.

    Selection is O(n): ``np.partition`` finds the k-th largest magnitude (the
    cut), every entry strictly above the cut is selected, and the remaining
    slots are filled by the lowest-indexed entries exactly at the cut — which
    is bit-for-bit the selection a stable descending argsort would make.
    """
    return _top_k_of_magnitude(np.abs(np.asarray(values)), k)


def _partition_cut(magnitude: np.ndarray, k: int) -> Tuple[np.ndarray, float]:
    """``(magnitude, cut)`` for ``0 < k <= n``: the k-th largest magnitude,
    with NaN ranked below every magnitude as a stable argsort ranks it.

    ``np.partition`` sorts NaN *last*, so a NaN anywhere shows up in the
    O(k) tail; only then is it mapped to -inf (unreachable by ``|x|``) and
    the cut redone on the returned, remapped magnitudes."""
    n = magnitude.shape[0]
    part = np.partition(magnitude, n - k)
    if np.isnan(part[n - k:]).any():
        magnitude = np.where(np.isnan(magnitude), -np.inf, magnitude)
        part = np.partition(magnitude, n - k)
    return magnitude, part[n - k]


def _top_k_of_magnitude(magnitude: np.ndarray, k: int) -> np.ndarray:
    """:func:`top_k_indices` on precomputed magnitudes ``|x|``."""
    n = magnitude.shape[0]
    if k <= 0 or n == 0:
        return np.empty(0, dtype=np.int64)
    if k >= n:
        return np.arange(n, dtype=np.int64)
    magnitude, cut = _partition_cut(magnitude, k)
    reached = np.flatnonzero(magnitude >= cut)
    if reached.shape[0] > k:
        # Surplus entries exactly at the cut: the lowest-indexed ones win.
        strict = magnitude[reached] > cut
        need = k - int(np.count_nonzero(strict))
        reached = np.sort(np.concatenate([reached[strict], reached[~strict][:need]]))
    return reached.astype(np.int64, copy=False)


class WarmTopK:
    """Exact top-k for selections repeated on slowly changing vectors.

    Per ``key`` it remembers the smallest magnitude kept last time.  If at
    least ``k`` entries still reach that cut, every top-k entry is among
    them (the true cut can only be higher), so the partition runs on those
    few candidates instead of the whole vector; candidates stay in index
    order, so ties still break towards the lower index, and NaN never
    passes ``>=``.  Otherwise — no cut yet, or a stale-high one — the full
    partition runs.  Either way the result equals :func:`top_k_indices`
    index for index; a stale-low cut only admits more candidates.
    """

    def __init__(self) -> None:
        #: ``key -> `` smallest magnitude kept by the last selection.
        self.cuts: Dict[Hashable, float] = {}
        self._scratch = np.empty(0, dtype=np.float64)

    def magnitudes(self, values: np.ndarray) -> np.ndarray:
        """``|values|`` in a scratch buffer reused by the next call."""
        if self._scratch.shape[0] < values.shape[0]:
            self._scratch = np.empty(values.shape[0], dtype=np.float64)
        return np.abs(values, out=self._scratch[:values.shape[0]])

    def select(self, key: Hashable, magnitude: np.ndarray, k: int) -> np.ndarray:
        """Sorted indices of the ``k`` largest entries of ``magnitude``."""
        cut = self.cuts.get(key)
        candidates = None if cut is None else np.flatnonzero(magnitude >= cut)
        if candidates is not None and candidates.shape[0] >= k:
            picked = candidates[_top_k_of_magnitude(magnitude[candidates], k)]
        else:
            picked = _top_k_of_magnitude(magnitude, k)
        if picked.shape[0]:
            self.cuts[key] = magnitude[picked].min()
        return picked


def top_k_mask(values: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask marking the top-k entries of ``values``."""
    mask = np.zeros(np.asarray(values).shape[0], dtype=bool)
    mask[top_k_indices(values, k)] = True
    return mask


def kth_largest_magnitude(values: np.ndarray, k: int) -> float:
    """Magnitude of the k-th largest-magnitude entry (the exact top-k
    threshold).  Returns 0.0 when ``k <= 0`` or the vector is empty — a
    threshold of 0.0 keeps everything, the only sensible answer when there
    is no k-th entry to cut at.  When ``0 < n <= k`` the smallest magnitude
    is returned (the threshold that keeps all ``n`` entries).  NaN ranks
    below every magnitude, exactly as in :func:`top_k_indices`: when the
    k-th entry would be a NaN the threshold is ``-inf``."""
    values = np.asarray(values)
    n = values.shape[0]
    if n == 0 or k <= 0:
        return 0.0
    return float(_partition_cut(np.abs(values), min(k, n))[1])


def threshold_indices(values: np.ndarray, threshold: float) -> np.ndarray:
    """Indices whose magnitude is at least ``threshold`` (threshold pruning,
    as used by Ok-Topk).  Entries exactly equal to the threshold are kept."""
    values = np.asarray(values)
    if threshold <= 0:
        return np.arange(values.shape[0], dtype=np.int64)
    return np.flatnonzero(np.abs(values) >= threshold).astype(np.int64)
