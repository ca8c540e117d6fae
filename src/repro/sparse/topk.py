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

from typing import Any, Dict, Hashable, Optional, Set, Tuple

import numpy as np

from .ckernels import get_kernels

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
    return _top_k_of_magnitude(np.abs(np.asarray(values)), k)[0]


def _partition_cut(magnitude: np.ndarray, k: int,
                   reach: Optional[int] = None) -> Tuple[np.ndarray, float, float]:
    """``(magnitude, cut, looser cut)`` for ``0 < k <= reach <= n``: the k-th
    and the reach-th largest magnitude out of one ``np.partition`` call, with
    NaN ranked below every magnitude as a stable argsort ranks it.

    ``np.partition`` sorts NaN *last*, so a NaN anywhere shows up in the
    O(k) tail; only then is it mapped to -inf (unreachable by ``|x|``) and
    the cut redone on the returned, remapped magnitudes."""
    n = magnitude.shape[0]
    kth = n - k if reach is None or reach == k else (n - reach, n - k)
    part = np.partition(magnitude, kth)
    if np.isnan(part[n - k:]).any():
        magnitude = np.where(np.isnan(magnitude), -np.inf, magnitude)
        part = np.partition(magnitude, kth)
    return magnitude, part[n - k], part[n - (reach or k)]


def _top_k_of_magnitude(magnitude: np.ndarray, k: int, reach: int = 0
                        ) -> Tuple[np.ndarray, Optional[float], int]:
    """:func:`top_k_indices` on precomputed magnitudes ``|x|``, and what a
    warm selector remembers of it: the ``max(reach, k)``-th largest
    magnitude (clipped to the vector) and that rank.  A selection that took
    nothing or everything has no cut to remember: ``(indices, None, 0)``."""
    n = magnitude.shape[0]
    if k <= 0 or n == 0:
        return np.empty(0, dtype=np.int64), None, 0
    if k >= n:
        return np.arange(n, dtype=np.int64), None, 0
    reach = min(max(reach, k), n)
    magnitude, cut, remembered = _partition_cut(magnitude, k, reach)
    reached = np.flatnonzero(magnitude >= cut)
    if reached.shape[0] > k:
        # Surplus entries exactly at the cut: the lowest-indexed ones win.
        strict = magnitude[reached] > cut
        need = k - int(np.count_nonzero(strict))
        reached = np.sort(np.concatenate([reached[strict], reached[~strict][:need]]))
    return reached.astype(np.int64, copy=False), remembered, reach


class WarmTopK:
    """Exact top-k for selections repeated on slowly changing vectors.

    Per ``key`` it remembers a magnitude the last selection ranked (its
    *cut*).  If at least ``k`` entries still reach that cut, every top-k
    entry is among them (the true cut can only be higher), so the partition
    runs on those few candidates instead of the whole vector; candidates
    stay in index order, so ties still break towards the lower index, and
    NaN never passes ``>=``.  Otherwise — no cut yet, or a stale-high one —
    the full partition runs.  Either way the result equals
    :func:`top_k_indices` index for index; a stale-low cut only admits more
    candidates.

    **Where candidates come from.**  :meth:`select` finds them with one
    compare over its vector — unless :meth:`fused_accumulate` already
    found them while it added the step's gradient into that vector (the
    compiled ``accumulate_scan`` kernel: one sweep instead of an add, an
    ``abs``, a compare and a ``flatnonzero``).  The selector owns those
    candidate lists from the add until the selection consumes them; keys of
    a fused pass are ``(group, block)``.

    **Which magnitude is remembered.**  The smallest one kept (rank ``k``)
    while a key has never missed: on vectors that grow, that cut keeps
    admitting about ``2 k`` candidates and a looser one would only add
    work.  A key whose cut was stale-high once — in a training run every
    selection takes the largest entries out and the next gradient is small
    against them — remembers the magnitude at rank ``2 k`` from then on,
    read off the same partition call.
    """

    #: A fused pass records at most ``SCAN_SLACK`` times the entries a cut
    #: admitted when it was stored (plus a constant for tiny ``k``); a block
    #: that more reach forgets its cut and is selected cold.
    SCAN_SLACK = 8

    def __init__(self) -> None:
        #: ``key -> `` magnitude remembered from the last selection.
        self.cuts: Dict[Hashable, float] = {}
        #: Selections served from candidates / by the full partition, and
        #: over the former the candidates looked at and the ``k`` asked for.
        self.hits = self.misses = self.candidates = self.requested = 0
        #: ``key -> `` rank the remembered magnitude had in its vector.
        self._reach: Dict[Hashable, int] = {}
        #: Keys whose cut was stale-high at least once.
        self._loose: Set[Hashable] = set()
        #: ``key -> `` candidates a fused pass found, until selected from.
        self._scanned: Dict[Hashable, np.ndarray] = {}
        self._published = (0, 0, 0, 0)

    def clear(self) -> None:
        """Forget every cut (the keys describe a partitioning that is gone);
        the tallies go on."""
        self.cuts.clear()
        self._reach.clear()
        self._loose.clear()
        self._scanned.clear()

    def fused_accumulate(self, group: Hashable, bounds: np.ndarray,
                         store: np.ndarray, addend: np.ndarray,
                         velocity: Optional[np.ndarray] = None,
                         momentum: float = 0.0) -> bool:
        """Add ``addend`` into ``store`` (through ``velocity`` under momentum
        correction: ``velocity = momentum * velocity + addend; store +=
        velocity``) with the compiled kernel and, in the same sweep, collect
        the candidates of every block ``(group, b)`` of ``bounds`` that has
        a cut.  Returns False, having done nothing, when there is nothing to
        fuse — the kernels are not compiled, or no block has a cut yet: the
        caller then adds with NumPy and :meth:`select` compares for itself,
        bit-identical either way."""
        kernels = get_kernels()
        if kernels is None:
            return False
        keys = [(group, block) for block in range(bounds.shape[0] - 1)]
        for key in keys:  # left by a step that added but never selected
            self._scanned.pop(key, None)
        cuts = [self.cuts.get(key, np.nan) for key in keys]
        if all(cut != cut for cut in cuts):
            return False
        caps = [self.SCAN_SLACK * self._reach.get(key, 0) + 16 for key in keys]
        found = kernels.accumulate_scan(
            store, addend, velocity, momentum, bounds,
            np.array(cuts, dtype=np.float64), np.array(caps, dtype=np.int64))
        for key, candidates in zip(keys, found):
            if candidates is None:
                del self.cuts[key]
            elif key in self.cuts:
                self._scanned[key] = candidates
        return True

    def select(self, key: Hashable, values: np.ndarray, k: int) -> np.ndarray:
        """Sorted indices of the ``k`` largest-magnitude entries of
        ``values``."""
        cut = self.cuts.get(key)
        candidates = self._scanned.pop(key, None)
        if cut is None:
            candidates = None
        elif candidates is None:
            candidates = np.flatnonzero(np.abs(values) >= cut)
        hit = candidates is not None and candidates.shape[0] >= k
        if candidates is not None and not hit:
            self._loose.add(key)  # the cut was stale-high
        reach = 2 * k if key in self._loose else k
        if hit:
            self.hits += 1
            self.candidates += candidates.shape[0]
            self.requested += k
            local, cut, reach = _top_k_of_magnitude(
                np.abs(values[candidates]), k, reach)
            picked = candidates[local]
        else:
            self.misses += 1
            picked, cut, reach = _top_k_of_magnitude(np.abs(values), k, reach)
        if cut is not None:
            self.cuts[key] = cut
            self._reach[key] = reach
        return picked

    def publish(self, metrics: Any) -> None:
        """Add what was tallied since the last call to the counters
        ``select.hits`` / ``misses`` / ``candidates`` / ``requested`` of a
        :class:`~repro.obs.metrics.MetricsRegistry` and refresh its gauges
        ``select.warm_share`` (selections served from candidates) and
        ``select.candidates_per_k`` over their running totals — which sum
        over every selector publishing into the registry."""
        tallies = (self.hits, self.misses, self.candidates, self.requested)
        totals = []
        for name, now, before in zip(("hits", "misses", "candidates", "requested"),
                                     tallies, self._published):
            counter = metrics.counter(f"select.{name}")
            counter.inc(now - before)
            totals.append(counter.value)
        self._published = tallies
        hits, misses, candidates, requested = totals
        if hits + misses:
            metrics.gauge("select.warm_share").set(hits / (hits + misses))
        if requested:
            metrics.gauge("select.candidates_per_k").set(candidates / requested)


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
