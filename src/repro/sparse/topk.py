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

from functools import partial
from typing import Any, Callable, Dict, Hashable, Optional, Sequence, Set, Tuple

import numpy as np

from .ckernels import SEED_MIN_RUNS, SEED_RUN, SEED_SHARE, get_kernels

__all__ = [
    "WarmTopK",
    "seed_cut",
    "seed_ranks",
    "segmented_top_k",
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


#: Longest segment :func:`segmented_top_k` hands to the compiled kernel when
#: one rank is sought.  One kernel call for many short segments saves a NumPy
#: partition (~12 us of call overhead) apiece, but the kernel is a scalar
#: quickselect and NumPy 2's one-point partition a vectorised one, which
#: overtakes it on long segments (measured, keeping half: 64 x 40 entries 90
#: vs 780 us, 16 x 1,024 entries 200 vs 350 us, 8 x 2,048 entries 140 vs 144
#: us, 8 x 4,096 entries 380 vs 210 us).  A segment that also wants the
#: magnitude at a second rank (``reach > k``) stays with the kernel at any
#: length: NumPy's two-point partition is not vectorised (8 x 4,096 entries
#: 340 vs 770 us, one of 131,072 entries 1.4 vs 2.6 ms).
_BATCHED_SEGMENT = 2048


def segmented_top_k(magnitude: np.ndarray, offsets: np.ndarray, ks: np.ndarray,
                    reaches: Optional[np.ndarray] = None
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`top_k_indices` on every segment of one array, in one call.

    ``magnitude`` holds precomputed magnitudes ``|x|``; segment ``s`` is
    ``magnitude[offsets[s]:offsets[s + 1]]`` and keeps its ``ks[s]`` largest
    entries (none for ``ks[s] <= 0``, all for ``ks[s]`` past its length),
    ties to the lower index, NaN below every magnitude.  Returns ``(keep,
    cuts, reached)``: the boolean mask of the kept entries, and per segment
    what a warm selector remembers (see :func:`_top_k_of_magnitude`, with
    ``reaches[s]`` as its ``reach``) — ``cuts[s]`` is NaN and ``reached[s]``
    0 for a segment that kept nothing or everything.

    Segments that are short or want two ranks go to the compiled kernel
    together (see :data:`_BATCHED_SEGMENT`), the others (and all of them
    without the kernels) to :func:`_top_k_of_magnitude` one by one; the
    result is the same.
    """
    ks = np.asarray(ks, dtype=np.int64)
    segments = ks.shape[0]
    keep = np.zeros(magnitude.shape[0], dtype=bool)
    cuts = np.full(segments, np.nan)
    reached = np.zeros(segments, dtype=np.int64)
    wanted = ks > 0
    kernels = get_kernels()
    if kernels is not None:
        batched = np.diff(offsets) <= _BATCHED_SEGMENT
        if reaches is not None:
            batched |= np.asarray(reaches) > ks
        batched &= wanted
        if batched.any():
            kernels.segmented_top_k(
                np.ascontiguousarray(magnitude, dtype=np.float64),
                np.ascontiguousarray(offsets, dtype=np.int64),
                np.where(batched, ks, -1),
                None if reaches is None
                else np.ascontiguousarray(reaches, dtype=np.int64),
                keep, cuts, reached)
        wanted &= ~batched
    for segment in np.flatnonzero(wanted).tolist():
        lo = offsets[segment]
        local, cut, reach = _top_k_of_magnitude(
            magnitude[lo:offsets[segment + 1]], int(ks[segment]),
            0 if reaches is None else int(reaches[segment]))
        keep[lo + local] = True
        if cut is not None:
            cuts[segment], reached[segment] = cut, reach
    return keep, cuts, reached


#: Added to the rank a seeded cut is read at, against the sampling noise of
#: small ranks: a sample expected to hold ``x`` of a segment's top ``k``
#: holds ``2 x + SEED_SLACK`` or more of them — and the cut seeded from it
#: admits fewer than ``k`` — about once in 10^5 segments of independent
#: entries, at any ``x``.
SEED_SLACK = 6


def _seed_sample(lengths: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(runs, entries sampled)`` of segments of ``lengths`` entries:
    ``SEED_RUN`` contiguous entries from the start of each of ``runs`` equal
    parts — one entry in ``SEED_SHARE``, at least ``SEED_MIN_RUNS`` runs —
    or the whole segment when the runs would cover it."""
    runs = np.maximum(lengths // (SEED_RUN * SEED_SHARE), SEED_MIN_RUNS)
    return runs, np.minimum(runs * SEED_RUN, lengths)


def seed_ranks(lengths: np.ndarray, ks: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(ranks, reach)`` of the cuts to seed for top-``ks[s]`` selections
    on segments of ``lengths[s]`` entries: the rank :func:`seed_cut` reads
    the segment's sample at — twice the sample's share of ``k`` plus
    :data:`SEED_SLACK`, so that the cut admits about ``2 k`` entries — and
    the number of entries of the whole segment expected to reach that cut.
    Both are 0 where there is nothing to seed: a segment that keeps nothing
    or everything."""
    lengths, ks = np.asarray(lengths, dtype=np.int64), np.asarray(ks, dtype=np.int64)
    sampled = _seed_sample(lengths)[1]
    ranks = np.minimum(-(-2 * ks * sampled // np.maximum(lengths, 1)) + SEED_SLACK,
                       sampled)
    ranks = np.where((ks > 0) & (ks < lengths), ranks, 0)
    return ranks, -(-ranks * lengths // np.maximum(sampled, 1))


def seed_cut(values: np.ndarray, rank: int) -> Optional[float]:
    """A cut for a segment that has none: the ``rank``-th largest magnitude
    (clipped to the sample, NaN ranked last) in a fixed sample of
    ``values``, the segment after the error-feedback add — runs of
    contiguous entries spread evenly over it, the whole segment when it is
    short; which entries depends on its length alone.  ``None`` for a
    non-positive ``rank`` (see :func:`seed_ranks`) or magnitude: everything
    would reach it.

    Like any cut it only proposes candidates: a selection that finds fewer
    than ``k`` of them runs the full partition.  This is the NumPy statement
    of what the compiled ``accumulate_scan`` does inside its sweep, and
    equal to it bit for bit."""
    length = values.shape[0]
    if rank <= 0 or not length:
        return None
    runs, sampled = _seed_sample(length)
    if sampled < length:
        starts = np.arange(runs) * length // runs
        values = values[(starts[:, None] + np.arange(SEED_RUN)).ravel()]
    cut = float(_partition_cut(np.abs(values), min(rank, int(sampled)))[1])
    return cut if cut > 0 else None


#: ``(counts, indices, magnitudes)`` of one fused sweep.
Scan = Tuple[np.ndarray, np.ndarray, np.ndarray]


class WarmTopK:
    """Exact block-wise top-k for selections repeated on slowly changing
    vectors.

    A selection on a ``(group, segment)`` runs against a magnitude, the
    segment's *cut*.  If at least ``k`` entries reach the cut, every top-k
    entry is among them (the true cut can only be higher), so the partition
    runs on those few candidates instead of the whole segment; candidates
    stay in index order, so ties still break towards the lower index, and
    NaN never passes ``>=``.  Otherwise — the cut was too high, or there is
    none — the full partition runs.  Either way the result equals
    :func:`top_k_indices` index for index; a low cut only admits more
    candidates.

    **Life of a cut.**  *Seeded*: a segment that holds no cut — the first
    selection, after :meth:`clear`, after an overflow — gets one from a
    small fixed sample of its values (:func:`seed_cut`), aimed at about
    ``2 k`` candidates.  *Remembered*: every selection stores the magnitude
    it ranked at ``k``, which the next one starts from: on vectors that
    grow, that cut keeps admitting about ``2 k`` candidates and a looser
    one would only add work.  *Loosened*: a segment whose remembered cut
    was stale-high once — in a training run every selection takes the
    largest entries out and the next gradient is small against them —
    remembers the magnitude at rank ``2 k`` from then on, read off the same
    partition call.  A seed that admits too few costs that selection the
    full partition and nothing more.  A cut is never zero or negative:
    everything would reach it.

    **Where candidates come from.**  :meth:`select_segments` finds them with
    one compare per segment — unless :meth:`fused_accumulate` already found
    them, and their magnitudes, while it added the step's gradient into that
    vector (the compiled ``accumulate_scan`` kernel: one sweep instead of an
    add, an ``abs``, a compare, a ``flatnonzero`` and a gather, and the
    sweep seeds the cuts it lacks on its way).  The selector owns those
    candidates from the add until the group's next selection consumes them,
    and that selection ranks all of the group's segments they serve in one
    :func:`segmented_top_k` call.
    """

    #: A fused pass records at most ``SCAN_SLACK`` times the entries a cut
    #: admitted when it was stored (plus a constant for tiny ``k``), and
    #: ``SEED_REACH`` times those a seeded cut is expected to admit; a block
    #: that more reach forgets its cut and runs the full partition.
    SCAN_SLACK = 8
    SEED_REACH = 3

    def __init__(self) -> None:
        #: ``(group, segment) -> `` magnitude remembered from the last
        #: selection.
        self.cuts: Dict[Tuple[Hashable, int], float] = {}
        #: Selections served from candidates / by the full partition; over
        #: the former the candidates looked at and the ``k`` asked for; and
        #: the selections (of either kind) whose cut was seeded.
        self.hits = self.misses = self.candidates = self.requested = self.seeded = 0
        #: ``(group, segment) -> `` rank the remembered magnitude had.
        self._reach: Dict[Tuple[Hashable, int], int] = {}
        #: Segments whose cut was stale-high at least once.
        self._loose: Set[Tuple[Hashable, int]] = set()
        #: ``group -> (counts, indices, magnitudes)`` of a fused pass, until
        #: selected from: the segments' candidates back to back,
        #: ``counts[segment]`` of them (-1: that segment was not scanned).
        self._scanned: Dict[Hashable, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._published = (0, 0, 0, 0, 0)

    def clear(self) -> None:
        """Forget every cut (the keys describe a partitioning that is gone);
        the tallies go on."""
        self.cuts.clear()
        self._reach.clear()
        self._loose.clear()
        self._scanned.clear()

    def _remember(self, key: Tuple[Hashable, int], cut: float, reach: int) -> None:
        """Keep the magnitude a selection ranked at ``reach`` for the next
        one — unless it is not positive (the segment has fewer non-zeros
        than it keeps): every entry would reach that cut, so the segment
        goes without."""
        if cut > 0:
            self.cuts[key], self._reach[key] = cut, reach
        else:
            self.cuts.pop(key, None)
            self._reach.pop(key, None)

    def plan_accumulate(
            self, group: Hashable, bounds: np.ndarray, ks: np.ndarray,
            store: np.ndarray, addend: np.ndarray,
            velocity: Optional[np.ndarray] = None, momentum: float = 0.0,
    ) -> Optional[Tuple[Callable[[], Scan], Callable[[Scan], None]]]:
        """:meth:`fused_accumulate` in three parts: read the segments' cuts,
        caps and seed ranks off the selector and prepare the sweep.  Returns
        ``(sweep, adopt)`` — ``sweep()`` is the kernel call alone and may run
        on another thread; ``adopt(sweep())``, on the caller's, makes every
        write to the selector — or ``None`` without compiled kernels."""
        kernels = get_kernels()
        if kernels is None:
            return None
        segments = range(bounds.shape[0] - 1)
        cut_of, reach_of = self.cuts.get, self._reach.get
        cuts = np.array([cut_of((group, s), np.nan) for s in segments])
        known = cuts == cuts
        caps = np.array([self.SCAN_SLACK * reach_of((group, s), 0) + 16
                         for s in segments], dtype=np.int64)
        ranks = None
        if not known.all():
            ranks, reach = seed_ranks(np.diff(bounds), ks)
            caps = np.where(known, caps, self.SEED_REACH * reach + 16)
        sweep = kernels.scan_task(store, addend, velocity, momentum, bounds,
                                  cuts, caps, seed_ranks=ranks)
        return sweep, partial(self._adopt_scan, group, cuts, known)

    def _adopt_scan(self, group: Hashable, cuts: np.ndarray, known: np.ndarray,
                    scan: Scan) -> None:
        """Take over a sweep's candidates: ``cuts`` as it left them (the
        seeded ones written), ``known`` marking the remembered ones."""
        counts, indices, magnitudes = scan
        for s in np.flatnonzero(known & (counts < 0)).tolist():
            del self.cuts[(group, s)]  # more reached the cut than is worth keeping
        scanned = cuts == cuts  # against a remembered cut or a seeded one
        self.seeded += int(np.count_nonzero(scanned & ~known))
        counts[~scanned] = -1
        # (replaces what a step that added but never selected left behind)
        self._scanned[group] = (counts, indices, magnitudes)

    def fused_accumulate(self, group: Hashable, bounds: np.ndarray,
                         ks: np.ndarray, store: np.ndarray, addend: np.ndarray,
                         velocity: Optional[np.ndarray] = None,
                         momentum: float = 0.0) -> bool:
        """Add ``addend`` into ``store`` (through ``velocity`` under momentum
        correction: ``velocity = momentum * velocity + addend; store +=
        velocity``) with the compiled kernel — one sweep where NumPy makes
        up to three — and, in the same sweep, collect the candidates of
        every segment ``(group, s)`` of ``bounds`` for the top-``ks[s]``
        selection that follows: against the segment's cut, or one the sweep
        seeds where there is none.  Returns False, having done nothing, when
        the kernels are not compiled: the caller then adds with NumPy and
        :meth:`select_segments` seeds and compares for itself, bit-identical
        either way."""
        plan = self.plan_accumulate(group, bounds, ks, store, addend,
                                    velocity, momentum)
        if plan is not None:
            sweep, adopt = plan
            adopt(sweep())
        return plan is not None

    def select_segments(self, groups: Sequence[Hashable], rows: Sequence[np.ndarray],
                        bounds: np.ndarray, ks: np.ndarray) -> np.ndarray:
        """Exact block-wise top-k of every group at once.  Row ``i`` of the
        result holds the sorted indices of the ``ks[s]`` largest-magnitude
        entries of every segment ``rows[i][bounds[s]:bounds[s + 1]]`` of
        (distinct) group ``groups[i]`` — ``top_k_indices`` per segment,
        shifted to the whole vector, ``min(ks[s], length)`` of them (none
        for ``ks[s] <= 0``), segment after segment.

        The candidates fused sweeps left for the groups are ranked together,
        every ``(group, segment)`` they serve in one :func:`segmented_top_k`
        call; hits, misses, remembered and loosened cuts are array
        operations over ``(group, segment)``.  Only a segment no sweep
        served — all of them on the NumPy leg — is compared against its cut
        (seeded here when its group had no sweep), and only a miss runs the
        full partition, segment by segment."""
        ks = np.asarray(ks, dtype=np.int64)
        num, segments = len(groups), ks.shape[0]
        edges = bounds.tolist()
        taken = np.clip(ks, 0, np.diff(bounds))
        columns = np.concatenate(([0], np.cumsum(taken)))
        picked = np.empty((num, int(columns[-1])), dtype=np.int64)
        if not num or not segments:
            return picked
        scans = [self._scanned.pop(group, None) for group in groups]
        counts = np.stack([np.full(segments, -1, dtype=np.int64) if scan is None
                           else scan[0] for scan in scans])
        keys = [(group, s) for group in groups for s in range(segments)]
        cut_of = self.cuts.get
        cuts = np.fromiter((cut_of(key, np.nan) for key in keys), dtype=np.float64,
                           count=len(keys)).reshape(num, segments)
        remembered = cuts == cuts
        served = counts >= 0  # by a fused pass's candidates
        hit = served & (counts >= ks)
        found: Dict[Tuple[int, int], np.ndarray] = {}  # compared for here
        ranks = None
        for i, s in zip(*np.nonzero(~served)):
            i, s = int(i), int(s)
            cut: Optional[float] = cuts[i, s] if remembered[i, s] else None
            values = rows[i][edges[s]:edges[s + 1]]
            if cut is None and scans[i] is None:  # no sweep ran to seed it
                if ranks is None:
                    ranks = seed_ranks(np.diff(bounds), ks)[0]
                cut = seed_cut(values, int(ranks[s]))
                self.seeded += cut is not None
            if cut is not None:
                found[i, s] = np.flatnonzero(np.abs(values) >= cut)
                hit[i, s] = found[i, s].shape[0] >= ks[s]
        stale = remembered & ~hit  # the cut was stale-high
        self._loose.update(keys[at] for at in np.flatnonzero(stale).tolist())
        loose = np.fromiter((key in self._loose for key in keys), dtype=bool,
                            count=len(keys)).reshape(num, segments)
        reaches = np.where(loose, 2 * ks, ks)
        self.hits += int(np.count_nonzero(hit))
        self.misses += int(hit.size - np.count_nonzero(hit))
        self.requested += int((ks * hit).sum())
        warm = hit & served  # ranked with every other such segment
        self.candidates += int(counts[warm].sum()) + sum(
            candidates.shape[0] for at, candidates in found.items() if hit[at])
        if warm.any():
            scanned = [scan for scan in scans if scan is not None]
            keep, warm_cuts, reached = segmented_top_k(
                np.concatenate([scan[2] for scan in scanned]),
                np.concatenate(([0], np.cumsum(np.maximum(counts, 0)))),
                np.where(warm, ks, -1).ravel(), np.where(warm, reaches, 0).ravel())
            # (gathering at the kept positions, not through the mask: which
            # candidates are kept is as good as random, and NumPy's boolean
            # gather branches on every entry)
            picked.reshape(-1)[np.repeat(warm.ravel(), np.tile(taken, num))] = (
                np.concatenate([scan[1] for scan in scanned])[np.flatnonzero(keep)])
            ranked = warm_cuts == warm_cuts
            self._remember_all([keys[at] for at in np.flatnonzero(ranked).tolist()],
                               warm_cuts[ranked], reached[ranked])
        for i, s in zip(*np.nonzero(~warm)):  # each by its own partition
            i, s = int(i), int(s)
            lo = edges[s]
            values = rows[i][lo:edges[s + 1]]
            candidates = found.get((i, s)) if hit[i, s] else None
            if candidates is not None:
                values = values[candidates]
            local, cut, reach = _top_k_of_magnitude(np.abs(values), int(ks[s]),
                                                    int(reaches[i, s]))
            picked[i, columns[s]:columns[s + 1]] = (
                local if candidates is None else candidates[local]) + lo
            if cut is not None:
                self._remember(keys[i * segments + s], cut, reach)
        return picked

    def _remember_all(self, keys: Sequence[Tuple[Hashable, int]], cuts: np.ndarray,
                      reaches: np.ndarray) -> None:
        """:meth:`_remember` of many selections."""
        positive = cuts > 0
        for key, keeps in zip(keys, positive.tolist()):
            if not keeps:
                self.cuts.pop(key, None)
                self._reach.pop(key, None)
        kept = [key for key, keeps in zip(keys, positive.tolist()) if keeps]
        self.cuts.update(zip(kept, cuts[positive].tolist()))
        self._reach.update(zip(kept, reaches[positive].tolist()))

    def publish(self, metrics: Any) -> None:
        """Add what was tallied since the last call to the counters
        ``select.hits`` / ``misses`` / ``candidates`` / ``requested`` /
        ``seeded`` of a :class:`~repro.obs.metrics.MetricsRegistry` and
        refresh its gauges ``select.warm_share`` (selections served from
        candidates) and ``select.candidates_per_k`` over their running
        totals — which sum over every selector publishing into the
        registry."""
        tallies = (self.hits, self.misses, self.candidates, self.requested,
                   self.seeded)
        totals = []
        for name, now, before in zip(
                ("hits", "misses", "candidates", "requested", "seeded"),
                tallies, self._published):
            counter = metrics.counter(f"select.{name}")
            counter.inc(now - before)
            totals.append(counter.value)
        self._published = tallies
        hits, misses, candidates, requested, _ = totals
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
