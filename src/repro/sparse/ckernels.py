"""Loader for the optional compiled kernels.

``_merge_kernels.c`` (the COO merges, the fused accumulate + candidate scan,
the segmented top-k, the Spar-Reduce-Scatter take and rounds, and the
convolution unfold / fold) is compiled once per
machine into a shared object in a private
per-user cache, addressed by source, compiler and flags (so repeated runs
and test invocations reuse it and a flag change never loads a stale
object), and bound through :mod:`ctypes`.  Everything is best-effort: no
compiler, no write permission, or any compile/load failure simply yields
``None`` and the callers keep using the vectorized NumPy kernels.  No build
step, no new dependency.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

__all__ = ["get_kernels", "load_merge_kernels", "CMergeKernels"]

#: Constants the C source takes from here (``_DEFINES``; it defines none of
#: them itself).  Most streams one k-way merge takes (a power of two):
MAX_STREAMS = 256
#: Entries a block may write past its cap before the scan notices.
SCAN_PAD = 8
#: A cut is seeded from runs of ``SEED_RUN`` contiguous entries, one entry in
#: ``SEED_SHARE`` but at least ``SEED_MIN_RUNS`` runs (see
#: :func:`repro.sparse.topk.seed_cut`).
SEED_RUN = 64
SEED_SHARE = 64
SEED_MIN_RUNS = 16
#: Variants of the fused accumulate + scan kernel, by values per instruction.
SIMD_LANES = {"scalar": 1, "avx2": 4, "avx512f": 8}

_SOURCE = Path(__file__).with_name("_merge_kernels.c")

#: ``-ffp-contract=off``: ``m * v + g`` must round twice, like NumPy's
#: ``v *= m; v += g`` — also where the target has FMA (aarch64, or a ``CC``
#: that implies ``-march=native``).
_DEFINES = tuple(f"-D{name}={globals()[name]}" for name in (
    "MAX_STREAMS", "SCAN_PAD", "SEED_RUN", "SEED_SHARE", "SEED_MIN_RUNS"))
_FLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC", *_DEFINES)

_PTR = ctypes.c_void_p
_I64 = ctypes.c_int64


def _contiguous(array: np.ndarray) -> np.ndarray:
    """``array`` itself when the kernels can read it through a raw pointer."""
    return array if array.flags.c_contiguous else np.ascontiguousarray(array)


class CMergeKernels:
    """ctypes bindings over the compiled kernels.  Pointer parameters are
    declared ``c_void_p`` and fed ``array.ctypes.data``: an integer goes
    through without the per-argument ``ctypes.cast`` of a typed pointer."""

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._merge_many = lib.merge_many_tournament_i64_f64
        self._merge_many.restype = _I64
        self._merge_many.argtypes = [_I64, _PTR, _PTR, _PTR, _PTR, _PTR]
        self._accumulate_scan = lib.accumulate_scan_f64
        self._accumulate_scan.restype = _I64
        self._accumulate_scan.argtypes = [
            _PTR, _PTR, _PTR, ctypes.c_double,
            _I64, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR, _I64,
        ]
        self._segmented_top_k = lib.segmented_top_k_f64
        self._segmented_top_k.restype = None
        self._segmented_top_k.argtypes = [_I64] + [_PTR] * 8
        self._top_k_split = lib.top_k_split_i64_f64
        self._top_k_split.restype = _I64
        self._top_k_split.argtypes = [_I64] + [_PTR] * 6
        self._take_rows = lib.take_rows_f64
        self._take_rows.restype = _I64
        self._take_rows.argtypes = [_I64, _I64, _PTR, _PTR, _I64, _PTR]
        self._srs_round = lib.srs_round_f64
        self._srs_round.restype = _I64
        self._srs_round.argtypes = [_I64] * 4 + [_PTR] * 16 + [_I64]
        self._im2col = lib.im2col_f64
        self._im2col.restype = None
        self._im2col.argtypes = [_PTR] + [_I64] * 14 + [_PTR]
        self._col2im = lib.col2im_f64
        self._col2im.restype = None
        self._col2im.argtypes = [_PTR] + [_I64] * 9 + [_PTR]
        lib.accumulate_scan_lanes.restype = _I64
        lib.accumulate_scan_lanes.argtypes = []
        widest = lib.accumulate_scan_lanes()
        #: Variant :meth:`accumulate_scan` runs on this machine (the widest
        #: the CPU supports): ``"avx512f"``, ``"avx2"`` or ``"scalar"``.
        self.simd: str = next(name for name, lanes in SIMD_LANES.items()
                              if lanes == widest)

    def merge_many(self, index_streams: Sequence[np.ndarray],
                   value_streams: Sequence[np.ndarray]
                   ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """K-way merge (the O(total * log streams) winner tree; two streams
        take the two-pointer loop); returns ``None`` when the stream count
        exceeds the compiled kernel's capacity (callers then fall back)."""
        k = len(index_streams)
        if k > MAX_STREAMS:
            return None
        # The kernel reads raw data pointers; a strided view (legal input at
        # the SparseGradient API boundary) must be compacted first.
        index_streams = [_contiguous(stream) for stream in index_streams]
        value_streams = [_contiguous(stream) for stream in value_streams]
        lengths = np.fromiter((stream.shape[0] for stream in index_streams),
                              dtype=np.int64, count=k)
        total = int(lengths.sum())
        out_indices = np.empty(total, dtype=np.int64)
        out_values = np.empty(total, dtype=np.float64)
        index_ptrs = np.fromiter((stream.ctypes.data for stream in index_streams),
                                 dtype=np.uintp, count=k)
        value_ptrs = np.fromiter((stream.ctypes.data for stream in value_streams),
                                 dtype=np.uintp, count=k)
        count = self._merge_many(
            k, index_ptrs.ctypes.data, value_ptrs.ctypes.data,
            lengths.ctypes.data, out_indices.ctypes.data, out_values.ctypes.data,
        )
        if count < 0:  # pragma: no cover - guarded by the k check above
            return None
        return out_indices[:count], out_values[:count]

    def accumulate_scan(self, *args, **kwargs
                        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`scan_task`, run here and now."""
        return self.scan_task(*args, **kwargs)()

    def scan_task(
        self, store: np.ndarray, addend: np.ndarray,
        velocity: Optional[np.ndarray], momentum: float,
        bounds: np.ndarray, cuts: np.ndarray, caps: np.ndarray,
        simd: Optional[str] = None,
        seed_ranks: Optional[np.ndarray] = None,
    ) -> Callable[[], Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Error-feedback add and candidate scan in one sweep, as a call to
        make later, on any thread: everything is checked and allocated here,
        the call runs the kernel (GIL released) on these buffers alone.

        In place, ``store += addend`` — or, with ``velocity``, ``velocity =
        momentum * velocity + addend; store += velocity``.  ``store`` and
        ``velocity`` are contiguous writable ``float64`` vectors; ``addend``
        is read only and copied first when it is not contiguous ``float64``.

        ``bounds`` (``int64``) holds the ascending edges ``0 .. len(store)``
        of the blocks; ``cuts`` (``float64``) and ``caps`` (``int64``) hold
        one entry per block.  The sweep collects per block the indices (into
        ``store``) whose new ``|store|`` reaches the block's cut, with those
        magnitudes, and returns ``(counts, indices, magnitudes)``: the
        blocks' candidates back to back in index order, ``counts[block]`` of
        them per block — ``-1`` for a block that more than ``caps[block]``
        entries reached (its candidates were dropped, not its add).  A NaN
        cut is reached by nothing — unless ``seed_ranks`` (``int64``, one
        per block) holds a positive rank for that block: the sweep then
        first *seeds* the cut, the magnitude of that rank in a sample of
        the values it is about to produce
        (:func:`repro.sparse.topk.seed_cut` is the reference), writes it to
        ``cuts[block]`` and scans against it; a sample whose magnitude at
        that rank is not positive leaves the NaN.  ``simd`` names a variant
        other than :attr:`simd` to run (the tests compare them all); one
        this CPU lacks raises ``ValueError``.
        """
        n = store.shape[0]
        addend = _contiguous(np.asarray(addend, dtype=np.float64))
        operands = [store, addend] if velocity is None else [store, addend, velocity]
        if any(a.dtype != np.float64 or a.shape != (n,) for a in operands):
            raise ValueError("accumulate_scan needs float64 vectors of one length")
        if not all(a.flags.c_contiguous and a.flags.writeable
                   for a in operands if a is not addend):
            raise ValueError("store and velocity must be contiguous and writable")
        blocks = bounds.shape[0] - 1
        if (bounds.dtype != np.int64 or cuts.dtype != np.float64
                or caps.dtype != np.int64 or blocks < 1
                or cuts.shape != (blocks,) or caps.shape != (blocks,)
                or bounds[0] != 0 or bounds[-1] != n
                or (np.diff(bounds) < 0).any() or (caps < 0).any()):
            raise ValueError("bounds must rise from 0 to len(store); cuts and "
                             "non-negative caps hold one entry per block")
        bounds, caps = _contiguous(bounds), _contiguous(caps)
        sample = None
        if seed_ranks is None:
            cuts = _contiguous(cuts)
        else:
            if (seed_ranks.dtype != np.int64 or seed_ranks.shape != (blocks,)
                    or not (cuts.flags.c_contiguous and cuts.flags.writeable)):
                raise ValueError("seeding needs one int64 rank per block and "
                                 "contiguous writable cuts")
            seed_ranks = _contiguous(seed_ranks)
            longest = int(np.diff(bounds).max())
            sample = np.empty(min(longest, max(longest // SEED_SHARE,
                                               SEED_MIN_RUNS * SEED_RUN)))
        capacity = int(caps.sum()) + SCAN_PAD * blocks
        indices = np.empty(capacity, dtype=np.int64)
        magnitudes = np.empty(capacity, dtype=np.float64)
        counts = np.empty(blocks, dtype=np.int64)
        arguments = (
            store.ctypes.data, addend.ctypes.data,
            None if velocity is None else velocity.ctypes.data, momentum,
            blocks, bounds.ctypes.data, cuts.ctypes.data, caps.ctypes.data,
            None if seed_ranks is None else seed_ranks.ctypes.data,
            None if sample is None else sample.ctypes.data,
            indices.ctypes.data, magnitudes.ctypes.data, counts.ctypes.data,
            0 if simd is None else SIMD_LANES[simd])

        def sweep() -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
            if self._accumulate_scan(*arguments):
                raise ValueError(f"this CPU does not run the {simd} variant")
            found = int(np.maximum(counts, 0).sum())
            return counts, indices[:found], magnitudes[:found]

        # What the raw pointers point at (some are copies made above) must
        # live as long as the call can be made.
        sweep.operands = store, addend, velocity, bounds, cuts, caps, seed_ranks, sample
        return sweep

    def segmented_top_k(self, magnitude: np.ndarray, offsets: np.ndarray,
                        ks: np.ndarray, reaches: Optional[np.ndarray],
                        keep: np.ndarray, cuts: np.ndarray,
                        reached: np.ndarray) -> None:
        """The scalar-quickselect leg of
        :func:`repro.sparse.topk.segmented_top_k`, which owns the contract
        and the arrays: ``magnitude`` (contiguous ``float64``) in segments
        ``offsets`` (``int64``); for every segment with ``ks[s] >= 0`` the
        kept entries are set in ``keep`` (``bool``, zero-initialised) and
        ``cuts[s]`` / ``reached[s]`` are written.  Segments with a negative
        ``ks[s]`` are not touched."""
        lengths = np.diff(offsets)[ks >= 0]
        scratch = np.empty(int(lengths.max(initial=0)), dtype=np.float64)
        self._segmented_top_k(
            ks.shape[0], offsets.ctypes.data, ks.ctypes.data,
            None if reaches is None else reaches.ctypes.data,
            magnitude.ctypes.data, scratch.ctypes.data,
            keep.ctypes.data, cuts.ctypes.data, reached.ctypes.data)


    def top_k_split(self, indices: np.ndarray, values: np.ndarray,
                    offsets: np.ndarray, ks: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Segmented top-k of a COO stream and the split it decides, in one
        call: entries ``offsets[s]:offsets[s + 1]`` keep their ``ks[s]``
        largest magnitudes (the selection of
        :func:`repro.sparse.topk.segmented_top_k` on ``abs(values)``).
        Returns ``(kept indices, kept values, other indices, other
        values)``, each in order."""
        indices, values = _contiguous(indices), _contiguous(values)
        offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        ks = np.maximum(ks, 0, dtype=np.int64)
        n, segments = indices.shape[0], ks.shape[0]
        # Outputs and scratch, laid out as top_k_split_i64_f64 documents.
        fwork = np.empty(4 * n + segments + (n + 7) // 8, dtype=np.float64)
        iwork = np.empty(2 * n + segments, dtype=np.int64)
        kept = self._top_k_split(
            segments, offsets.ctypes.data, ks.ctypes.data,
            indices.ctypes.data, values.ctypes.data,
            fwork.ctypes.data, iwork.ctypes.data)
        return (iwork[:kept], fwork[2 * n:2 * n + kept],
                iwork[n:2 * n - kept], fwork[3 * n:4 * n - kept])

    def take_rows(self, rows: Sequence[np.ndarray], indices: np.ndarray,
                  out: np.ndarray) -> None:
        """The compiled leg of
        :meth:`repro.core.residuals.ResidualManager.take_rows`: row ``r`` of
        ``indices`` (``int64``, unique within the row) is gathered from
        ``rows[r]`` into ``out[r]`` and zeroed there, all in one call; an
        index outside the rows raises ``IndexError`` before anything is
        written."""
        length = rows[0].shape[0] if rows else 0
        if (indices.dtype != np.int64 or indices.ndim != 2 or out.dtype != np.float64
                or out.shape != indices.shape or indices.shape[0] != len(rows)
                or not out.flags.c_contiguous or not all(
                    row.dtype == np.float64 and row.shape == (length,)
                    and row.flags.c_contiguous and row.flags.writeable for row in rows)):
            raise ValueError("take_rows needs one writable float64 vector and one "
                             "int64 row of indices per rank, and a matching output")
        indices = _contiguous(indices)
        pointers = np.array([row.ctypes.data for row in rows], dtype=np.uintp)
        if self._take_rows(indices.shape[0], indices.shape[1], pointers.ctypes.data,
                           indices.ctypes.data, length, out.ctypes.data):
            raise IndexError("an index lies outside the rows")

    def srs_round(self, sent: int, held: Tuple[np.ndarray, np.ndarray, np.ndarray],
                  inbox: Sequence[Optional[Tuple[np.ndarray, np.ndarray]]],
                  in_bounds: np.ndarray, targets: np.ndarray, ks: np.ndarray,
                  rows: Optional[Sequence[np.ndarray]] = None, defer: bool = False):
        """One transmission step of Spar-Reduce-Scatter for every rank, in
        one call: :func:`repro.core.srs.srs_round` owns the contract (and
        :func:`repro.core.srs.srs_round_numpy` is the NumPy statement of
        it).  Everything the kernel reads through a pointer is checked here:
        dtypes, shapes, contiguity, the offsets against the buffers and the
        inbox bounds against the payloads; an index outside the rows raises
        ``ValueError`` from the kernel's return code.  Returns what
        :func:`~repro.core.srs.srs_round` returns."""
        offsets, indices, values = held
        ranks, slots, buckets = ks.shape
        cells = ranks * (sent + slots) * buckets
        offsets = _contiguous(offsets)
        indices, values = _contiguous(indices), _contiguous(values)
        if (offsets.dtype != np.int64 or offsets.shape != (cells + 1,)
                or indices.dtype != np.int64 or values.dtype != np.float64
                or indices.shape != values.shape or offsets[0] < 0
                or offsets[-1] > indices.shape[0] or (np.diff(offsets) < 0).any()):
            raise ValueError("held offsets must rise through the held buffers, "
                             "one per (rank, slot, bucket) and one more")
        if (ks.dtype != np.int64 or targets.shape != (ranks, slots)
                or in_bounds.dtype != np.int64
                or in_bounds.shape != (ranks, slots, buckets, 2)
                or len(inbox) != ranks or (ks[targets.astype(bool)] <= 0).any()):
            raise ValueError("inbox bounds, targets and positive budgets must "
                             "match (rank, slot, bucket)")
        pointers = np.zeros(2 * ranks, dtype=np.uintp)
        sizes = np.zeros(ranks, dtype=np.int64)
        payloads = []
        for rank, box in enumerate(inbox):
            if box is None:
                continue
            box_indices, box_values = _contiguous(box[0]), _contiguous(box[1])
            if (box_indices.dtype != np.int64 or box_values.dtype != np.float64
                    or box_indices.shape != box_values.shape):
                raise ValueError("a payload must be int64 indices and float64 values")
            payloads += [box_indices, box_values]
            pointers[2 * rank:2 * rank + 2] = (box_indices.ctypes.data,
                                               box_values.ctypes.data)
            sizes[rank] = box_indices.shape[0]
        lo, hi = in_bounds[..., 0], in_bounds[..., 1]
        if ((lo < 0) | (hi < lo) | (hi > sizes[:, None, None])).any():
            raise ValueError("inbox bounds must lie inside the payloads")
        length, row_pointers = 0, None
        if rows is not None:
            length = rows[0].shape[0] if rows else 0
            if len(rows) != ranks or not all(
                    row.dtype == np.float64 and row.shape == (length,)
                    and row.flags.c_contiguous and row.flags.writeable for row in rows):
                raise ValueError("rows must be one writable float64 vector per rank")
            row_pointers = np.array([row.ctypes.data for row in rows], dtype=np.uintp)
        held_lengths = np.diff(offsets).reshape(ranks, sent + slots, buckets)[:, sent:]
        merged = held_lengths + (hi - lo)
        capacity, longest = int(merged.sum()), int(merged.max(initial=0))
        out_offsets = np.empty(ranks * slots * buckets + 1, dtype=np.int64)
        out_indices = np.empty(capacity, dtype=np.int64)
        out_values = np.empty(capacity)
        drops = None
        if defer:  # (offsets per rank, indices, values)
            drops = (np.empty(ranks + 1, dtype=np.int64),
                     np.empty(capacity, dtype=np.int64), np.empty(capacity))
        fwork = np.empty(2 * longest)
        keep = np.empty(longest, dtype=np.uint8)
        targets = np.ascontiguousarray(targets, dtype=np.uint8)
        ks, in_bounds = _contiguous(ks), _contiguous(in_bounds)
        count = self._srs_round(
            ranks, sent, slots, buckets,
            offsets.ctypes.data, indices.ctypes.data, values.ctypes.data,
            pointers.ctypes.data, in_bounds.ctypes.data, targets.ctypes.data,
            ks.ctypes.data, None if row_pointers is None else row_pointers.ctypes.data,
            out_offsets.ctypes.data, out_indices.ctypes.data, out_values.ctypes.data,
            *((None,) * 3 if drops is None else (array.ctypes.data for array in drops)),
            fwork.ctypes.data, keep.ctypes.data, length)
        if count < 0:
            raise ValueError("a dropped index lies outside the rows")
        if drops is not None:
            dropped = drops[0][-1]
            drops = (drops[0], drops[1][:dropped], drops[2][:dropped])
        return out_offsets, out_indices[:count], out_values[:count], drops

    def im2col(self, images: np.ndarray, kernel_h: int, kernel_w: int,
               stride: int, padding: int, out_h: int, out_w: int) -> np.ndarray:
        """:func:`repro.nn.conv.im2col` of an image of any strides, read as
        ``float64``, into a new C-contiguous matrix; ``out_h`` / ``out_w``
        are the (positive) output sizes the caller checked.  Every read is
        bounds-checked against the image."""
        images = np.asarray(images, dtype=np.float64)
        if any(step % 8 for step in images.strides):
            images = np.ascontiguousarray(images)
        n, c, h, w = images.shape
        columns = np.empty((n * out_h * out_w, c * kernel_h * kernel_w))
        self._im2col(images.ctypes.data, n, c, h, w,
                     *(step // 8 for step in images.strides),
                     kernel_h, kernel_w, stride, padding, out_h, out_w,
                     columns.ctypes.data)
        return columns

    def col2im(self, columns: np.ndarray, padded_shape: Tuple[int, int, int, int],
               kernel_h: int, kernel_w: int, stride: int,
               out_h: int, out_w: int) -> np.ndarray:
        """The fold of :func:`repro.nn.conv.col2im` before cropping: the new
        zero-initialised ``padded_shape`` image every column entry (read as
        ``float64``) is added into, in the NumPy statement's order."""
        n, c, padded_h, padded_w = padded_shape
        if not (0 < out_h and (out_h - 1) * stride + kernel_h <= padded_h
                and 0 < out_w and (out_w - 1) * stride + kernel_w <= padded_w):
            raise ValueError("the output positions must fit the padded image")
        columns = _contiguous(np.asarray(columns, dtype=np.float64).reshape(
            n * out_h * out_w, c * kernel_h * kernel_w))
        padded = np.zeros(padded_shape)
        self._col2im(columns.ctypes.data, n, c, padded_h, padded_w,
                     kernel_h, kernel_w, stride, out_h, out_w, padded.ctypes.data)
        return padded


def _cache_path(source: str, compiler: str) -> Optional[Path]:
    """``.so`` path in a private per-user cache directory, addressed by the
    source, the compiler and the flags it is built with.

    A world-writable location (e.g. the shared temp dir) would let another
    local user pre-plant a malicious library at the predictable path, so the
    cache lives under ``$XDG_CACHE_HOME`` / ``~/.cache`` with mode 0700.
    Returns ``None`` when no such directory can be prepared (the caller then
    compiles into a throwaway directory instead of caching).
    """
    recipe = "\0".join((compiler, *_FLAGS, source))
    digest = hashlib.sha256(recipe.encode()).hexdigest()[:16]
    base = os.environ.get("XDG_CACHE_HOME") or (Path.home() / ".cache")
    cache_dir = Path(base) / "repro-merge-kernels"
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        cache_dir.chmod(0o700)
    except OSError:
        return None
    return cache_dir / f"merge_kernels_{digest}.so"


def _load(path: Path) -> Optional[CMergeKernels]:
    try:
        return CMergeKernels(ctypes.CDLL(str(path)))
    except (OSError, AttributeError):
        return None


def load_merge_kernels() -> Optional[CMergeKernels]:
    """Compile (once per user, source version, compiler and flags) and load
    the C kernels; ``None`` on any failure."""
    if os.environ.get("REPRO_DISABLE_CKERNELS"):
        return None
    try:
        source = _SOURCE.read_text()
    except OSError:
        return None
    compiler = os.environ.get("CC", "cc")
    cached = _cache_path(source, compiler)
    if cached is not None and cached.exists():
        try:
            if cached.stat().st_uid != os.getuid():
                return None
        except (OSError, AttributeError):  # no getuid on some platforms
            return None
        return _load(cached)
    try:
        with tempfile.TemporaryDirectory(
            dir=cached.parent if cached is not None else None
        ) as tmp:
            tmp_so = Path(tmp) / "merge_kernels.so"
            subprocess.run(
                [compiler, *_FLAGS, "-o", str(tmp_so), str(_SOURCE)],
                check=True, capture_output=True, timeout=120,
            )
            if cached is not None:
                os.replace(tmp_so, cached)
                return _load(cached)
            # No cache available: load from the throwaway dir (the dynamic
            # loader keeps the mapping alive after the file is removed).
            return _load(tmp_so)
    except (OSError, subprocess.SubprocessError):
        return None


#: The kernels of this process, probed on first use so that importing the
#: package never blocks on a ``cc`` subprocess.  ``None`` means the NumPy
#: fallback kernels; the sentinel means "not probed yet".
_UNPROBED = object()
_KERNELS = _UNPROBED


def get_kernels() -> Optional[CMergeKernels]:
    """The compiled kernels, loaded once per process (``None`` when
    unavailable or disabled through ``REPRO_DISABLE_CKERNELS``)."""
    global _KERNELS
    if _KERNELS is _UNPROBED:
        _KERNELS = load_merge_kernels()
    return _KERNELS
