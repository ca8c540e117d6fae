"""Loader for the optional compiled kernels.

``_merge_kernels.c`` (the COO merges, the fused accumulate + candidate scan
and the segmented top-k) is compiled once per machine into a shared object in a private
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
        self._merge_add = lib.merge_add_i64_f64
        self._merge_add.restype = _I64
        self._merge_add.argtypes = [_I64, _PTR, _PTR, _I64, _PTR, _PTR, _PTR, _PTR]
        merge_many_argtypes = [_I64, _PTR, _PTR, _PTR, _PTR, _PTR]
        #: Reference O(total * streams) head-scan kernel, kept callable for
        #: the perf-regression benchmark (bench_merge_tree.py).
        self._merge_many_headscan = lib.merge_many_i64_f64
        self._merge_many_headscan.restype = _I64
        self._merge_many_headscan.argtypes = merge_many_argtypes
        #: Production O(total * log streams) tournament-tree kernel.
        self._merge_many_tournament = lib.merge_many_tournament_i64_f64
        self._merge_many_tournament.restype = _I64
        self._merge_many_tournament.argtypes = merge_many_argtypes
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
        lib.accumulate_scan_lanes.restype = _I64
        lib.accumulate_scan_lanes.argtypes = []
        widest = lib.accumulate_scan_lanes()
        #: Variant :meth:`accumulate_scan` runs on this machine (the widest
        #: the CPU supports): ``"avx512f"``, ``"avx2"`` or ``"scalar"``.
        self.simd: str = next(name for name, lanes in SIMD_LANES.items()
                              if lanes == widest)

    def merge_add(self, a_indices: np.ndarray, a_values: np.ndarray,
                  b_indices: np.ndarray, b_values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        # The kernel reads raw data pointers; a strided view (legal input at
        # the SparseGradient API boundary) must be compacted first.
        a_indices, a_values = _contiguous(a_indices), _contiguous(a_values)
        b_indices, b_values = _contiguous(b_indices), _contiguous(b_values)
        na, nb = a_indices.shape[0], b_indices.shape[0]
        out_indices = np.empty(na + nb, dtype=np.int64)
        out_values = np.empty(na + nb, dtype=np.float64)
        count = self._merge_add(
            na, a_indices.ctypes.data, a_values.ctypes.data,
            nb, b_indices.ctypes.data, b_values.ctypes.data,
            out_indices.ctypes.data, out_values.ctypes.data,
        )
        return out_indices[:count], out_values[:count]

    def merge_many(self, index_streams: Sequence[np.ndarray],
                   value_streams: Sequence[np.ndarray],
                   impl: str = "tournament") -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """K-way merge; returns ``None`` when the stream count exceeds the
        compiled kernel's capacity (callers then fall back).

        ``impl`` selects the kernel: ``"tournament"`` (default, the
        O(total * log streams) winner tree) or ``"headscan"`` (the reference
        O(total * streams) scan, kept for the perf-regression benchmark).
        Both produce bit-identical output.
        """
        kernel = (self._merge_many_tournament if impl == "tournament"
                  else self._merge_many_headscan)
        k = len(index_streams)
        if k > MAX_STREAMS:
            return None
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
        count = kernel(
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
