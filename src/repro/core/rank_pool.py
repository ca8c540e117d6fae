"""The process-wide rank pool: the per-rank tasks of one step, side by side.

One long-lived thread per CPU of ``os.sched_getaffinity(0)``, each pinned to
its CPU — unpinned, the scheduler leaves threads woken for a few milliseconds
on the waker's CPU and nothing overlaps.  Built by the first :func:`run` that
can use it, never at import; a forked child forgets the inherited pool (its
threads did not come along) and builds its own.  With one CPU in the mask, or
no ``sched_setaffinity``, there is no thread: the same chunks run through the
builtin ``map`` on the calling thread.  Tasks overlap where they drop the GIL
(NumPy ufuncs and matrix products, ``ctypes.CDLL`` calls) and must share no
state they write.  A task must not itself call :func:`run`: a lane is one
thread, and it would wait on itself.

While more than one thread runs tasks, the OpenBLAS that NumPy loaded is held
at one thread of its own: every lane already occupies a CPU, and a product
that fans out over OpenBLAS's threads as well oversubscribes them (four
case-1 trainer replicas side by side took 2-3x *longer* that way than one
after another on a 2-core host, and ~0.6x as long on one BLAS thread).  The
previous count comes back when :func:`run` returns or raises.  Where no
OpenBLAS is mapped, BLAS is left alone.  :func:`set_blas_threads` sets the
count for good: a process that is one rank of several on the same CPUs (an
``mp`` worker) takes its share of them.
"""

from __future__ import annotations

import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

__all__ = ["run", "set_blas_threads"]

T = TypeVar("T")

#: One single-thread executor per CPU (``None``: mask not read yet; empty:
#: one CPU, nothing to run side by side on).
_LANES: Optional[List[ThreadPoolExecutor]] = None

#: ``(get, set)`` of the loaded OpenBLAS's thread count (``None``: not looked
#: up yet; ``()``: no OpenBLAS mapped).
_BLAS: Optional[tuple] = None

#: The thread-count entry points, NumPy's bundled ``scipy-openblas`` build
#: first, then a plain OpenBLAS.
_BLAS_SYMBOLS = (("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
                 ("openblas_get_num_threads", "openblas_set_num_threads"))

#: Held from the BLAS count's save to its restore: two overlapping runs
#: (two calling threads) must not restore each other's one thread.  A
#: forked child gets a fresh one with its fresh pool.
_DISPATCH = threading.Lock()


def _forget_lanes() -> None:
    global _LANES, _DISPATCH
    _LANES, _DISPATCH = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_lanes)


def _lanes() -> List[ThreadPoolExecutor]:
    global _LANES
    if _LANES is None:
        pin = getattr(os, "sched_setaffinity", None)
        cpus = sorted(os.sched_getaffinity(0)) if pin else []
        _LANES = [ThreadPoolExecutor(1, f"rank-pool-cpu{cpu}", pin, (0, {cpu}))
                  for cpu in cpus] if len(cpus) > 1 else []
    return _LANES


def _find_openblas() -> tuple:
    """``(get, set)`` of the thread count of an OpenBLAS this process has
    mapped — NumPy's own (``numpy.libs/``) before any other — or ``()``.
    Read off ``/proc/self/maps``: the path ``numpy.show_config()`` reports
    is where the wheel was built, not where it is installed."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {fields[5] for fields in (line.rstrip("\n").split(maxsplit=5)
                                              for line in maps)
                     if len(fields) == 6 and "openblas" in os.path.basename(fields[5])}
    except OSError:
        return ()
    for path in sorted(paths, key=lambda path: ("numpy" not in path, path)):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _BLAS_SYMBOLS:
            if hasattr(library, get_name) and hasattr(library, set_name):
                get, set_ = getattr(library, get_name), getattr(library, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return ()


def _blas() -> tuple:
    global _BLAS
    if _BLAS is None:
        _BLAS = _find_openblas()
    return _BLAS


def set_blas_threads(threads: int) -> None:
    """Run the OpenBLAS this process has mapped on ``threads`` threads from
    now on (nothing where no OpenBLAS is mapped)."""
    blas = _blas()
    if blas:
        blas[1](threads)


def _run_chunk(tasks: Sequence[Callable[[], T]]) -> List[T]:
    return [task() for task in tasks]


def run(tasks: Sequence[Callable[[], T]]) -> Tuple[List[T], int]:
    """Call every task: contiguous chunks, one hand-off per thread, the same
    tasks on the same CPU every time.  Returns ``(results in task order,
    threads used)`` — 1: the calling thread.  A task's exception (the first
    in task order) is raised once no task is running any more."""
    lanes = _lanes() if len(tasks) > 1 else []
    width = min(len(lanes), len(tasks)) or 1
    edges = [len(tasks) * lane // width for lane in range(width + 1)]
    chunks = [tasks[lo:hi] for lo, hi in zip(edges, edges[1:])]
    if width == 1:
        done = map(_run_chunk, chunks)
    else:
        blas = _blas()
        with _DISPATCH:
            threads = blas[0]() if blas else 0
            if threads > 1:
                blas[1](1)
            try:
                futures = [lane.submit(_run_chunk, chunk)
                           for lane, chunk in zip(lanes, chunks)]
                wait(futures)
            finally:
                if threads > 1:
                    blas[1](threads)
        done = (future.result() for future in futures)
    return [result for chunk in done for result in chunk], width
