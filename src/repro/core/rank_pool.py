"""The process-wide rank pool: the per-rank tasks of one step, side by side.

One long-lived thread per CPU of ``os.sched_getaffinity(0)``, each pinned to
its CPU — unpinned, the scheduler leaves threads woken for a few milliseconds
on the waker's CPU and nothing overlaps.  Built by the first :func:`run` that
can use it, never at import; a forked child forgets the inherited pool (its
threads did not come along) and builds its own.  With one CPU in the mask, or
no ``sched_setaffinity``, there is no thread: the same chunks run through the
builtin ``map`` on the calling thread.  Tasks overlap where they drop the GIL
(NumPy ufuncs, ``ctypes.CDLL`` calls) and must share no state they write.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

__all__ = ["run"]

T = TypeVar("T")

#: One single-thread executor per CPU (``None``: mask not read yet; empty:
#: one CPU, nothing to run side by side on).
_LANES: Optional[List[ThreadPoolExecutor]] = None


def _forget_lanes() -> None:
    global _LANES
    _LANES = None


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
        futures = [lane.submit(_run_chunk, chunk)
                   for lane, chunk in zip(lanes, chunks)]
        wait(futures)
        done = (future.result() for future in futures)
    return [result for chunk in done for result in chunk], width
