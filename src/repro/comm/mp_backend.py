"""Multiprocess execution backend: a compute pool of real OS processes.

:class:`MultiprocessCluster` implements the
:class:`~repro.comm.transport.Transport` protocol with ``P`` persistent
worker processes, one per rank, each connected to the driver by a command
pipe.  The workers run the per-rank compute: a trainer's replicas do their
forward/backward passes and apply their updates there, through
:meth:`~MultiprocessCluster.run_workers`.  Synchronisation — SparDL's
Spar-Reduce-Scatter, Spar-All-Gather and residual collection, and every
baseline — runs in the driver through the inherited
:meth:`Transport.exchange <repro.comm.transport.Transport.exchange>`,
exactly as on :class:`~repro.comm.cluster.SimulatedCluster`, so its
results and accounting equal the simulated reference's by construction.
``tests/test_backends.py`` checks this end to end for SparDL, all five
baselines and training.

What crosses the pipes, what lives in shared memory
----------------------------------------------------
Pipes carry *commands*: every driver → worker message is one pickled tuple
(``run`` with a function reference and its arguments, ``attach``,
``trace``, ``trace_drain``, ``stop``) and every reply echoes the op with
its result.  Dense per-rank state does not cross them:
:meth:`MultiprocessCluster.shared_array` backs a named ``float64`` array
with a temp file (``/dev/shm`` where it exists, the system temp dir
otherwise) that the driver maps, every worker opens *by path* and maps on
an ``attach`` command — which works under ``fork`` and ``spawn`` alike —
and the driver unlinks as soon as the last worker has replied.  From then
on the memory has no name: it cannot outlive the processes mapping it,
however they end, and nothing registers with ``multiprocessing``'s resource
tracker (a named ``shared_memory`` segment attached in a forked worker is
unlinked under the driver when that worker exits).  The mappings are
dropped in :meth:`~MultiprocessCluster.close` and
:meth:`~MultiprocessCluster.resize`.  The trainer keeps its ``(P, n)``
gradient and update arrays there, so a training iteration moves
a few hundred bytes through ``run`` commands.

Ordering contract
-----------------
No lock guards a shared array; the command protocol is the ordering.  A
worker reads and writes only between receiving a command and sending its
reply; the driver only between the last reply of one call and the first
command of the next.  A pipe write/read pair orders the memory accesses on
either side of it, so whatever one side wrote before its message is what
the other side reads after receiving it.

What this backend does *not* model
----------------------------------
Nothing of the message layer is backend-specific: messages arrive priced
by their senders, and fault plans (drops, delays, retries, lost messages)
act in the inherited :meth:`~repro.comm.transport.Transport.exchange`, so a
faulted synchronisation here equals the simulated one bit for bit.
Stragglers and :class:`~repro.comm.network.HeterogeneousNetwork` timing
price the recorded :class:`~repro.comm.stats.CommStats` in
:mod:`repro.training.timing`, whichever backend recorded them.  Membership
events of a synchroniser driven on its own (``SyncSession``) restart the
worker pool through :meth:`~MultiprocessCluster.resize`.  What is not
modelled yet is churn *during training*: the trainer keeps its replicas
and shared arrays in the pool, and re-installing them after a restart is
open work.

Failure containment
-------------------
Every driver-side wait watches the reply pipe *and* every worker's process
sentinel.  A worker that died — the one awaited or any other — fails the
call within milliseconds with a :class:`RuntimeError` naming the dead rank
and its exit code; a live worker that stops replying (a hung task, a
stopped process) fails it at the hard timeout (default 120 s).  Either way
the remaining processes are killed and the cluster is closed, so nothing
upstream hangs and CI jobs fail fast.  A worker *task* that raises is
reported with its traceback and closes the cluster the orderly way.

Kernel-path propagation
-----------------------
Workers must exercise the same sparse-kernel path as the parent: the
bootstrap forwards ``REPRO_DISABLE_CKERNELS`` into every worker's
environment *before* it touches :mod:`repro.sparse`, each worker reports
whether the compiled C kernels actually loaded, and a mismatch with the
parent (e.g. a worker that cannot compile what the parent could) aborts
construction loudly rather than letting half the cluster fall back to the
NumPy kernels unnoticed.

BLAS threads
------------
The ``P`` workers share the driver's CPU affinity mask, so the bootstrap
runs each worker's OpenBLAS on ``max(1, cpus // P)`` threads
(:func:`repro.core.rank_pool.set_blas_threads`), whatever
``OPENBLAS_NUM_THREADS`` says.  At OpenBLAS's default, a thread per CPU in
every worker, the workers' matrix products oversubscribe the CPUs.
"""

from __future__ import annotations

import mmap
import multiprocessing
import os
import tempfile
import time
import traceback
from multiprocessing.connection import Connection, wait as connection_wait
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..obs.trace import worker_pid
from .transport import Transport, make_worker_context

__all__ = ["MultiprocessCluster"]

#: Environment variable controlling the compiled-kernel path; forwarded
#: verbatim into every worker process.
_CKERNELS_ENV = "REPRO_DISABLE_CKERNELS"

#: Name prefix of the backing file of a shared array.  The file exists only
#: from its creation until every worker has attached it.
_SHARED_PREFIX = "repro-mp-"


# ---------------------------------------------------------------------------
# framing and mappings (driver and worker side)
# ---------------------------------------------------------------------------
def _send_frame(connection: Connection, message: tuple) -> int:
    """``connection.send(message)`` — the same pickle, the same wire —
    returning the number of bytes that crossed the pipe."""
    frame = ForkingPickler.dumps(message)
    connection.send_bytes(frame)
    return len(frame)


def _recv_frame(connection: Connection) -> Tuple[tuple, int]:
    """``connection.recv()`` plus the size of the frame it arrived in."""
    frame = connection.recv_bytes()
    return ForkingPickler.loads(frame), len(frame)


def _map_array(fd: int, shape: Tuple[int, ...]) -> np.ndarray:
    """A ``float64`` array over a shared mapping of the open file ``fd``.
    The array keeps the mapping alive; dropping the array unmaps it."""
    return np.ndarray(shape, dtype=np.float64,
                      buffer=mmap.mmap(fd, _mapping_bytes(shape)))


def _mapping_bytes(shape: Tuple[int, ...]) -> int:
    """Size of the mapping behind a shared array (never zero: an empty
    file cannot be mapped)."""
    return max(1, 8 * int(np.prod(shape)))


def _create_backing_file(nbytes: int) -> Tuple[int, str]:
    """Create and size the backing file of one shared array: in
    ``/dev/shm`` (memory-backed) where the platform has it, in the system
    temp dir otherwise or when ``/dev/shm`` is full.  Reserving the blocks
    up front turns a full file system into an ``OSError`` here instead of a
    ``SIGBUS`` at the first write."""
    failure: OSError = FileNotFoundError("no directory to back a shared array")
    for directory in ("/dev/shm", tempfile.gettempdir()):
        if not os.path.isdir(directory):
            continue
        try:
            fd, path = tempfile.mkstemp(prefix=_SHARED_PREFIX, dir=directory)
        except OSError as error:
            failure = error
            continue
        try:
            if hasattr(os, "posix_fallocate"):
                os.posix_fallocate(fd, 0, nbytes)
            else:  # pragma: no cover - platforms without it
                os.ftruncate(fd, nbytes)
            return fd, path
        except OSError as error:
            failure = error
            os.close(fd)
            os.unlink(path)
    raise failure


# ---------------------------------------------------------------------------
# worker process
# ---------------------------------------------------------------------------
def _worker_main(rank: int, seed: int, command: Connection,
                 bootstrap: Dict[str, Any]) -> None:
    """Entry point of one worker process.

    The worker serves commands from the driver until ``stop``:

    ``("run", fn, args)``
        Executes ``fn(context, rank, *args)`` against this worker's
        persistent context (see
        :meth:`~repro.comm.transport.Transport.run_workers`).
    ``("attach", key, path, shape)``
        Maps the file at ``path`` and publishes it as
        ``context["shared"][key]`` (see
        :meth:`~repro.comm.transport.Transport.shared_array`).  The file is
        opened by path, so it works under ``fork`` and ``spawn`` alike; the
        driver unlinks it once every worker has replied.
    ``("trace", enabled)``
        Toggles worker-side span recording.  While enabled, every ``run``
        is timed on the worker's own ``perf_counter`` clock into a local
        buffer, with the bytes of its request and reply frames; the reply
        carries the worker's current clock reading so the driver can shift
        the stream onto the tracer's clock.
    ``("trace_drain",)``
        Returns (and clears) the buffered span stream.

    A reply echoes the op of its request.  Any exception is reported back
    as ``("error", ...)`` with the full traceback; the driver raises it and
    tears the cluster down.
    """
    # Kernel-path propagation: align the environment BEFORE repro.sparse is
    # (re-)imported, so a spawn-started worker probes the same kernel path
    # as the parent.  (A fork-started worker inherits the parent's already
    # probed module state; setting the variable is then a no-op.)
    disable = bootstrap.get("disable_ckernels", "")
    if disable:
        os.environ[_CKERNELS_ENV] = disable
    else:
        os.environ.pop(_CKERNELS_ENV, None)
    from ..sparse.vector import compiled_kernels_available
    from ..core import rank_pool

    # The workers share the driver's CPUs (see "BLAS threads" above).
    rank_pool.set_blas_threads(bootstrap["blas_threads"])
    context = make_worker_context(rank, seed, {})
    tracing = False
    trace_events: List[Dict[str, Any]] = []
    _send_frame(command, ("ready", compiled_kernels_available(), os.getpid()))
    try:
        while True:
            request, request_bytes = _recv_frame(command)
            op = request[0]
            try:
                if op == "stop":
                    break
                elif op == "run":
                    _, fn, args = request
                    start = time.perf_counter()
                    result = fn(context, rank, *args)
                    elapsed = time.perf_counter() - start
                    reply_bytes = _send_frame(command, (op, result))
                    if tracing:
                        trace_events.append(
                            {"name": f"run:{getattr(fn, '__name__', 'task')}",
                             "cat": "worker", "ph": "X", "ts": start,
                             "dur": elapsed,
                             "args": {"args_bytes": request_bytes,
                                      "reply_bytes": reply_bytes}})
                elif op == "attach":
                    _, key, path, shape = request
                    fd = os.open(path, os.O_RDWR)
                    try:
                        context["shared"][key] = _map_array(fd, shape)
                    finally:
                        os.close(fd)
                    _send_frame(command, (op,))
                elif op == "trace":
                    tracing = bool(request[1])
                    trace_events = []
                    _send_frame(command, (op, time.perf_counter()))
                elif op == "trace_drain":
                    _send_frame(command, (op, trace_events))
                    trace_events = []
                else:  # pragma: no cover - protocol violation
                    raise RuntimeError(f"unknown worker command {op!r}")
            except Exception:  # noqa: BLE001 - forwarded to the driver
                _send_frame(command, ("error", rank, traceback.format_exc()))
    except (EOFError, OSError):  # pragma: no cover - driver went away
        pass


class MultiprocessCluster(Transport):
    """``P`` workers as real OS processes, one command pipe each.

    Parameters
    ----------
    num_workers:
        Number of worker processes (ranks ``0..P-1``).
    seed:
        Root of the per-rank ``seed_sequence`` streams handed to
        :meth:`~repro.comm.transport.Transport.run_workers` tasks
        (identical spawns on every backend).
    start_method:
        ``multiprocessing`` start method; defaults to ``fork`` where
        available (cheap, inherits the parent's kernel state) and ``spawn``
        elsewhere.  Both propagate the kernel path (see module docstring).
    timeout:
        Hard per-wait timeout in seconds for every driver-side receive; a
        live worker missing the deadline fails the call and tears the
        cluster down instead of hanging the caller.  (A *dead* worker is
        noticed at once, through its process sentinel.)
    """

    spec_name = "mp"

    def __init__(self, num_workers: int, *, seed: int = 0,
                 start_method: Optional[str] = None,
                 timeout: float = 120.0) -> None:
        super().__init__(num_workers, seed=seed)
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        self._timeout = float(timeout)
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._mp_context = multiprocessing.get_context(start_method)
        self._processes: List[multiprocessing.Process] = []
        self._commands: List[Connection] = []
        self._closed = False
        self._worker_tracing = False
        # rank -> (driver clock µs, worker perf_counter s) at trace enable;
        # the pair aligns each worker's span stream to the tracer's clock.
        self._trace_anchor: Dict[int, Tuple[float, float]] = {}
        self._start_workers()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _start_workers(self) -> None:
        ctx = self._mp_context
        P = self._num_workers
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        bootstrap = {"disable_ckernels": os.environ.get(_CKERNELS_ENV, ""),
                     "blas_threads": max(1, cpus // P)}
        self._processes = []
        self._commands = []
        for rank in range(P):
            parent_end, worker_end = ctx.Pipe(duplex=True)
            process = ctx.Process(
                target=_worker_main,
                args=(rank, self._seed, worker_end, bootstrap),
                name=f"repro-mp-worker-{rank}",
                daemon=True,
            )
            process.start()
            worker_end.close()
            self._processes.append(process)
            self._commands.append(parent_end)
        self._closed = False
        # Bootstrap handshake: every worker reports its kernel path; a
        # mismatch with the parent would silently split the cluster across
        # kernel implementations, so it aborts construction instead.
        from ..sparse.vector import compiled_kernels_available
        parent_kernels = compiled_kernels_available()
        for rank in range(P):
            worker_kernels = self._receive(rank, "ready")[1]
            if worker_kernels != parent_kernels:
                self.close()
                raise RuntimeError(
                    f"worker {rank} loaded "
                    f"{'compiled' if worker_kernels else 'NumPy-fallback'} "
                    f"sparse kernels but the parent runs "
                    f"{'compiled' if parent_kernels else 'NumPy-fallback'} "
                    f"ones; the {_CKERNELS_ENV} environment and compiler "
                    "availability must agree between parent and workers")

    def close(self) -> None:
        """Stop the worker processes, close every pipe and drop the shared
        mappings (idempotent).

        With a tracer installed, the per-rank span streams are drained and
        merged into it first — this is where the workers' trace buffers
        become part of the single exported timeline.
        """
        self._shutdown(graceful=True)

    def _shutdown(self, graceful: bool) -> None:
        """Tear the cluster down.  ``graceful`` asks every worker to stop
        and waits for it; after a dead or stuck worker the processes are
        killed instead."""
        if self._closed:
            return
        if self._worker_tracing:
            # Flag off first: a failing drain receive ends up back in
            # close(), which must not recurse into another drain.
            self._worker_tracing = False
            if graceful:
                try:
                    self._drain_worker_traces()
                except Exception:  # pragma: no cover - best-effort teardown
                    pass
        self._closed = True
        if graceful:
            for connection in self._commands:
                try:
                    _send_frame(connection, ("stop",))
                except (OSError, ValueError):
                    pass
            for process in self._processes:
                process.join(timeout=5.0)
        for process in self._processes:
            if process.is_alive():
                process.kill()  # SIGKILL: a stopped process ignores SIGTERM
        for process in self._processes:
            process.join(timeout=5.0)
        for connection in self._commands:
            try:
                connection.close()
            except OSError:  # pragma: no cover - already closed
                pass
        self._commands = []
        self._processes = []
        # The backing files are long unlinked: dropping the arrays (here,
        # and wherever a caller still holds one) is what frees the memory.
        self._shared = {}
        self._publish_shared_bytes()

    def __del__(self) -> None:  # pragma: no cover - GC-timing dependent
        try:
            self.close()
        except Exception:
            pass

    def resize(self, num_workers: int) -> None:
        """Adopt a new worker count by restarting the worker pool.

        The processes are respawned for the new membership (per-rank
        contexts restart, exactly like the per-rank contexts of the
        simulated backend) and the statistics window resets to the new
        worker count.  Shared arrays do not survive: ask
        :meth:`shared_array` again for the new membership.  Everything
        :meth:`Transport.resize` refuses (undrained lost messages) raises
        before the pool is touched.
        """
        super().resize(num_workers)
        self.close()
        self._start_workers()
        if self._tracer is not None:
            self._set_worker_tracing(True)

    # ------------------------------------------------------------------
    # tracing: per-rank worker streams
    # ------------------------------------------------------------------
    def install_tracer(self, tracer: Optional[Any]) -> Optional[Any]:
        """Install a tracer and toggle worker-side span recording.

        In addition to the base-class admission events, every worker starts
        timing its ``run`` tasks on its own clock; the streams are pulled back (and aligned to the tracer's clock via the
        enable-time anchor) by :meth:`collect_traces` — registered as a
        tracer collector, so any export sees them — and finally at
        :meth:`close`.
        """
        previous = super().install_tracer(tracer)
        active = self._tracer
        if active is previous:
            return previous
        if self._closed:
            return previous
        if self._worker_tracing and active is None:
            self._set_worker_tracing(False)
        if active is not None:
            self._set_worker_tracing(True)
            active.add_collector(self.collect_traces)
            self._publish_shared_bytes()
        return previous

    def collect_traces(self) -> None:
        """Merge the workers' pending span streams into the tracer (no-op
        when tracing is off or the cluster is closed)."""
        if not self._closed and self._worker_tracing:
            self._drain_worker_traces()

    def _set_worker_tracing(self, enabled: bool) -> None:
        tracer = self._tracer
        self._trace_anchor = {}
        for rank in range(self._num_workers):
            self._send(rank, ("trace", enabled))
        for rank in range(self._num_workers):
            reply = self._receive(rank, "trace")
            if enabled and tracer is not None:
                self._trace_anchor[rank] = (tracer.now_us(), float(reply[1]))
        self._worker_tracing = enabled

    def _drain_worker_traces(self) -> None:
        """Best-effort drain of every worker's span buffer into the tracer.

        Deliberately avoids :meth:`_receive`: draining runs during teardown
        too, where a dead worker must degrade to a missing stream, not to
        recursive cluster shutdown.  Workers clear their buffer on drain,
        so repeated collection never duplicates events.
        """
        tracer = self._tracer
        if tracer is None or not self._trace_anchor:
            return
        deadline = min(self._timeout, 5.0)
        for rank in sorted(self._trace_anchor):
            if rank >= len(self._commands):
                break
            driver_us, worker_t = self._trace_anchor[rank]
            connection = self._commands[rank]
            try:
                _send_frame(connection, ("trace_drain",))
                if not connection.poll(deadline):
                    continue
                reply, _ = _recv_frame(connection)
            except (OSError, EOFError, ValueError):
                continue
            if not reply or reply[0] != "trace_drain":
                continue
            shifted = [dict(event,
                            ts=(event["ts"] - worker_t) * 1e6 + driver_us,
                            dur=event.get("dur", 0.0) * 1e6)
                       for event in reply[1]]
            tracer.merge_stream(worker_pid(rank), shifted,
                                name=f"mp worker {rank}")

    # ------------------------------------------------------------------
    # per-rank task execution
    # ------------------------------------------------------------------
    def run_workers(self, fn: Callable[..., Any],
                    args_by_rank: Optional[Mapping[int, tuple]] = None
                    ) -> Dict[int, Any]:
        """Execute ``fn(context, rank, *args)`` concurrently, one call per
        worker process.

        Semantics match the in-process implementation
        (:meth:`Transport.run_workers <repro.comm.transport.Transport.run_workers>`):
        persistent per-rank context with the same ``seed_sequence`` spawns,
        every rank checked before any is sent its task, results keyed by
        rank.  ``fn`` and its arguments cross a process boundary, so they
        must be picklable (``fn`` a module-level function).  The
        ``transport.run_workers_lanes`` gauge is the number of ranks
        dispatched.
        """
        self._ensure_open()
        targets = self._run_targets(args_by_rank)
        for rank, args in targets:
            self._send(rank, ("run", fn, args))
        results = {rank: self._receive(rank, "run")[1] for rank, _ in targets}
        self._publish_lanes(fn, len(targets))
        return results

    # ------------------------------------------------------------------
    # shared arrays
    # ------------------------------------------------------------------
    def shared_array(self, key: str, shape: Sequence[int]) -> np.ndarray:
        """See :meth:`Transport.shared_array`; here the array is a mapping
        every worker process has attached."""
        array = super().shared_array(key, shape)
        self._publish_shared_bytes()
        return array

    def _allocate_shared(self, key: str, shape: Tuple[int, ...]) -> np.ndarray:
        """Map a fresh temp file in the driver and in every worker, then
        unlink it: from here on the memory has no name that could outlive
        the processes mapping it, whichever way they end."""
        self._ensure_open()
        fd, path = _create_backing_file(_mapping_bytes(shape))
        try:
            array = _map_array(fd, shape)
            for rank in self.ranks:
                self._send(rank, ("attach", key, path, shape))
            for rank in self.ranks:
                self._receive(rank, "attach")
        finally:
            os.close(fd)
            os.unlink(path)
        return array

    def _publish_shared_bytes(self) -> None:
        if self._tracer is not None:
            self._tracer.metrics.gauge("mp.shared_bytes").set(
                sum(array.nbytes for array in self._shared.values()))

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _ensure_open(self) -> None:
        """Raise once the cluster is closed: :meth:`exchange` too, although
        it needs no worker, so a closed cluster is closed for everything."""
        if self._closed:
            raise RuntimeError(
                "MultiprocessCluster is closed; its worker processes have "
                "been stopped")

    def _send(self, rank: int, command: tuple) -> None:
        """Ship one command to ``rank``; with a tracer installed its frame
        size is added to the ``mp.pipe_bytes`` counter of the command's op."""
        try:
            sent = _send_frame(self._commands[rank], command)
        except OSError as error:  # broken pipe: nobody reads the other end
            raise self._worker_died(rank) from error
        if self._tracer is not None:
            self._tracer.metrics.counter("mp.pipe_bytes", op=command[0]).inc(sent)

    def _receive(self, rank: int, op: str) -> tuple:
        """One driver-side receive of ``rank``'s reply to an ``op`` command.

        Waits on the reply pipe *and* on every worker's process sentinel: a
        worker that died — this one or any other — fails the call within
        milliseconds; a live worker that misses the timeout, or reports an
        error, fails it too.  Every failure tears
        the whole cluster down so nothing upstream hangs."""
        connection = self._commands[rank]
        sentinels = [process.sentinel for process in self._processes]
        ready = connection_wait([connection, *sentinels], self._timeout)
        if not ready:
            self._shutdown(graceful=False)
            raise RuntimeError(
                f"worker {rank} did not reply within {self._timeout:.0f}s "
                "(suspected deadlock); cluster terminated")
        if connection not in ready:
            raise self._worker_died(rank)
        try:
            reply, received = _recv_frame(connection)
        except (EOFError, OSError) as error:
            raise self._worker_died(rank) from error
        if self._tracer is not None:
            self._tracer.metrics.counter("mp.pipe_bytes", op=op).inc(received)
        if reply[0] == "error":
            self.close()
            raise RuntimeError(
                f"worker {reply[1]} raised:\n{reply[2]}")
        if reply[0] != op:  # pragma: no cover - protocol violation
            self.close()
            raise RuntimeError(
                f"worker {rank} replied {reply[0]!r} to a {op!r} request")
        return reply

    def _worker_died(self, rank: int) -> RuntimeError:
        """Tear the cluster down after a death notice and name the worker
        that died (``rank``, whose pipe broke, if no sentinel fires)."""
        sentinels = {process.sentinel: peer
                     for peer, process in enumerate(self._processes)}
        # Pipes break and sentinels fire a moment before the process can be
        # reaped for its exit code.
        fired = connection_wait(list(sentinels), 1.0)
        dead = min(sentinels[sentinel] for sentinel in fired) if fired else rank
        self._processes[dead].join(timeout=1.0)
        exitcode = self._processes[dead].exitcode
        self._shutdown(graceful=False)
        return RuntimeError(
            f"worker {dead} terminated unexpectedly (exit code {exitcode}); "
            "cluster terminated")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "live"
        return (f"MultiprocessCluster(num_workers={self._num_workers}, "
                f"{state})")
