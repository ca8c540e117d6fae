"""The transport protocol: what every execution backend must provide.

The staged pipeline funnels *all* communication of a synchronisation step
through one boundary — the ``exchange`` stage — and the read-only-view
message discipline guarantees that nothing outside that boundary shares
writable memory between workers.  This module names that boundary
explicitly: :class:`Transport` is the protocol every execution backend
implements, and everything above it (the pipeline driver, the
synchronisers, the trainer, the ``repro.api`` facade) programs against the
protocol instead of a concrete cluster class.

Two backends ship:

* :class:`~repro.comm.cluster.SimulatedCluster` — the deterministic
  in-process reference.
* :class:`~repro.comm.mp_backend.MultiprocessCluster` — ``P`` workers as
  real OS processes that run the per-rank compute (a trainer's
  forward/backward and updates) while synchronisation stays in the
  driver.

Both deliver messages through the one :meth:`Transport.exchange` below:
every message arrives priced by its sender, is checked, traced and frozen,
and the round is recorded once.  Payloads never leave the calling process, so the ``mp``
backend's synchronisation results equal the reference by construction.

Fault injection
---------------
A :class:`~repro.comm.faults.FaultPlan` installed with
:meth:`Transport.install_fault_plan` works on every backend, because it
acts where every message passes: under a message-faulting plan
:meth:`Transport.exchange` runs the seeded drop/delay/retry loop, keyed by
one round counter, and parks lost messages in one buffer for
:meth:`Transport.drain_lost`.  Stragglers and heterogeneous links price
the recorded :class:`~repro.comm.stats.CommStats` in
:mod:`repro.training.timing`, whichever backend recorded them; membership
events are applied between steps by the synchronisers
(:meth:`~repro.core.base.GradientSynchronizer.poll_membership`, which
calls :meth:`Transport.resize`).  A faulted run replays exactly on any
backend.

Worker compute
--------------
Beyond message passing, a transport *executes* per-rank work where the
rank lives: :meth:`Transport.run_workers` runs one task per rank against a
persistent per-rank context.  The base implementation runs the tasks
side by side on the rank pool of the calling process
(:mod:`repro.core.rank_pool`); process-backed transports dispatch them to
the worker processes.  Either way tasks run concurrently, so they must be
rank-order independent and write only their own rank's state: any
randomness must come from the per-rank ``seed_sequence`` the context
provides (one :class:`numpy.random.SeedSequence` spawn per rank, identical
across backends), never from shared mutable state.

Shared arrays
-------------
Bulk per-rank state (a trainer's dense gradients and updates) does not
travel as task arguments or results: :meth:`Transport.shared_array` names a
``float64`` array that the caller *and* every rank's task context
(``context["shared"][key]``) address as the same memory — the one NumPy
array in-process, a mapping attached by every worker process on
process-backed transports.  The task protocol is the only synchronisation:
a task writes between its call and its return, the caller between
:meth:`~Transport.run_workers` calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .packed import PackedBags
from .stats import CommStats

__all__ = [
    "Message",
    "Transport",
    "payload_size",
    "freeze_payload",
    "parse_backend_spec",
    "make_transport",
    "transport_spec",
]


def payload_size(payload: Any) -> float:
    """Number of transmitted elements for ``payload``.

    * ``None`` has size 0 (control message).
    * NumPy arrays: one element per entry.
    * :class:`~repro.comm.packed.PackedBags`, the one wire form of sparse
      gradient mass: two elements per non-zero (:attr:`PackedBags.comm_size`).
    * Lists / tuples: sum of their items.
    * Scalars: 1.

    Anything else — a bare :class:`~repro.sparse.vector.SparseGradient`
    included: pack it first — raises :class:`TypeError`.
    """
    if payload is None:
        return 0.0
    if isinstance(payload, np.ndarray):
        return float(payload.size)
    if isinstance(payload, PackedBags):
        return payload.comm_size
    if isinstance(payload, (list, tuple)):
        return float(sum(payload_size(item) for item in payload))
    if isinstance(payload, (int, float, np.integer, np.floating)):
        return 1.0
    raise TypeError(f"cannot determine communication size of {type(payload)!r}")


def freeze_payload(payload: Any) -> Any:
    """Return ``payload`` with every NumPy array replaced by a read-only view.

    Senders routinely pass live views of their own state (a slice of a
    working buffer, a chunk of a ring segment); a receiver writing into such
    a view in place would silently corrupt the sender.  A real network never
    shares memory between peers, so the exchange boundary delivers arrays
    read-only: an accidental in-place write raises immediately instead of
    corrupting remote state.  Lists and tuples are frozen recursively;
    :class:`~repro.comm.packed.PackedBags` buffers are read-only from
    construction and pass through unchanged, as do scalars.
    """
    if isinstance(payload, np.ndarray):
        view = payload.view()
        view.flags.writeable = False
        return view
    if isinstance(payload, tuple):
        return tuple(freeze_payload(item) for item in payload)
    if isinstance(payload, list):
        return [freeze_payload(item) for item in payload]
    return payload


@dataclass
class Message:
    """A point-to-point message between two workers.

    ``size`` is the billed wire size, final when the message is built: the
    sender prices its payload (its compression, metadata exclusion or
    control-channel semantics included) and the transport bills that size
    unchanged.  Left out, it is derived from the payload via
    :func:`payload_size`.

    ``lossy=True`` declares that the *sender* can account for this message
    never arriving: past the retry budget of an installed
    :class:`~repro.comm.faults.FaultPlan` the message is declared lost and
    handed back via :meth:`Transport.drain_lost` so its mass can be
    folded into the sender's residual path.  Non-lossy messages model a
    reliable transport: they are force-delivered (honestly billed) after
    the budget, because the algorithms sending them cannot degrade
    gracefully without diverging across workers.
    """

    src: int
    dst: int
    payload: Any = None
    size: Optional[float] = None
    tag: str = ""
    lossy: bool = False

    def __post_init__(self) -> None:
        if self.size is None:
            self.size = payload_size(self.payload)
        if not math.isfinite(self.size):
            raise ValueError(f"message size must be finite, got {self.size!r}")
        if self.size < 0:
            raise ValueError("message size must be non-negative")


class Transport:
    """Protocol of an execution backend: ``P`` ranked workers, synchronous
    message rounds, communication accounting and per-rank task execution.

    The base class owns everything that must behave identically on every
    backend: message delivery (:meth:`exchange`: validation, tracing,
    read-only freezing, :class:`~repro.comm.stats.CommStats` recording),
    fault injection (:meth:`install_fault_plan`) and the per-rank context of
    :meth:`run_workers`.  Backends differ only in where the ranks' tasks
    run and where their shared arrays live.
    """

    #: Token naming this backend in ``backend=`` spec strings ("sim", "mp").
    spec_name: str = ""

    def __init__(self, num_workers: int, *, seed: int = 0) -> None:
        if num_workers <= 0:
            raise ValueError("a cluster needs at least one worker")
        self._num_workers = int(num_workers)
        self._stats = CommStats(num_workers=self._num_workers)
        self._tracer: Optional[Any] = None
        self._seed = int(seed)
        self._worker_ctx: Dict[int, Dict[str, Any]] = {}
        self._shared: Dict[str, np.ndarray] = {}
        self._fault_plan: Optional[Any] = None
        #: Monotonic round counter over the transport's lifetime (never
        #: reset with the statistics) — the deterministic key of fault
        #: sampling.
        self._round_counter = 0
        self._lost: List[Message] = []

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def num_workers(self) -> int:
        return self._num_workers

    @property
    def ranks(self) -> range:
        return range(self._num_workers)

    @property
    def stats(self) -> CommStats:
        return self._stats

    def reset_stats(self) -> CommStats:
        """Reset accounting and return the statistics accumulated so far."""
        old = self._stats
        self._stats = CommStats(num_workers=self._num_workers)
        return old

    # ------------------------------------------------------------------
    # tracing
    # ------------------------------------------------------------------
    def install_tracer(self, tracer: Optional[Any]) -> Optional[Any]:
        """Install a :class:`~repro.obs.trace.Tracer` observing admission.

        Every message :meth:`exchange` admits — the single code path every
        backend bills through — is reported to the tracer with the size its
        sender priced, so the per-message timeline matches the accounting
        exactly.  Returns the previously installed tracer; ``None``
        uninstalls.  Supported by every backend (process backends
        additionally stream worker-side task spans back at :meth:`close`).
        """
        previous = self._tracer
        self._tracer = tracer if tracer is not None and tracer.enabled else None
        return previous

    @property
    def tracer(self) -> Optional[Any]:
        """The installed tracer (``None`` when tracing is off)."""
        return self._tracer

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def install_fault_plan(self, plan: Optional[Any]) -> Optional[Any]:
        """Install a :class:`~repro.comm.faults.FaultPlan` for subsequent
        :meth:`exchange` rounds; returns the previously installed plan.

        With no plan installed (the default), ``exchange`` runs the exact
        reliable code path — bit-identical messages, statistics and results.
        A plan whose drop and delay rates are zero is equally bit-identical;
        only actual drop/delay decisions change the recorded rounds.
        """
        previous = self._fault_plan
        self._fault_plan = plan
        return previous

    @property
    def fault_plan(self) -> Optional[Any]:
        """The installed :class:`~repro.comm.faults.FaultPlan` (or ``None``)."""
        return self._fault_plan

    def drain_lost(self) -> List[Message]:
        """Return (and clear) the messages lost past the retry budget since
        the last drain.  The pipeline's robustness policy folds their mass
        into the senders' residual stores."""
        lost = self._lost
        self._lost = []
        return lost

    # ------------------------------------------------------------------
    # message passing
    # ------------------------------------------------------------------
    def exchange(self, messages: Sequence[Message]) -> Dict[int, List[Message]]:
        """Deliver one synchronous round of messages.

        Returns the inbox of every worker that received something:
        ``{dst_rank: [messages in submission order]}``, and records the
        round in :attr:`stats` (an empty round records nothing).  Raises if
        any rank is out of range or a worker messages itself (local data
        movement is free and must not be modelled as communication) —
        before any message of the round is traced or frozen.
        NumPy array payloads are delivered as read-only views (see
        :func:`freeze_payload`).

        This is the delivery path of every backend: the payloads never
        leave the calling process.  With a message-faulting
        :class:`~repro.comm.faults.FaultPlan` installed, delivery attempts
        can drop or arrive late; undelivered messages are retried under the
        plan's retry policy, with every attempt, backoff idle round and late
        arrival billed as extra recorded rounds.  Past the budget, ``lossy``
        messages are parked for :meth:`drain_lost` and everything else is
        force-delivered.
        """
        self._ensure_open()
        plan = self._fault_plan
        if plan is not None and plan.injects_message_faults:
            return self._exchange_with_faults(messages)
        admitted = self._admit(messages)
        if not admitted:
            return {}
        inboxes: Dict[int, List[Message]] = {}
        for message in admitted:
            inboxes.setdefault(message.dst, []).append(message)
        self._stats.record_round(
            [(message.src, message.dst, float(message.size))
             for message in admitted])
        self._round_counter += 1
        return inboxes

    def _exchange_with_faults(self, messages: Sequence[Message]) -> Dict[int, List[Message]]:
        """One logical round under the installed fault plan.

        Each pending message is attempted once per retry round; its fate
        (deliver on time, deliver ``lateness`` rounds late, or drop — which
        includes timing out past the plan's ``timeout_rounds``) is a pure
        function of the plan's seed, the transport's monotonic round
        counter, the attempt number and the message's ``(src, dst, tag)``.
        Billing is honest: the nominal round is always recorded, every retry
        attempt and every distinct lateness adds a recorded round, and the
        retry policy's backoff idles are recorded as empty (latency-only)
        rounds.  Inboxes preserve submission order for delivered messages,
        so downstream merge order matches the reliable path.
        """
        plan = self._fault_plan
        retry = plan.retry
        admitted = self._admit(messages)
        if not admitted:
            return {}
        base_round = self._round_counter
        delivered: set = set()
        pending: List[int] = list(range(len(admitted)))
        rounds_recorded = 0

        def record(indices: Sequence[int]) -> None:
            nonlocal rounds_recorded
            self._stats.record_round(
                [(admitted[i].src, admitted[i].dst, float(admitted[i].size))
                 for i in indices])
            rounds_recorded += 1

        attempt = 1
        max_attempts = 1 + retry.max_retries
        tracer = self._tracer
        while pending and attempt <= max_attempts:
            if attempt > 1:
                for _ in range(retry.idle_rounds(attempt)):
                    record(())
                self._stats.retried_messages += len(pending)
                if tracer is not None:
                    tracer.record_fault("retry", attempt=attempt,
                                        pending=len(pending),
                                        idle_rounds=retry.idle_rounds(attempt))
            on_time: List[int] = []
            late: Dict[int, List[int]] = {}
            still: List[int] = []
            for index in pending:
                message = admitted[index]
                fate, lateness = plan.message_fate(
                    base_round, attempt, message.src, message.dst, message.tag)
                if fate == "drop":
                    self._stats.dropped_messages += 1
                    still.append(index)
                    if tracer is not None:
                        tracer.record_fault("drop", src=message.src,
                                            dst=message.dst, tag=message.tag,
                                            attempt=attempt)
                elif lateness == 0:
                    on_time.append(index)
                else:
                    self._stats.delayed_messages += 1
                    late.setdefault(lateness, []).append(index)
                    if tracer is not None:
                        tracer.record_fault("late", src=message.src,
                                            dst=message.dst, tag=message.tag,
                                            attempt=attempt, lateness=lateness)
            record(on_time)
            delivered.update(on_time)
            if late:
                for offset in range(1, max(late) + 1):
                    bucket = late.get(offset, [])
                    record(bucket)
                    delivered.update(bucket)
            pending = still
            attempt += 1
        if pending:
            lost = [i for i in pending if admitted[i].lossy]
            forced = [i for i in pending if not admitted[i].lossy]
            self._lost.extend(admitted[i] for i in lost)
            self._stats.lost_messages += len(lost)
            if tracer is not None:
                for i in lost:
                    tracer.record_fault("lost", src=admitted[i].src,
                                        dst=admitted[i].dst,
                                        tag=admitted[i].tag)
            if forced:
                record(forced)
                delivered.update(forced)
                self._stats.forced_deliveries += len(forced)
                if tracer is not None:
                    tracer.record_fault("forced", count=len(forced))
        self._stats.fault_extra_rounds += rounds_recorded - 1
        self._round_counter += rounds_recorded
        inboxes: Dict[int, List[Message]] = {}
        for index, message in enumerate(admitted):
            if index in delivered:
                inboxes.setdefault(message.dst, []).append(message)
        return inboxes

    # ------------------------------------------------------------------
    # per-rank task execution
    # ------------------------------------------------------------------
    def run_workers(self, fn: Callable[..., Any],
                    args_by_rank: Optional[Mapping[int, tuple]] = None
                    ) -> Dict[int, Any]:
        """Execute ``fn(context, rank, *args)`` once per rank.

        ``args_by_rank`` maps rank to the extra positional arguments of that
        rank's call (``None`` runs every rank with no extra arguments; a
        partial mapping runs only the listed ranks).  ``context`` is a
        per-rank ``dict`` that persists across calls — tasks park state
        (model replicas, RNG streams) there; it always contains ``"rank"``,
        ``"seed_sequence"`` (this rank's
        :class:`numpy.random.SeedSequence` spawn, identical on every
        backend, so randomised tasks are rank-order independent by
        construction) and ``"shared"`` (the arrays of
        :meth:`shared_array`, by key).

        The base implementation builds the contexts on the calling thread
        and runs the calls side by side on the rank pool
        (:func:`repro.core.rank_pool.run`; one after another on the calling
        thread when the CPU affinity mask has one CPU).  Process-backed
        transports run them in the worker processes; ``fn`` and its
        arguments must then be picklable (``fn`` a module-level function).
        Either way the calls run concurrently, so each must touch only its
        own rank's state.  Every rank is checked before any task runs.
        Results are returned as ``{rank: return_value}``; with a tracer
        installed, the gauge ``transport.run_workers_lanes{task=<fn name>}``
        says how many ran at once.
        """
        # Imported here: a module-level import would load repro.core, which
        # imports this module.
        from ..core import rank_pool
        targets = self._run_targets(args_by_rank)
        tasks = [partial(fn, self._context(rank), rank, *args)
                 for rank, args in targets]
        results, lanes = rank_pool.run(tasks)
        self._publish_lanes(fn, lanes)
        return {rank: result for (rank, _), result in zip(targets, results)}

    def _run_targets(self, args_by_rank: Optional[Mapping[int, tuple]]
                     ) -> List[Tuple[int, tuple]]:
        """``[(rank, args)]`` of one :meth:`run_workers` call in ascending
        rank order, every rank checked before anything runs."""
        if args_by_rank is None:
            return [(rank, ()) for rank in self.ranks]
        targets = [(rank, tuple(args_by_rank[rank]))
                   for rank in sorted(args_by_rank)]
        for rank, _ in targets:
            self._check_rank(rank)
        return targets

    def _publish_lanes(self, fn: Callable[..., Any], lanes: int) -> None:
        if self._tracer is not None:
            self._tracer.metrics.gauge(
                "transport.run_workers_lanes",
                task=getattr(fn, "__name__", "task")).set(lanes)

    def _context(self, rank: int) -> Dict[str, Any]:
        """The persistent per-rank context of the in-process implementation
        of :meth:`run_workers`."""
        context = self._worker_ctx.get(rank)
        if context is None:
            context = self._worker_ctx[rank] = make_worker_context(
                rank, self._seed, self._shared)
        return context

    # ------------------------------------------------------------------
    # shared arrays
    # ------------------------------------------------------------------
    def shared_array(self, key: str, shape: Sequence[int]) -> np.ndarray:
        """The zero-initialised ``float64`` array named ``key``, as the
        caller and every rank's :meth:`run_workers` context
        (``context["shared"][key]``) see it: one memory, no copies.

        The first call creates the array; later calls with the same shape
        return it (a different shape is an error).  Nothing but the task
        protocol orders accesses: a task may read and write between its
        call and its return, the caller between two :meth:`run_workers`
        calls — never both at once.  Arrays live until :meth:`resize` or
        :meth:`close`.
        """
        shape = tuple(int(extent) for extent in shape)
        array = self._shared.get(key)
        if array is None:
            array = self._shared[key] = self._allocate_shared(key, shape)
        elif array.shape != shape:
            raise ValueError(
                f"shared array {key!r} exists with shape {array.shape}, "
                f"requested {shape}")
        return array

    def _allocate_shared(self, key: str, shape: Tuple[int, ...]) -> np.ndarray:
        """Back one new shared array.  In-process ranks share the caller's
        address space, so a plain array is already shared."""
        return np.zeros(shape, dtype=np.float64)

    # ------------------------------------------------------------------
    # elastic membership
    # ------------------------------------------------------------------
    def resize(self, num_workers: int) -> None:
        """Adopt a new worker count (elastic membership transition).

        Ranks are contiguous ``0..num_workers-1`` after the call; the
        synchroniser applying the membership event remaps its own per-rank
        state (see :meth:`~repro.core.base.GradientSynchronizer.poll_membership`).
        Statistics, per-rank contexts and shared arrays restart from the
        new membership.  Must be called between steps: undrained lost
        messages mean the previous step's loss accounting was skipped, and
        raise before anything changes.
        """
        if num_workers <= 0:
            raise ValueError("a cluster needs at least one worker")
        if self._lost:
            raise RuntimeError(
                "cannot resize the cluster with undrained lost messages; "
                "fold their mass into the residual path first (drain_lost)")
        self._num_workers = int(num_workers)
        self._stats = CommStats(num_workers=self._num_workers)
        self._worker_ctx = {}
        self._shared = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release backend resources (worker processes, pipes).  The
        in-process reference backend holds none; always safe to call twice."""

    def __enter__(self) -> "Transport":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # shared internals
    # ------------------------------------------------------------------
    def _admit(self, messages: Sequence[Message]) -> List[Message]:
        """Validate, trace and freeze the messages of one round.

        Every backend admits through this one code path, and every message
        arrives priced by its sender, so a message is billed identically no
        matter which transport carries it.  All messages are checked (ranks,
        self-sends) before any is changed or reported: a round that raises
        leaves the caller's messages, the tracer and the statistics
        untouched.
        """
        messages = list(messages)
        for message in messages:
            self._check_rank(message.src)
            self._check_rank(message.dst)
            if message.src == message.dst:
                raise ValueError("workers must not send messages to themselves")
        tracer = self._tracer
        for message in messages:
            if tracer is not None:
                tracer.record_message(message.src, message.dst, message.size,
                                      message.tag)
            message.payload = freeze_payload(message.payload)
        return messages

    def _ensure_open(self) -> None:
        """Raise if the transport can no longer deliver (the in-process
        reference always can)."""

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self._num_workers:
            raise ValueError(
                f"worker rank {rank} out of range [0, {self._num_workers})"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(num_workers={self._num_workers})"


def make_worker_context(rank: int, seed: int,
                        shared: Dict[str, np.ndarray]) -> Dict[str, Any]:
    """The initial per-rank context of :meth:`Transport.run_workers`.

    One function shared by every backend (the in-process reference builds
    it lazily, process backends build it inside the worker), so the
    ``seed_sequence`` streams — ``SeedSequence(seed, spawn_key=(rank,))``,
    exactly what ``SeedSequence(seed).spawn(P)[rank]`` yields — are
    identical everywhere and results never depend on which backend ran the
    task or in which order ranks executed.  ``shared`` is where the rank
    finds the arrays of :meth:`Transport.shared_array`.
    """
    return {
        "rank": rank,
        "seed_sequence": np.random.SeedSequence(seed, spawn_key=(rank,)),
        "shared": shared,
    }


# ---------------------------------------------------------------------------
# backend spec strings
# ---------------------------------------------------------------------------
def parse_backend_spec(spec: str) -> Tuple[str, Optional[int]]:
    """Parse a ``backend=`` spec value into ``(kind, num_workers)``.

    ``"sim"`` / ``"mp"`` leave the worker count to the caller (``None``);
    ``"sim:8"`` / ``"mp:4"`` pin it.
    """
    text = str(spec).strip().lower()
    kind, separator, count = text.partition(":")
    if kind not in ("sim", "mp"):
        raise ValueError(
            f"unknown backend {spec!r}; expected sim[:P] or mp[:P]")
    if not separator:
        return kind, None
    if not count:
        raise ValueError(f"malformed backend worker count in {spec!r}")
    try:
        workers = int(count)
    except ValueError:
        raise ValueError(f"malformed backend worker count in {spec!r}") from None
    if workers <= 0:
        raise ValueError(f"backend worker count must be positive, got {spec!r}")
    return kind, workers


def make_transport(spec: str, num_workers: Optional[int] = None) -> Transport:
    """Build a transport from a backend spec string.

    ``spec`` is ``sim[:P]`` or ``mp[:P]``; ``num_workers`` supplies (or must
    agree with) the worker count.
    """
    kind, workers = parse_backend_spec(spec)
    if workers is None:
        workers = num_workers
    elif num_workers is not None and int(num_workers) != workers:
        raise ValueError(
            f"backend spec {spec!r} pins {workers} workers but num_workers="
            f"{num_workers} was requested")
    if workers is None:
        raise ValueError(
            f"backend spec {spec!r} does not carry a worker count; pass "
            "num_workers=... or use the backend:P form")
    if kind == "mp":
        from .mp_backend import MultiprocessCluster
        return MultiprocessCluster(workers)
    from .cluster import SimulatedCluster
    return SimulatedCluster(workers)


def transport_spec(transport: Transport) -> str:
    """The canonical ``backend=`` value of a transport: ``"sim:P"`` / ``"mp:P"``."""
    if not transport.spec_name:
        raise ValueError(
            f"{type(transport).__name__} does not name a backend spec token")
    return f"{transport.spec_name}:{transport.num_workers}"
