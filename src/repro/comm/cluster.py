"""A simulated, step-synchronous cluster of workers.

The paper evaluates SparDL on a physical 14-machine GPU cluster connected by
MPI.  This repository substitutes that testbed with an in-process simulator:
``P`` workers exchange messages through :class:`SimulatedCluster`, one
synchronous round at a time.  The simulator is *not* a performance model by
itself — it executes the real communication algorithms on real gradient data
— but it records exactly the quantities the alpha-beta model needs (rounds
and per-worker received volume) in :class:`repro.comm.stats.CommStats`.

:class:`SimulatedCluster` is the deterministic reference implementation
of the :class:`~repro.comm.transport.Transport` protocol, and the only
backend that takes fault plans: message fates, stragglers and membership
events are pure functions of a seed, so a faulted run replays exactly.
Without a message-faulting plan it delivers through
:meth:`Transport.exchange <repro.comm.transport.Transport.exchange>`, the
same path as the process-backed
:class:`~repro.comm.mp_backend.MultiprocessCluster`.

Design notes
------------
* A call to :meth:`SimulatedCluster.exchange` is one synchronous round: all
  messages passed in are considered concurrent, exactly like one step of a
  bulk-synchronous collective.
* Payload sizes are derived automatically: NumPy arrays count one element
  per entry, objects exposing a ``comm_size`` attribute (sparse gradients)
  use it, and an explicit size can always be given.
* Workers are plain integer ranks; algorithm state lives in the algorithms
  themselves, which keeps every collective a pure function of its inputs.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from .transport import Message, Transport, freeze_payload, payload_size

__all__ = ["Message", "SimulatedCluster", "payload_size", "freeze_payload"]


class SimulatedCluster(Transport):
    """``P`` workers connected by a fully-switched, step-synchronous network."""

    spec_name = "sim"

    def __init__(self, num_workers: int) -> None:
        super().__init__(num_workers)
        self._fault_plan: Optional[Any] = None
        #: Monotonic round counter over the cluster's lifetime (never reset
        #: with the statistics) — the deterministic key of fault sampling.
        self._round_counter = 0
        self._lost: List[Message] = []

    # ------------------------------------------------------------------
    # fault injection and elastic membership
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

    def resize(self, num_workers: int) -> None:
        """Adopt a new worker count (elastic membership transition).

        Ranks are contiguous ``0..num_workers-1`` after the call; the
        synchroniser applying the membership event remaps its own per-rank
        state (see :meth:`~repro.core.base.GradientSynchronizer.poll_membership`).
        Must be called between steps: undrained lost messages indicate the
        previous step's loss accounting was skipped.
        """
        if self._lost:
            raise RuntimeError(
                "cannot resize the cluster with undrained lost messages; "
                "fold their mass into the residual path first (drain_lost)")
        super().resize(num_workers)

    # ------------------------------------------------------------------
    # message passing
    # ------------------------------------------------------------------
    def exchange(self, messages: Sequence[Message]) -> Dict[int, List[Message]]:
        """Deliver one synchronous round of messages
        (see :meth:`Transport.exchange <repro.comm.transport.Transport.exchange>`).

        With a message-faulting :class:`~repro.comm.faults.FaultPlan`
        installed, delivery attempts can drop or arrive late; undelivered
        messages are retried under the plan's retry policy, with every
        attempt, backoff idle round and late arrival billed as extra
        recorded rounds.  Past the budget, ``lossy`` messages are parked
        for :meth:`drain_lost` and everything else is force-delivered.
        """
        plan = self._fault_plan
        if plan is not None and plan.injects_message_faults:
            return self._exchange_with_faults(messages)
        inboxes = super().exchange(messages)
        if inboxes:
            self._round_counter += 1
        return inboxes

    def _exchange_with_faults(self, messages: Sequence[Message]) -> Dict[int, List[Message]]:
        """One logical round under the installed fault plan.

        Each pending message is attempted once per retry round; its fate
        (deliver on time, deliver ``lateness`` rounds late, or drop — which
        includes timing out past the plan's ``timeout_rounds``) is a pure
        function of the plan's seed, the cluster's monotonic round counter,
        the attempt number and the message's ``(src, dst, tag)``.  Billing
        is honest: the nominal round is always recorded, every retry
        attempt and every distinct lateness adds a recorded round, and the
        retry policy's backoff idles are recorded as empty (latency-only)
        rounds.  Inboxes preserve submission order for delivered messages,
        so downstream merge order matches the reliable path.
        """
        plan = self._fault_plan
        retry = getattr(plan, "retry", None)
        if retry is None:
            from ..core.pipeline import RetryPolicy
            retry = RetryPolicy()
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimulatedCluster(num_workers={self._num_workers})"
