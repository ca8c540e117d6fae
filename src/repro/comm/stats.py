"""Communication accounting.

Every message that flows through :class:`repro.comm.cluster.SimulatedCluster`
is recorded here.  The statistics mirror the two quantities of the
alpha-beta cost model used throughout the paper:

* the number of synchronous communication *rounds* (latency term), and
* the *volume* of elements received per worker (bandwidth term).

A "round" corresponds to one call to ``SimulatedCluster.exchange`` — all
messages inside one call are considered to be in flight simultaneously, as
in a synchronous MPI step.  Because distributed training is bulk
synchronous, the time of a round is governed by the busiest receiver;
:meth:`CommStats.simulated_time`, the one pricing of recorded rounds,
therefore sums ``alpha + beta * max_received`` over rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Union

from .network import HeterogeneousNetwork, NetworkProfile

__all__ = ["CommStats"]


@dataclass
class CommStats:
    """Aggregate communication statistics for one or more synchronisations."""

    num_workers: int
    rounds: int = 0
    total_messages: int = 0
    sent_per_worker: List[float] = field(default_factory=list)
    received_per_worker: List[float] = field(default_factory=list)
    per_round_max_received: List[float] = field(default_factory=list)
    #: Per-round received volume of *every* worker (one list per round,
    #: sized by the worker count at recording time).  Feeds the
    #: heterogeneous timing model, which prices a round by the slowest
    #: per-worker critical path instead of the single busiest receiver.
    per_round_received: List[List[float]] = field(default_factory=list)
    #: Fault accounting (all zero on a fault-free cluster): drop events
    #: observed on the wire (including re-drops of retried messages),
    #: messages scheduled for redelivery, messages lost past the retry
    #: budget (lossy senders fold their mass into the residual path),
    #: messages force-delivered over the reliable transport after the
    #: budget, messages that arrived late within the timeout, and the
    #: extra rounds (retries, backoff idling, late arrivals, forced
    #: deliveries) the faults cost beyond the fault-free single round per
    #: exchange.
    dropped_messages: int = 0
    retried_messages: int = 0
    lost_messages: int = 0
    forced_deliveries: int = 0
    delayed_messages: int = 0
    fault_extra_rounds: int = 0

    def __post_init__(self) -> None:
        if self.num_workers <= 0:
            raise ValueError("num_workers must be positive")
        if not self.sent_per_worker:
            self.sent_per_worker = [0.0] * self.num_workers
        if not self.received_per_worker:
            self.received_per_worker = [0.0] * self.num_workers

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record_round(self, transfers: Iterable[tuple[int, int, float]]) -> None:
        """Record one synchronous round.

        ``transfers`` is an iterable of ``(src, dst, size_elements)``
        triples.  An empty iterable still counts as a round only if the
        caller explicitly wants that; by convention callers skip the call
        entirely when nothing is exchanged.
        """
        round_received = [0.0] * self.num_workers
        count = 0
        for src, dst, size in transfers:
            self._check_rank(src)
            self._check_rank(dst)
            if size < 0:
                raise ValueError("message size must be non-negative")
            self.sent_per_worker[src] += size
            self.received_per_worker[dst] += size
            round_received[dst] += size
            count += 1
        self.rounds += 1
        self.total_messages += count
        self.per_round_max_received.append(max(round_received) if round_received else 0.0)
        self.per_round_received.append(round_received)

    def merge(self, other: "CommStats") -> None:
        """Fold another stats object (from the same cluster size) into this one."""
        if other.num_workers != self.num_workers:
            raise ValueError("cannot merge stats from clusters of different sizes")
        self.rounds += other.rounds
        self.total_messages += other.total_messages
        for w in range(self.num_workers):
            self.sent_per_worker[w] += other.sent_per_worker[w]
            self.received_per_worker[w] += other.received_per_worker[w]
        self.per_round_max_received.extend(other.per_round_max_received)
        self.per_round_received.extend([list(row) for row in other.per_round_received])
        self.dropped_messages += other.dropped_messages
        self.retried_messages += other.retried_messages
        self.lost_messages += other.lost_messages
        self.forced_deliveries += other.forced_deliveries
        self.delayed_messages += other.delayed_messages
        self.fault_extra_rounds += other.fault_extra_rounds

    def expand(self, num_workers: int) -> None:
        """Grow the per-worker accounting to ``num_workers`` slots.

        Elastic membership changes the cluster size between steps; session
        accumulators expand to the largest worker count seen so stats from
        different memberships can be merged.  Already-recorded per-round
        rows keep the length of the membership they were recorded under.
        """
        if num_workers < self.num_workers:
            raise ValueError("expand can only grow the worker count")
        extra = num_workers - self.num_workers
        self.sent_per_worker.extend([0.0] * extra)
        self.received_per_worker.extend([0.0] * extra)
        self.num_workers = num_workers

    @classmethod
    def merged(cls, num_workers: int, parts: Iterable["CommStats"]) -> "CommStats":
        """Aggregate several stats windows into one (sequential composition).

        Used by the bucketed synchroniser and the session layer: the
        buckets'/steps' rounds add up (they execute back to back in the
        bulk-synchronous model) and the per-round busiest-receiver series
        concatenates, so :meth:`simulated_time` prices the composition
        exactly as the sum of its parts.
        """
        total = cls(num_workers=num_workers)
        for part in parts:
            total.merge(part)
        return total

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    @property
    def max_received(self) -> float:
        """Largest total volume received by any single worker (the paper's
        bandwidth term ``y``)."""
        return max(self.received_per_worker)

    @property
    def mean_received(self) -> float:
        return sum(self.received_per_worker) / self.num_workers

    @property
    def total_volume(self) -> float:
        """Total number of elements moved across the network."""
        return sum(self.received_per_worker)

    def simulated_time(self, network: Union[NetworkProfile, HeterogeneousNetwork],
                       volume_scale: float = 1.0) -> float:
        """Bulk-synchronous time of the recorded rounds under ``network``.

        Under a uniform :class:`~repro.comm.network.NetworkProfile` each
        round costs ``alpha`` plus ``beta`` times the busiest receiver's
        volume.  Under a :class:`~repro.comm.network.HeterogeneousNetwork` a
        round is priced as the **maximum over per-worker critical paths** —
        worker ``w`` finishes after ``alpha_w + beta_w * received_w`` and the
        synchronous round waits for the slowest — using the per-round
        per-worker volumes recorded here.  ``volume_scale`` rescales volumes
        to the paper's model size (see :mod:`repro.training.timing`).
        """
        if volume_scale <= 0:
            raise ValueError("volume_scale must be positive")
        if isinstance(network, HeterogeneousNetwork):
            time = sum(network.round_time(received, volume_scale)
                       for received in self.per_round_received)
            # Rounds merged from stats predating per-round rows (or recorded
            # under a different membership) price at the default latency.
            time += network.default.alpha * max(
                0, self.rounds - len(self.per_round_received))
            return time
        time = network.alpha * self.rounds
        time += network.beta * volume_scale * sum(self.per_round_max_received)
        return time

    def copy(self) -> "CommStats":
        return CommStats(
            num_workers=self.num_workers,
            rounds=self.rounds,
            total_messages=self.total_messages,
            sent_per_worker=list(self.sent_per_worker),
            received_per_worker=list(self.received_per_worker),
            per_round_max_received=list(self.per_round_max_received),
            per_round_received=[list(row) for row in self.per_round_received],
            dropped_messages=self.dropped_messages,
            retried_messages=self.retried_messages,
            lost_messages=self.lost_messages,
            forced_deliveries=self.forced_deliveries,
            delayed_messages=self.delayed_messages,
            fault_extra_rounds=self.fault_extra_rounds,
        )

    # ------------------------------------------------------------------
    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.num_workers:
            raise ValueError(f"worker rank {rank} out of range [0, {self.num_workers})")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CommStats(P={self.num_workers}, rounds={self.rounds}, "
            f"max_received={self.max_received:.1f}, messages={self.total_messages})"
        )
