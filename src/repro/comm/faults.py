"""Deterministic fault and heterogeneity injection for every transport.

Every benchmark before this layer assumed a fixed worker count over a
perfectly reliable, uniform network — the one regime production never runs
in.  :class:`FaultPlan` describes the departures from that ideal:

* **message faults** — per-message drop and delay probabilities (a delay
  past ``timeout_rounds`` is a timeout and handled like a drop),
* **stragglers** — per-(worker, iteration) compute slowdown factors drawn
  from a seeded distribution,
* **heterogeneous links** — per-worker and per-link
  :class:`~repro.comm.network.NetworkProfile` overrides feeding the
  straggler-aware timing model,
* **elastic membership** — crash/join :class:`MembershipEvent`\\ s keyed by
  iteration, applied by synchronisers between steps
  (:meth:`~repro.core.base.GradientSynchronizer.poll_membership`).

A plan is installed on any cluster with
:meth:`~repro.comm.transport.Transport.install_fault_plan`; the simulated
and the process-backed transport run the same delivery loop, so a faulted
run is identical on both.  With no plan installed, ``exchange`` runs the
exact pre-fault code path — bit-identical messages, statistics and results
(gated in ``tests/test_faults.py``).

Determinism
-----------
Every random decision is a pure function of ``(seed, key)``: the key of a
message fate includes the cluster's monotonic round counter, the retry
attempt and the message's ``(src, dst, tag)``; straggler factors are keyed
by ``(iteration, worker)``.  Two runs of the same seeded scenario therefore
make identical drop/delay/straggler decisions, independent of Python hash
randomisation and of how many random values other components consume.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .network import HeterogeneousNetwork, NetworkProfile

__all__ = [
    "MembershipEvent",
    "RetryPolicy",
    "FaultPlan",
    "membership_transition",
]


@dataclass(frozen=True)
class MembershipEvent:
    """One elastic-membership event, applied *before* the given iteration.

    Parameters
    ----------
    iteration:
        0-based iteration index the event precedes: a synchroniser polling
        membership before running step ``iteration`` applies it then.
    kind:
        ``"crash"`` (a worker leaves) or ``"join"`` (one worker joins,
        taking the next rank).
    worker:
        Rank of the crashing worker; ``None`` crashes the highest rank.
        Ignored for joins (the joiner always takes rank ``P``).
    """

    iteration: int
    kind: str
    worker: Optional[int] = None

    def __post_init__(self) -> None:
        if self.iteration < 0:
            raise ValueError("event iteration must be non-negative")
        if self.kind not in ("crash", "join"):
            raise ValueError(f"event kind must be 'crash' or 'join', got {self.kind!r}")
        if self.worker is not None and self.worker < 0:
            raise ValueError("event worker must be a non-negative rank")

    def describe(self) -> Dict[str, Any]:
        """JSON-friendly event description (trace-marker / report args)."""
        return {"iteration": self.iteration, "kind": self.kind,
                "worker": self.worker}


def membership_transition(num_workers: int,
                          event: MembershipEvent) -> Tuple[int, Dict[int, int]]:
    """Resolve ``event`` against the current worker count.

    Returns ``(new_num_workers, mapping)`` where ``mapping`` sends every
    *old* rank to the new rank that inherits its state:

    * **join** — the identity over the old ranks; the joiner takes rank
      ``P`` with empty state.
    * **crash** — survivors are renumbered contiguously (order preserved);
      the crashed rank maps to the new rank of its cyclic successor, which
      inherits its residual store so no gradient mass leaves the system.
    """
    if event.kind == "join":
        return num_workers + 1, {rank: rank for rank in range(num_workers)}
    crashed = num_workers - 1 if event.worker is None else event.worker
    if not 0 <= crashed < num_workers:
        raise ValueError(f"cannot crash rank {crashed} of {num_workers} workers")
    if num_workers <= 1:
        raise ValueError("cannot crash the last remaining worker")
    survivors = [rank for rank in range(num_workers) if rank != crashed]
    mapping = {old: new for new, old in enumerate(survivors)}
    successor = survivors[crashed % len(survivors)]
    mapping[crashed] = mapping[successor]
    return num_workers - 1, mapping


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry-with-backoff for faulted message deliveries.

    A message dropped (or timed out) on the wire is re-attempted up to
    ``max_retries`` times.  Every attempt is billed as an extra recorded
    round; before the ``a``-th attempt the sender additionally idles
    ``ceil(backoff^(a-2)) - 1`` empty (latency-only) rounds, so the first
    retry is immediate and later ones back off geometrically.  Past the
    budget the step degrades gracefully instead of stalling: ``lossy``
    messages are declared lost (their gradient mass is folded into the
    sender's residual path by
    :func:`~repro.core.pipeline.fold_lost_messages`, preserving the
    conservation invariant) and reliable messages are force-delivered in
    one final billed round.
    """

    max_retries: int = 2
    backoff: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if not (math.isfinite(self.backoff) and self.backoff >= 1.0):
            raise ValueError("backoff must be a finite factor >= 1")

    def idle_rounds(self, attempt: int) -> int:
        """Backoff idle rounds billed before delivery attempt ``attempt``
        (1-based; the first retry is attempt 2 and waits nothing)."""
        if attempt <= 2:
            return 0
        return max(0, int(math.ceil(self.backoff ** (attempt - 2))) - 1)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic description of one fault scenario.

    Parameters
    ----------
    seed:
        Root seed of every random decision the plan makes.
    drop_rate:
        Per-delivery-attempt probability in ``[0, 1]`` that a message is
        dropped on the wire.  Dropped messages are retried under the
        plan's :class:`RetryPolicy`; messages still undelivered past the
        retry budget are *lost* if the sender marked them ``lossy`` (their
        mass is folded into the sender's residual) and force-delivered over
        the reliable transport otherwise.
    delay_rate:
        Per-attempt probability that a delivered message is late.  The
        lateness is drawn uniformly from ``1..max_delay_rounds`` extra
        rounds; a lateness above ``timeout_rounds`` counts as a timeout and
        is handled exactly like a drop.
    max_delay_rounds:
        Upper bound (inclusive) of the sampled lateness.
    timeout_rounds:
        Largest lateness the receiver waits out.  Late-but-within-timeout
        messages arrive in honestly billed extra rounds.
    straggler_rate:
        Per-(worker, iteration) probability that a worker straggles.
    straggler_slowdown:
        Upper bound of the straggler severity: a straggling worker's
        compute slowdown factor is drawn uniformly from
        ``[1, straggler_slowdown]``.
    worker_profiles:
        Per-worker :class:`~repro.comm.network.NetworkProfile` overrides
        (rank -> profile) describing heterogeneous NICs.
    link_profiles:
        Per-directed-link overrides (``(src, dst)`` -> profile).  The
        timing model folds them conservatively into the destination's
        ingress profile (element-wise max of alpha and beta).
    events:
        :class:`MembershipEvent` schedule (crashes and joins).
    retry:
        The :class:`RetryPolicy` governing redelivery (default: two
        retries, 2x backoff).
    """

    seed: int = 0
    drop_rate: float = 0.0
    delay_rate: float = 0.0
    max_delay_rounds: int = 1
    timeout_rounds: int = 1
    straggler_rate: float = 0.0
    straggler_slowdown: float = 4.0
    worker_profiles: Mapping[int, NetworkProfile] = field(default_factory=dict)
    link_profiles: Mapping[Tuple[int, int], NetworkProfile] = field(default_factory=dict)
    events: Sequence[MembershipEvent] = ()
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        for name in ("drop_rate", "delay_rate", "straggler_rate"):
            value = getattr(self, name)
            if not (math.isfinite(value) and 0.0 <= value <= 1.0):
                raise ValueError(f"{name} must be a probability in [0, 1], got {value!r}")
        if self.max_delay_rounds < 1:
            raise ValueError("max_delay_rounds must be at least 1")
        if self.timeout_rounds < 0:
            raise ValueError("timeout_rounds must be non-negative")
        if not (math.isfinite(self.straggler_slowdown) and self.straggler_slowdown >= 1.0):
            raise ValueError("straggler_slowdown must be a finite factor >= 1")
        for rank in self.worker_profiles:
            if rank < 0:
                raise ValueError("worker_profiles keys must be non-negative ranks")
        for src, dst in self.link_profiles:
            if src < 0 or dst < 0:
                raise ValueError("link_profiles keys must be (src, dst) rank pairs")

    # ------------------------------------------------------------------
    # deterministic sampling
    # ------------------------------------------------------------------
    def _rng(self, *key: Any) -> np.random.Generator:
        """A generator keyed purely by ``(seed, key)`` — stable across runs
        and independent of call order."""
        entropy: List[int] = [int(self.seed) & 0xFFFFFFFF]
        for part in key:
            if isinstance(part, str):
                part = zlib.crc32(part.encode("utf-8"))
            entropy.append(int(part) & 0xFFFFFFFF)
        return np.random.default_rng(np.random.SeedSequence(entropy))

    def message_fate(self, round_index: int, attempt: int, src: int, dst: int,
                     tag: str) -> Tuple[str, int]:
        """Fate of one delivery attempt: ``("deliver", extra_rounds)`` or
        ``("drop", 0)`` (timeouts are reported as drops)."""
        rng = self._rng("msg", round_index, attempt, src, dst, tag)
        u = rng.random()
        if u < self.drop_rate:
            return "drop", 0
        if u < self.drop_rate + self.delay_rate:
            lateness = 1 + int(rng.integers(self.max_delay_rounds))
            if lateness > self.timeout_rounds:
                return "drop", 0  # timed out waiting
            return "deliver", lateness
        return "deliver", 0

    def straggler_factor(self, iteration: int, worker: int) -> float:
        """Compute slowdown factor of ``worker`` at ``iteration`` (1.0 for
        non-stragglers)."""
        if self.straggler_rate == 0.0:
            return 1.0
        rng = self._rng("straggle", iteration, worker)
        if rng.random() >= self.straggler_rate:
            return 1.0
        return 1.0 + rng.random() * (self.straggler_slowdown - 1.0)

    def straggler_factors(self, iteration: int, num_workers: int) -> List[float]:
        """Per-worker slowdown factors for one iteration."""
        return [self.straggler_factor(iteration, worker)
                for worker in range(num_workers)]

    # ------------------------------------------------------------------
    # heterogeneity and membership
    # ------------------------------------------------------------------
    def heterogeneous_network(self, num_workers: int,
                              default: NetworkProfile) -> HeterogeneousNetwork:
        """Per-worker ingress profiles implied by this plan.

        A worker's profile is its ``worker_profiles`` override (or
        ``default``); every ``link_profiles`` entry targeting the worker
        worsens it conservatively — element-wise maximum of alpha and beta
        — because in the bulk-synchronous model a round is paced by the
        slowest path into each receiver.
        """
        overrides: Dict[int, NetworkProfile] = {}
        for worker in range(num_workers):
            profile = self.worker_profiles.get(worker, default)
            for (src, dst), link in self.link_profiles.items():
                if dst == worker:
                    profile = NetworkProfile(
                        name=f"{profile.name}-ingress",
                        alpha=max(profile.alpha, link.alpha),
                        beta=max(profile.beta, link.beta),
                    )
            if profile is not default:
                overrides[worker] = profile
        return HeterogeneousNetwork(default=default, overrides=overrides)

    def events_at(self, iteration: int) -> List[MembershipEvent]:
        """Membership events scheduled before step ``iteration``, in
        declaration order."""
        return [event for event in self.events if event.iteration == iteration]

    @property
    def injects_message_faults(self) -> bool:
        """True when any exchange can deviate from the reliable path."""
        return self.drop_rate > 0.0 or self.delay_rate > 0.0
