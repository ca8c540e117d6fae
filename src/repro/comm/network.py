"""Network cost model (the classical alpha-beta model).

The paper analyses every communication algorithm with the latency-bandwidth
(alpha-beta) cost model [Hockney 1994]: a communication phase that takes
``x`` synchronous rounds and delivers ``y`` elements to the busiest worker
costs ``x * alpha + y * beta`` seconds.

This module provides :class:`NetworkProfile`, a small immutable description
of a network, plus the two profiles used in the paper's evaluation
(commodity Ethernet for the 14-worker cluster and InfiniBand RDMA for the
5-worker cluster).  Absolute constants are calibrated so that the *relative*
behaviour matches the paper: Ethernet is latency-heavy, RDMA reduces both
terms by more than an order of magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

__all__ = [
    "NetworkProfile",
    "HeterogeneousNetwork",
    "ETHERNET",
    "RDMA",
    "PERFECT",
]


@dataclass(frozen=True)
class NetworkProfile:
    """An alpha-beta description of a cluster interconnect.

    Parameters
    ----------
    name:
        Human readable identifier used in reports.
    alpha:
        Latency cost of one synchronous communication round, in seconds.
    beta:
        Transfer cost of one element (one 32-bit value or one index), in
        seconds per element.
    """

    name: str
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be non-negative")

    def time(self, rounds: float, volume: float) -> float:
        """Total time of ``rounds`` rounds delivering ``volume`` elements to
        the busiest worker overall (aggregate form of the model)."""
        return self.alpha * float(rounds) + self.beta * float(volume)

    def scaled(self, *, alpha_factor: float = 1.0, beta_factor: float = 1.0,
               name: str | None = None) -> "NetworkProfile":
        """Return a new profile with scaled latency and/or bandwidth cost.

        The derived name comes from the *base* profile, so scaling an
        already-scaled profile yields ``"ethernet-scaled"`` again rather
        than accumulating ``-scaled-scaled-...`` suffixes.
        """
        for factor_name, factor in (("alpha_factor", alpha_factor),
                                    ("beta_factor", beta_factor)):
            if not (math.isfinite(factor) and factor >= 0):
                raise ValueError(
                    f"{factor_name} must be finite and non-negative, got {factor!r}")
        base = self.name
        if base.endswith("-scaled"):
            base = base[: -len("-scaled")]
        return NetworkProfile(
            name=name or f"{base}-scaled",
            alpha=self.alpha * alpha_factor,
            beta=self.beta * beta_factor,
        )


@dataclass(frozen=True)
class HeterogeneousNetwork:
    """A cluster whose workers see different alpha-beta costs.

    Where :class:`NetworkProfile` prices every round by the single busiest
    receiver, a heterogeneous network prices a bulk-synchronous round as the
    **maximum over per-worker critical paths**: worker ``w`` finishes its
    round after ``alpha_w + beta_w * received_w`` seconds, and the round —
    being synchronous — ends when the slowest worker does.

    Parameters
    ----------
    default:
        Profile of every worker without an override.
    overrides:
        ``{rank: NetworkProfile}`` for the heterogeneous workers (slow NICs,
        congested ingress links, ...).
    """

    default: NetworkProfile
    overrides: Mapping[int, NetworkProfile] = field(default_factory=dict)

    def profile_for(self, worker: int) -> NetworkProfile:
        return self.overrides.get(worker, self.default)

    def slowest(self) -> NetworkProfile:
        """The slowest profile the network holds: the largest alpha and the
        largest beta over ``default`` and ``overrides`` (``default`` itself
        when no override is slower).  A round priced on it bounds
        :meth:`round_time` from above, exactly when every worker receives
        the same volume."""
        profiles = [self.default, *self.overrides.values()]
        alpha = max(profile.alpha for profile in profiles)
        beta = max(profile.beta for profile in profiles)
        if (alpha, beta) == (self.default.alpha, self.default.beta):
            return self.default
        return NetworkProfile(name=f"{self.default.name}-slowest", alpha=alpha, beta=beta)

    def round_time(self, received: Sequence[float],
                   volume_scale: float = 1.0) -> float:
        """Time of one synchronous round given each worker's received
        volume: the slowest per-worker critical path."""
        if len(received) == 0:
            return self.default.alpha
        return max(
            self.profile_for(worker).alpha
            + self.profile_for(worker).beta * volume_scale * float(volume)
            for worker, volume in enumerate(received)
        )


#: Commodity 10GbE-class network with MPI software overheads; the default
#: profile for the paper's 14-worker cluster experiments.  The constants are
#: calibrated so that a ~20M-parameter model at k/n = 1% reproduces the
#: relative per-update times of the paper's Fig. 8 (latency a couple of
#: milliseconds per round, a few tens of nanoseconds per transferred element).
ETHERNET = NetworkProfile(name="ethernet", alpha=2.0e-3, beta=3.0e-8)

#: InfiniBand network with RDMA transfers; used for the paper's Section IV-J
#: experiments (5 workers, A800 GPUs).
RDMA = NetworkProfile(name="rdma", alpha=5.0e-5, beta=2.0e-9)

#: An idealised network where communication is free.  Useful in tests to
#: isolate algorithmic behaviour from the cost model.
PERFECT = NetworkProfile(name="perfect", alpha=0.0, beta=0.0)
