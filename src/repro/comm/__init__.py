"""Communication substrate: transports, cost model and collectives.

The :class:`~repro.comm.transport.Transport` protocol names the execution
boundary; two backends implement it — the deterministic in-process
:class:`~repro.comm.cluster.SimulatedCluster` reference and the
process-backed :class:`~repro.comm.mp_backend.MultiprocessCluster`.
"""

from .cluster import Message, SimulatedCluster, freeze_payload, payload_size
from .mp_backend import MultiprocessCluster
from .transport import (
    Transport,
    make_transport,
    parse_backend_spec,
    transport_spec,
)
from .collectives import (
    allgather_bruck_grouped,
    allreduce_dense,
    allreduce_rabenseifner,
    allreduce_ring,
)
from .faults import FaultPlan, MembershipEvent, RetryPolicy, membership_transition
from .network import ETHERNET, PERFECT, RDMA, HeterogeneousNetwork, NetworkProfile
from .packed import PackedBags
from .stats import CommStats

__all__ = [
    "Message",
    "Transport",
    "SimulatedCluster",
    "MultiprocessCluster",
    "make_transport",
    "parse_backend_spec",
    "transport_spec",
    "payload_size",
    "freeze_payload",
    "PackedBags",
    "CommStats",
    "FaultPlan",
    "MembershipEvent",
    "RetryPolicy",
    "membership_transition",
    "NetworkProfile",
    "HeterogeneousNetwork",
    "ETHERNET",
    "RDMA",
    "PERFECT",
    "allgather_bruck_grouped",
    "allreduce_dense",
    "allreduce_rabenseifner",
    "allreduce_ring",
]
