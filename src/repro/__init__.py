"""Reproduction of SparDL: Distributed Deep Learning Training with Efficient
Sparse Communication (ICDE 2024).

The package is organised as a set of substrates topped by the paper's
contribution:

* :mod:`repro.comm` — the :class:`~repro.comm.transport.Transport` protocol
  with its two execution backends (the deterministic in-process simulator
  and the real-OS-process backend), the alpha-beta cost model and the dense
  collective algorithms (Bruck All-Gather, ring / Rabenseifner All-Reduce).
* :mod:`repro.sparse` — COO sparse gradients, top-k selection and block
  layouts.
* :mod:`repro.core` — SparDL itself: Spar-Reduce-Scatter, Spar-All-Gather
  (R-SAG / B-SAG), global residual collection and the
  :class:`~repro.core.spardl.SparDLSynchronizer` framework.
* :mod:`repro.baselines` — TopkA, TopkDSA, gTopk, Ok-Topk and the dense
  All-Reduce baseline behind the same synchroniser interface.
* :mod:`repro.nn` / :mod:`repro.data` — a NumPy deep-learning substrate and
  synthetic datasets standing in for the paper's PyTorch models and
  real-world data.
* :mod:`repro.training` — the data-parallel S-SGD trainer over the simulated
  cluster, per-iteration simulated timing and the seven evaluation cases.
* :mod:`repro.analysis` — the closed-form complexity of Table I and report
  formatting helpers.
* :mod:`repro.obs` — the observability subsystem: structured trace spans
  and instant markers (:class:`~repro.obs.Tracer`), a labelled metrics
  registry, and Chrome trace-event export for every seam above.

Quickstart
----------
>>> import numpy as np
>>> from repro import SimulatedCluster, SparDLConfig, SparDLSynchronizer
>>> cluster = SimulatedCluster(num_workers=4)
>>> sync = SparDLSynchronizer(cluster, num_elements=1000,
...                           config=SparDLConfig(density=0.01))
>>> grads = {w: np.random.default_rng(w).normal(size=1000) for w in range(4)}
>>> result = sync.synchronize(grads)
>>> result.is_consistent
True
"""

from .comm import (
    ETHERNET,
    PERFECT,
    RDMA,
    CommStats,
    FaultPlan,
    HeterogeneousNetwork,
    MembershipEvent,
    MultiprocessCluster,
    NetworkProfile,
    RetryPolicy,
    SimulatedCluster,
    Transport,
    make_transport,
    transport_spec,
)
from .core import (
    BucketedSynchronizer,
    ConstantSchedule,
    GradientSynchronizer,
    KSchedule,
    ResidualManager,
    ResidualPolicy,
    SAGMode,
    SparDLConfig,
    SparDLSynchronizer,
    SyncResult,
    SyncSession,
    SyncStage,
    WarmupSchedule,
)
from .obs import MetricsRegistry, TraceLevel, Tracer
from .sparse import BlockLayout, SparseGradient

__version__ = "1.4.0"

__all__ = [
    "__version__",
    "Transport",
    "SimulatedCluster",
    "MultiprocessCluster",
    "make_transport",
    "transport_spec",
    "CommStats",
    "FaultPlan",
    "MembershipEvent",
    "RetryPolicy",
    "NetworkProfile",
    "HeterogeneousNetwork",
    "ETHERNET",
    "RDMA",
    "PERFECT",
    "SparseGradient",
    "BlockLayout",
    "GradientSynchronizer",
    "SyncResult",
    "SyncSession",
    "SyncStage",
    "KSchedule",
    "ConstantSchedule",
    "WarmupSchedule",
    "BucketedSynchronizer",
    "ResidualManager",
    "ResidualPolicy",
    "SAGMode",
    "SparDLConfig",
    "SparDLSynchronizer",
    "Tracer",
    "TraceLevel",
    "MetricsRegistry",
]
