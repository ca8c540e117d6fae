"""The staged synchronisation pipeline: stages, step context and sessions.

The paper's method is a pipeline — residual add, top-k select, SRS
exchange, residual update — and every synchroniser in this repository now
exposes those boundaries explicitly instead of hiding them inside one
opaque ``synchronize()`` call.  A step runs five stages in order:

``select``
    Apply stored residuals to the new local gradients and perform the
    method's local selection (top-k, threshold pruning, or — for methods
    whose selection is interleaved with communication, like SparDL's
    block-wise SRS top-k — just the residual add).
``compress``
    Turn the selection into its wire representation: quantize it with the
    synchroniser's optional
    :class:`~repro.compression.quantization.QuantizedCompressor`
    (``sync.stack``), which returns ``(payload, error)`` with ``payload +
    error`` equal to the input, the error staying in the residual store.
    Without a quantizer this is the identity (COO sparse gradients already
    *are* the wire format); momentum correction acts through the residual
    manager, never on the payload.
``exchange``
    The method-specific communication.  All cluster traffic of a step
    happens here.
``combine``
    Merge the exchanged pieces into the per-worker global gradients and
    assemble the step's diagnostics.
``residual_update``
    Resolve the residual state against the final global index set
    (error-feedback bookkeeping for the next iteration).

:class:`StepContext` is the mutable record the stages pass along;
:class:`SyncSession` is the stateful driver that runs the stages step
after step, carrying the schedule-resolved ``k`` and the cumulative
:class:`~repro.comm.stats.CommStats` across steps.  The legacy
``GradientSynchronizer.synchronize()`` remains as a thin adapter over the
same staged driver, so the two paths are bit-identical by construction (asserted method-by-method in ``tests/test_pipeline_equivalence.py``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from ..comm.packed import PackedBags
from ..comm.stats import CommStats
from .schedules import KSchedule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..comm.transport import Message
    from .base import GradientSynchronizer, SyncResult
    from .residuals import ResidualManager

__all__ = ["SyncStage", "PIPELINE_STAGES", "StepContext", "SyncSession",
           "fold_lost_messages"]


class SyncStage(str, Enum):
    """The five stages of one synchronisation step, in execution order."""

    SELECT = "select"
    COMPRESS = "compress"
    EXCHANGE = "exchange"
    COMBINE = "combine"
    RESIDUAL_UPDATE = "residual_update"


#: Execution order of the stages.
PIPELINE_STAGES = (
    SyncStage.SELECT,
    SyncStage.COMPRESS,
    SyncStage.EXCHANGE,
    SyncStage.COMBINE,
    SyncStage.RESIDUAL_UPDATE,
)


@dataclass
class StepContext:
    """Mutable state passed through the stages of one step.

    Each stage reads the fields the previous stages produced and writes its
    own; ``scratch`` holds method-private intermediates (SRS/SAG outputs,
    short-circuit flags) that do not belong to the protocol.
    """

    #: Per-worker dense input gradients (float64, validated).
    gradients: Dict[int, np.ndarray]
    #: The schedule-resolved ``k`` of this step (``None`` for dense methods).
    k: Optional[int]
    #: 0-based iteration index of this step.
    iteration: int
    #: Output of ``select``: per-worker selection (sparse, or dense pass-through).
    selected: Any = None
    #: Output of ``compress``: the wire representation (default: ``selected``).
    wire: Any = None
    #: Output of ``exchange``: method-specific gathered/reduced payloads.
    exchanged: Any = None
    #: Per-worker final sparse gradients, when the method is sparse.
    global_sparse: Optional[Dict[int, Any]] = None
    #: Per-worker final dense global gradients (set by ``combine``).
    global_gradients: Optional[Dict[int, np.ndarray]] = None
    #: The final sparse gradient whose index set drives ``residual_update``.
    reference: Any = None
    #: Step diagnostics collected into ``SyncResult.info``.
    info: Dict[str, Any] = field(default_factory=dict)
    #: Method-private intermediates (not part of the stage protocol).
    scratch: Dict[str, Any] = field(default_factory=dict)


#: Signature of a per-stage observer: ``hook(stage, context)``.
StageHook = Callable[[SyncStage, StepContext], None]


def fold_lost_messages(lost: Sequence["Message"],
                       residuals: "ResidualManager") -> float:
    """Fold the gradient mass of lost messages into the senders' residuals.

    Each lost message's sparse payload is collected as a *procedure discard*
    of its sender — exactly how the residual policy treats any other value
    dropped during communication — so the conservation invariant
    ``sum_w residual_w + global == sum_w input`` keeps holding under faults
    (under GRES exactly; PRES/LRES degrade it no further than they already
    do for ordinary discards).  Returns the L1 mass folded, for diagnostics.
    """
    mass = 0.0
    for message in lost:
        if not isinstance(message.payload, PackedBags):
            raise TypeError(
                f"cannot fold lost payload of type {type(message.payload).__name__} "
                "into the residual path; lossy messages must carry PackedBags")
        for sparse in message.payload.to_list():
            residuals.collect_procedure(message.src, sparse)
            if sparse.nnz:
                mass += float(np.abs(sparse.values).sum())
    return mass


class SyncSession:
    """Stateful driver of the staged pipeline for one synchroniser.

    A session owns the cross-step state the one-shot ``synchronize()``
    call hides: the ``k`` each step resolved through the synchroniser's
    :class:`~repro.core.schedules.KSchedule`, and the cumulative
    :class:`~repro.comm.stats.CommStats` over every step driven so far
    (the iteration count is the synchroniser's own).  Per-stage hooks
    observe the :class:`StepContext` after each stage — the boundary that
    per-stage timing, logging and the bucketing layer build on.

    Parameters
    ----------
    synchronizer:
        The :class:`~repro.core.base.GradientSynchronizer` to drive.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`.  When set (directly, or
        inherited from ``synchronizer.tracer`` as installed by
        ``repro.obs.attach_tracer`` / ``trace=`` on the facade spec), every
        step records an ``iteration``-category step span containing one
        ``stage`` span per pipeline stage.  ``None`` (the default) keeps
        the exact untraced code path.

    >>> import numpy as np
    >>> from repro import SimulatedCluster, SparDLConfig, SparDLSynchronizer
    >>> from repro.core.pipeline import SyncSession
    >>> cluster = SimulatedCluster(4)
    >>> sync = SparDLSynchronizer(cluster, 1000, SparDLConfig(density=0.01))
    >>> session = SyncSession(sync)
    >>> grads = {w: np.random.default_rng(w).normal(size=1000) for w in range(4)}
    >>> result = session.step(grads)
    >>> session.iteration, session.resolved_k
    (1, 10)
    """

    def __init__(self, synchronizer: "GradientSynchronizer",
                 tracer: Optional[Any] = None) -> None:
        self.synchronizer = synchronizer
        #: The ``k`` the schedule resolved for the most recent step.
        self.resolved_k: Optional[int] = None
        #: Per-step history of the resolved ``k``.
        self.k_history: List[Optional[int]] = []
        #: Communication accounting accumulated over every step.
        self.cumulative_stats = CommStats(num_workers=synchronizer.num_workers)
        #: The most recent step's result.
        self.last_result: Optional["SyncResult"] = None
        #: Tracer recording step/stage spans (``None`` = untraced path).
        self.tracer = tracer if tracer is not None else getattr(
            synchronizer, "tracer", None)
        #: Label distinguishing this session's spans (set on the inner
        #: sessions of a bucketed synchroniser, one per planned bucket:
        #: ``g0``, ``g1``, ...).
        self.trace_label: Optional[str] = None
        #: Stage hooks that raised (errors are contained, counted, and
        #: warned about once — a misbehaving observer must not corrupt the
        #: step's residual bookkeeping mid-pipeline).
        self.hook_errors = 0
        self._hook_error_warned = False
        self._stage_hooks: List[StageHook] = []

    # ------------------------------------------------------------------
    @property
    def num_workers(self) -> int:
        return self.synchronizer.num_workers

    @property
    def num_elements(self) -> int:
        return self.synchronizer.num_elements

    @property
    def schedule(self) -> Optional[KSchedule]:
        return self.synchronizer.schedule

    @property
    def iteration(self) -> int:
        """Steps the synchroniser has run (its counter is the only one)."""
        return self.synchronizer.iteration

    def add_stage_hook(self, hook: StageHook) -> None:
        """Register ``hook(stage, context)`` to run after every stage."""
        self._stage_hooks.append(hook)

    # ------------------------------------------------------------------
    def poll_membership(self) -> bool:
        """Apply membership events the installed fault plan schedules before
        the next step (delegates to the synchroniser).

        Call *before* building the step's gradients: a crash or join changes
        :attr:`num_workers`, and :meth:`step` expects one gradient per rank
        of the membership in force.  Returns True when membership changed.
        """
        return self.synchronizer.poll_membership()

    def step(self, gradients: Dict[int, np.ndarray]) -> "SyncResult":
        """Run one full pipeline step and update the session state."""
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            result = self._traced_step(gradients, tracer)
        else:
            observer = self._notify if self._stage_hooks else None
            result = self.synchronizer._step(gradients, observer=observer)
        self.resolved_k = self.synchronizer.k
        self.k_history.append(self.resolved_k)
        # Elastic membership: accumulate across different worker counts by
        # expanding whichever side is narrower to the widest seen so far.
        stats = result.stats
        if stats.num_workers > self.cumulative_stats.num_workers:
            self.cumulative_stats.expand(stats.num_workers)
        elif stats.num_workers < self.cumulative_stats.num_workers:
            stats = stats.copy()
            stats.expand(self.cumulative_stats.num_workers)
        self.cumulative_stats.merge(stats)
        self.last_result = result
        return result

    def _traced_step(self, gradients: Dict[int, np.ndarray],
                     tracer: Any) -> "SyncResult":
        """One step with per-stage spans: the observer that already fires at
        every stage boundary doubles as the span clock, so tracing adds two
        timer reads per stage and nothing to the stage bodies."""
        label = self.trace_label
        suffix = "" if label is None else f":{label}"
        iteration = self.iteration
        start = tracer.now_us()
        cursor = [start]

        def observer(stage: SyncStage, context: StepContext) -> None:
            now = tracer.now_us()
            tracer.complete(f"{stage.value}{suffix}", "stage", cursor[0],
                            now - cursor[0], args={"iteration": iteration})
            cursor[0] = now
            if self._stage_hooks:
                self._notify(stage, context)

        result = self.synchronizer._step(gradients, observer=observer)
        end = tracer.now_us()
        k = self.synchronizer.k
        tracer.complete(f"step{suffix}", "iteration", start, end - start,
                        args={"iteration": iteration,
                              "method": self.synchronizer.name,
                              "k": None if k is None else int(k)})
        tracer.metrics.counter("steps_total", method=self.synchronizer.name).inc()
        tracer.metrics.histogram("step_wall_us").observe(end - start)
        if k is not None:
            tracer.metrics.gauge("resolved_k").set(int(k))
        return result

    def _notify(self, stage: SyncStage, context: StepContext) -> None:
        for hook in self._stage_hooks:
            try:
                hook(stage, context)
            except Exception as error:
                # A broken observer must not abort the pipeline mid-step
                # (the residual update of this step has not run yet, so
                # propagating here would leave error-feedback state torn).
                self.hook_errors += 1
                if self.tracer is not None and getattr(self.tracer, "enabled", False):
                    self.tracer.metrics.counter("hook_errors").inc()
                if not self._hook_error_warned:
                    self._hook_error_warned = True
                    warnings.warn(
                        f"stage hook {hook!r} raised {error!r} after stage "
                        f"{stage.value!r}; the error is contained and counted "
                        "in SyncSession.hook_errors (warning once)",
                        RuntimeWarning, stacklevel=3)

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """Cross-step summary: steps, cumulative comm cost, k trajectory."""
        ks = [k for k in self.k_history if k is not None]
        return {
            "method": self.synchronizer.name,
            "steps": self.iteration,
            "rounds": self.cumulative_stats.rounds,
            "total_volume": self.cumulative_stats.total_volume,
            "max_received": self.cumulative_stats.max_received,
            "k_first": ks[0] if ks else None,
            "k_last": ks[-1] if ks else None,
            "hook_errors": self.hook_errors,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SyncSession({self.synchronizer!r}, steps={self.iteration}, "
                f"k={self.resolved_k})")
