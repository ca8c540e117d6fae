"""Common interface for gradient synchronisation methods.

Every communication method in this repository — SparDL and all baselines —
implements :class:`GradientSynchronizer`: given the local dense gradient of
every worker it returns the synchronised (summed) global gradient each worker
ends up holding, together with the communication statistics of the exchange.

Since the staged-pipeline redesign, a synchronisation is no longer one
opaque call: every method expresses itself as the five stages of
:mod:`repro.core.pipeline` (``select -> compress -> exchange -> combine ->
residual_update``) and the base class drives them.  :meth:`synchronize`
remains as a thin adapter over the staged driver, so existing callers and
tests run unchanged, while sessions (:class:`~repro.core.pipeline.SyncSession`),
sparsity schedules (:mod:`repro.core.schedules`) and per-layer bucketing
(:mod:`repro.core.bucketed`) hook the stage boundaries directly.

Keeping a single interface lets the distributed trainer, the examples and
every benchmark swap methods freely, exactly as the paper swaps its
communication backends.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Optional

import numpy as np

from ..comm.transport import Transport, payload_size
from ..comm.faults import membership_transition
from ..comm.stats import CommStats
from ..compression.quantization import QuantizedCompressor
from .pipeline import PIPELINE_STAGES, StepContext, SyncStage, fold_lost_messages
from .schedules import KSchedule, resolve_k

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .residuals import ResidualManager

__all__ = ["SyncResult", "GradientSynchronizer", "resolve_k",
           "shared_dense_gradients"]


def shared_dense_gradients(global_sparse: Dict[int, Any]) -> Dict[int, np.ndarray]:
    """Densify per-worker sparse results without materialising ``P`` copies
    of one gradient.

    The first worker's result is densified once, marked read-only, and the
    same array is handed to every worker whose indices and values equal it
    (an O(k) check per worker, so :attr:`SyncResult.is_consistent` still
    means something); a worker that differs gets its own array.
    """
    reference = next(iter(global_sparse.values()))
    shared = reference.to_dense()
    shared.flags.writeable = False
    dense = {}
    for rank, sparse in global_sparse.items():
        if sparse is reference or (
                np.array_equal(sparse.indices, reference.indices)
                and np.array_equal(sparse.values, reference.values)):
            dense[rank] = shared
        else:
            dense[rank] = sparse.to_dense()
            dense[rank].flags.writeable = False
    return dense


@dataclass
class SyncResult:
    """Outcome of one gradient synchronisation."""

    #: Per-worker dense global gradient (sum over all workers' contributions).
    #: Every built-in method hands agreeing workers the *same* read-only
    #: array (``.copy()`` it before writing).
    global_gradients: Dict[int, np.ndarray]
    #: Communication accounting for this synchronisation only.
    stats: CommStats
    #: Method-specific diagnostics (final nnz, thresholds, team size, ...).
    info: Dict[str, Any] = field(default_factory=dict)

    def gradient(self, worker: int = 0) -> np.ndarray:
        return self.global_gradients[worker]

    @property
    def is_consistent(self) -> bool:
        """True when every worker holds exactly the same global gradient
        (the same array, or an equal one)."""
        ranks = sorted(self.global_gradients)
        reference = self.global_gradients[ranks[0]]
        return all(
            self.global_gradients[rank] is reference
            or np.array_equal(self.global_gradients[rank], reference)
            for rank in ranks[1:]
        )


class GradientSynchronizer(ABC):
    """Base class for dense and sparse All-Reduce methods.

    Subclasses implement the stage methods (``stage_exchange`` and
    ``stage_combine`` are mandatory; ``stage_select``, ``stage_compress``
    and ``stage_residual_update`` default to the dense pass-through /
    no-op) and, when they support sparsity schedules, :meth:`set_sparsity`.
    """

    #: Short human-readable name used in reports and figures.
    name: str = "synchronizer"
    #: The per-worker selection budget of the current step (``None`` for
    #: methods without a sparsity knob, e.g. Dense).
    k: Optional[int] = None
    #: The error-feedback state (``None`` for methods without one).
    residuals: Optional["ResidualManager"] = None

    def __init__(self, cluster: Transport, num_elements: int,
                 schedule: Optional[KSchedule] = None) -> None:
        if num_elements <= 0:
            raise ValueError("num_elements must be positive")
        self.cluster = cluster
        self.num_elements = int(num_elements)
        self.iteration = 0
        #: Sparsity schedule consulted at the start of every step
        #: (``None`` for methods without a sparsity knob, e.g. Dense).
        self.schedule: Optional[KSchedule] = schedule
        #: The value quantizer of the ``compress`` stage, built by
        #: subclasses from ``num_bits`` (``None`` keeps the identity
        #: compress stage and the full-precision accounting — the
        #: pre-compression pipeline, bit for bit).
        self.stack: Optional[QuantizedCompressor] = None
        #: Tracer installed by ``repro.obs.attach_tracer`` / ``trace=`` on
        #: the facade spec (``None`` keeps the untraced code path).
        self.tracer: Optional[Any] = None
        # Iteration up to which membership events have been applied, so
        # polling twice before the same step never applies an event twice.
        self._membership_polled = -1

    @property
    def num_workers(self) -> int:
        return self.cluster.num_workers

    # ------------------------------------------------------------------
    # momentum correction and compression
    # ------------------------------------------------------------------
    @staticmethod
    def _momentum_factor(momentum: Optional[float]) -> float:
        """The residual manager's factor for a constructor's ``momentum=``:
        DGC momentum correction at a factor in (0, 1), or ``None`` for
        none (0.0)."""
        if momentum is None:
            return 0.0
        if not 0.0 < float(momentum) < 1.0:
            raise ValueError("momentum factor must be in (0, 1)")
        return float(momentum)

    def _configure_compression(self, num_bits: Optional[int],
                               streams: int = 1) -> None:
        """Constructor ``num_bits=``: a value quantizer with ``streams``
        random streams per worker (one per separately selected tensor).
        ``None`` leaves it off, bit for bit."""
        if num_bits is not None:
            self.stack = QuantizedCompressor(num_bits, self.num_workers,
                                             streams=streams)

    # ------------------------------------------------------------------
    # the staged pipeline
    # ------------------------------------------------------------------
    def synchronize(self, gradients: Dict[int, np.ndarray]) -> SyncResult:
        """Synchronise the workers' local gradients.

        ``gradients`` maps every worker rank to its local dense gradient of
        length ``num_elements``.  This is a thin adapter over the staged
        pipeline driver (:meth:`_step`): the concrete algorithm runs inside
        a fresh statistics window so the returned :class:`SyncResult`
        accounts for this call only.
        """
        return self._step(gradients)

    def _step(self, gradients: Dict[int, np.ndarray], observer=None) -> SyncResult:
        """Run one full pipeline step: resolve ``k`` through the schedule,
        drive the five stages inside a fresh statistics window, and advance
        the iteration counter.

        ``observer`` (``hook(stage, context)``) is invoked after every
        stage; :class:`~repro.core.pipeline.SyncSession` uses it to expose
        the stage boundaries.
        """
        if self.schedule is not None:
            self._resolve_sparsity()
        self._validate(gradients)
        self.cluster.reset_stats()
        context = StepContext(
            gradients={rank: np.asarray(grad, dtype=np.float64)
                       for rank, grad in gradients.items()},
            k=self.k,
            iteration=self.iteration,
        )
        for stage in PIPELINE_STAGES:
            getattr(self, f"stage_{stage.value}")(context)
            if stage in (SyncStage.EXCHANGE, SyncStage.COMBINE):
                # Graceful degradation under faults: messages lost past the
                # retry budget surrender their mass to the senders' residual
                # stores before the residual state is resolved, so the
                # conservation invariant survives the loss.
                self._absorb_lost(context)
            if observer is not None:
                observer(stage, context)
        if self.stack is not None:
            context.info.setdefault("quantized_bits", self.stack.num_bits)
        if self.residuals is not None and self.residuals.momentum:
            # Only added when momentum correction is active, so momentum-off
            # runs keep their info dicts (and bit-identity gates) unchanged.
            context.info.setdefault("momentum", self.residuals.momentum)
        if "lost_messages" in context.scratch:
            # Copied from scratch because combine stages may rebuild
            # ``context.info`` wholesale after the exchange absorbed losses.
            context.info["lost_messages"] = context.scratch["lost_messages"]
            context.info["lost_mass"] = context.scratch["lost_mass"]
        result = SyncResult(
            global_gradients=context.global_gradients,
            stats=self.cluster.reset_stats(),
            info=context.info,
        )
        self.iteration += 1
        return result

    def _resolve_sparsity(self) -> None:
        """Adopt the ``k`` the schedule resolves for this iteration."""
        k = int(self.schedule.resolve(self.iteration, self.num_elements))
        if k != self.k:
            self.set_sparsity(k)

    def _compress_dense(self, context: StepContext) -> None:
        """``compress`` stage of a dense step: everything is sent, so each
        store hands its corrected buffer to the collective and keeps only
        the quantisation error of the send (nothing without a quantiser)."""
        context.wire = {}
        for rank, corrected in context.selected.items():
            error = None
            if self.stack is not None:
                corrected, error = self.stack.compress_dense(rank, corrected)
            self.residuals.release(rank, error)
            context.wire[rank] = corrected

    def _absorb_lost(self, context: StepContext) -> None:
        """Fold messages the cluster declared lost into the residual path."""
        lost = self.cluster.drain_lost()
        if not lost:
            return
        if self.residuals is None:
            raise RuntimeError(
                f"{type(self).__name__} lost {len(lost)} lossy message(s) but "
                "has no residual manager to absorb their mass; lossy "
                "messages require an error-feedback path")
        mass = fold_lost_messages(lost, self.residuals)
        context.scratch["lost_messages"] = (
            context.scratch.get("lost_messages", 0) + len(lost))
        context.scratch["lost_mass"] = (
            context.scratch.get("lost_mass", 0.0) + mass)

    # ------------------------------------------------------------------
    # elastic membership
    # ------------------------------------------------------------------
    def poll_membership(self) -> bool:
        """Apply membership events scheduled before the current iteration.

        Consults the cluster's installed fault plan; crash/join events keyed
        to :attr:`iteration` resolve through
        :func:`~repro.comm.faults.membership_transition` and are applied via
        :meth:`apply_membership`.  Call *between* steps, before building the
        next step's gradients — the worker count may change.  Idempotent per
        iteration.  Returns True when the membership changed.
        """
        plan = self.cluster.fault_plan
        if plan is None or not plan.events:
            return False
        if self.iteration <= self._membership_polled:
            return False
        self._membership_polled = self.iteration
        changed = False
        tracer = self.cluster.tracer
        for event in plan.events_at(self.iteration):
            old_size = self.num_workers
            new_size, mapping = membership_transition(self.num_workers, event)
            self.apply_membership(new_size, mapping)
            changed = True
            if tracer is not None:
                details = event.describe()
                tracer.record_membership(details.pop("kind"),
                                         old_workers=old_size,
                                         new_workers=new_size, **details)
        return changed

    def apply_membership(self, num_workers: int, mapping: Dict[int, int]) -> None:
        """Adopt a new cluster membership.

        ``mapping`` sends every old rank to the new rank inheriting its
        state (see :func:`~repro.comm.faults.membership_transition`).  The
        base implementation hands the residual stores (and momentum
        velocity) over, rebuilds the quantizer for the new worker count
        (same bits, seed and streams: the per-worker random streams restart,
        deterministically, at the transition) and then resizes the cluster;
        methods with more per-rank state (team partitions, block layouts,
        owner regions) override and rebuild it after.  Synchronisers sharing
        a cluster (the groups of a
        :class:`~repro.core.bucketed.BucketedSynchronizer`) each remap their
        own state; the first one resizes it.
        """
        if self.residuals is not None:
            self.residuals.remap_workers(num_workers, mapping)
        if self.stack is not None:
            self.stack = QuantizedCompressor(
                self.stack.num_bits, num_workers, seed=self.stack.seed,
                streams=self.stack.streams)
        if self.cluster.num_workers != num_workers:
            self.cluster.resize(num_workers)

    # ------------------------------------------------------------------
    # stage protocol (the SyncPipeline surface)
    # ------------------------------------------------------------------
    def stage_select(self, context: StepContext) -> None:
        """Residual-corrected local selection.  Default: dense pass-through
        (no residuals, no sparsification)."""
        context.selected = context.gradients

    def stage_compress(self, context: StepContext) -> None:
        """Wire encoding of the selection.  Default: identity — COO sparse
        gradients already are the wire format.  Hook point for quantisation."""
        context.wire = context.selected

    @abstractmethod
    def stage_exchange(self, context: StepContext) -> None:
        """The method-specific communication.  All cluster traffic of the
        step happens here; reads ``context.wire``, writes ``context.exchanged``."""

    @abstractmethod
    def stage_combine(self, context: StepContext) -> None:
        """Merge the exchanged pieces into ``context.global_gradients`` (and
        ``context.global_sparse`` / ``context.reference`` for sparse methods),
        and assemble ``context.info``."""

    def stage_residual_update(self, context: StepContext) -> None:
        """Resolve residual state against the final global index set.
        Default: no-op (methods without error feedback)."""

    # ------------------------------------------------------------------
    def wire_size(self, payload: Any) -> float:
        """Billed wire size of ``payload`` under the active compression.

        Every message a method sends is priced here when it is built (the
        collectives and SAG take it as ``price``), so one code path serves
        both the full-precision and the quantized accounting; sizes a
        payload cannot express (dense switching, fold-out subtraction) are
        computed from it.
        """
        if self.stack is not None:
            return self.stack.price(payload)
        return payload_size(payload)

    # ------------------------------------------------------------------
    def set_sparsity(self, k: int) -> None:
        """Adopt a new per-step ``k`` (called by the schedule resolution).

        Methods with a sparsity knob override this; the default refuses so
        a schedule attached to a dense method fails loudly.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support per-step sparsity")

    # ------------------------------------------------------------------
    def _validate(self, gradients: Dict[int, np.ndarray]) -> None:
        expected = set(self.cluster.ranks)
        provided = set(gradients)
        if provided != expected:
            raise ValueError(
                f"gradients must be provided for every worker: expected {sorted(expected)}, "
                f"got {sorted(provided)}"
            )
        for rank, grad in gradients.items():
            grad = np.asarray(grad)
            if grad.ndim != 1 or grad.shape[0] != self.num_elements:
                raise ValueError(
                    f"worker {rank}: gradient must be a vector of length {self.num_elements}"
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(P={self.num_workers}, n={self.num_elements})"
