"""Residual collection (error feedback) strategies.

Top-k sparsification discards gradient mass; error feedback keeps the
discarded values as *residuals* and adds them back to the next iteration's
gradients so nothing is permanently lost.  The paper distinguishes three
kinds of discarded gradients inside SparDL (Section III-C):

* **local residuals** — dropped by a worker's own block-wise top-k *before*
  any transmission,
* **end-procedure residuals** — dropped during the communication procedure,
  whose indices never appear in the final global gradient,
* **in-procedure residuals** — dropped during the procedure although their
  index *does* appear in the final global gradient (contributed by another
  worker).

Three policies are provided, matching the paper's Section IV-I ablation:

* :class:`ResidualPolicy.GLOBAL` (GRES, the paper's contribution) collects
  all three kinds.  Collection is event-driven: every discarded value is
  accumulated on the worker that performed the discard, which yields the
  conservation invariant ``sum_w residual_w + global = sum_w input``.
* :class:`ResidualPolicy.PARTIAL` (PRES, as in Ok-Topk / gTopk) collects
  local and end-procedure residuals only.
* :class:`ResidualPolicy.LOCAL` (LRES, as in DGC) collects local residuals
  only.
* :class:`ResidualPolicy.NONE` disables error feedback entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from . import rank_pool
from ..sparse.ckernels import get_kernels
from ..sparse.topk import WarmTopK
from ..sparse.vector import SparseGradient

__all__ = ["ResidualPolicy", "ResidualStore", "ResidualManager"]


class ResidualPolicy(str, Enum):
    """Which discarded gradients are kept for the next iteration."""

    GLOBAL = "global"
    PARTIAL = "partial"
    LOCAL = "local"
    NONE = "none"

    @classmethod
    def coerce(cls, value: "ResidualPolicy | str") -> "ResidualPolicy":
        if isinstance(value, cls):
            return value
        return cls(str(value).lower())


class ResidualStore:
    """Dense per-worker accumulator of discarded gradient mass.

    ``data`` is the zeroed ``float64`` vector to accumulate in, when the
    owner holds one (a row of :class:`ResidualManager`'s slab).
    """

    def __init__(self, num_elements: int, data: Optional[np.ndarray] = None) -> None:
        if num_elements <= 0:
            raise ValueError("num_elements must be positive")
        self._data = np.zeros(num_elements) if data is None else data

    @property
    def num_elements(self) -> int:
        """Length of the underlying dense gradient vector (``int``)."""
        return self._data.shape[0]

    def add_dense(self, values: np.ndarray, offset: int = 0) -> None:
        """Accumulate a dense block ``values`` starting at ``offset``."""
        values = np.asarray(values, dtype=np.float64)
        self._data[offset:offset + values.shape[0]] += values

    def add_sparse(self, sparse: SparseGradient, share: float = 1.0) -> None:
        """Accumulate ``share * sparse`` with one sparse scatter."""
        if sparse.nnz == 0:
            return
        # SparseGradient indices are unique by invariant, so a direct
        # fancy-index add is exact and much faster than np.add.at.
        self._data[sparse.indices] += sparse.values * float(share)

    def peek(self) -> np.ndarray:
        """A copy of the current residual.  A copy, not a view: the buffer
        is corrected and selected from in place, so a view would change
        under a caller that snapshots state across a step."""
        return self._data.copy()

    def take(self, indices: np.ndarray) -> np.ndarray:
        """Remove the entries at ``indices`` (unique) and return their
        values; what stays behind is the residual of that selection."""
        values = self._data[indices]
        self._data[indices] = 0.0
        return values

    def norm(self) -> float:
        """L2 norm of the stored residual (``float``)."""
        return float(np.linalg.norm(self._data))


def _slab(num_workers: int, num_elements: int) -> np.ndarray:
    """Per-rank vectors as the rows of one array — allocated zeroed, not
    zero-filled: pages stay unmapped until a rank's first sweep, and one
    large allocation takes them as huge pages (docs/architecture.md §1)."""
    return np.zeros((num_workers, num_elements), dtype=np.float64)


def _accumulate(data: np.ndarray, gradient: np.ndarray,
                velocity: Optional[np.ndarray], momentum: float) -> None:
    """One rank's error-feedback add in NumPy: what the fused sweep equals
    bit for bit, and like it a rank-pool task (it touches its operands)."""
    if velocity is None:
        data += gradient
    else:
        velocity *= momentum
        velocity += gradient
        data += velocity


@dataclass
class _PendingDiscard:
    """Procedure discards whose fate depends on the final global indices:
    ``values`` at ``indices`` (unique, in any order)."""

    worker: int
    indices: np.ndarray
    values: np.ndarray
    share: float


class ResidualManager:
    """Collects discarded gradients according to a :class:`ResidualPolicy`.

    The manager owns one :class:`ResidualStore` per worker — rows of one
    slab, like the velocities, which :meth:`apply` sweeps side by side on
    the :mod:`~repro.core.rank_pool`.  A round uses it in three phases:

    1. :meth:`apply` adds the new local gradients *into* the stores and
       returns the stores' own buffers as the corrected vectors,
    2. a selection removes its picks from the store with :meth:`take` —
       what is left in the buffer *is* the local residual, nothing is copied
       out and added back (a dense path sends everything: :meth:`release`) —
       and :meth:`collect_procedure` / :meth:`collect_local_sparse` are
       called whenever a later sparsification or a quantiser discards values,
    3. :meth:`finalize` resolves held-back (PARTIAL-policy) discards once
       the final global gradient's index set is known.

    Ownership: the corrected vectors alias live state.  Between
    :meth:`apply` and the selection they hold ``gradient + residual``;
    afterwards the same arrays hold the residual and change with every
    collected discard.  Callers read them, select through :meth:`take`, and
    never write them; the gradient arrays passed to :meth:`apply` are never
    written.  A slot that was not selected keeps its sum bit for bit,
    the sign of a ``-0.0`` included.

    Parameters
    ----------
    num_workers:
        Number of per-worker stores to own (``int > 0``).
    num_elements:
        Gradient vector length of every store (``int > 0``).
    policy:
        Which discards to keep: a :class:`ResidualPolicy` or its string
        value (``"global"`` / ``"partial"`` / ``"local"`` / ``"none"``).
    momentum:
        DGC momentum-correction factor ``m`` in ``[0, 1)`` (Lin et al.,
        ICLR'18).  When positive, :meth:`apply` accumulates a per-worker
        *velocity* ``u = m * u + gradient`` and corrects with
        ``velocity + residual`` instead of ``gradient + residual``, so the
        residual store accumulates velocity rather than raw gradient — the
        momentum history of delayed coordinates survives sparsification.
        :meth:`finalize` applies DGC's *momentum factor masking*: velocity
        is zeroed at the final global index set (those coordinates were just
        applied, so their momentum restarts).  Dense synchronisation paths
        never call :meth:`finalize`, leave the velocity unmasked, and are
        therefore mathematically equivalent to naive momentum SGD.  The
        factor is fixed here, at construction.  The default 0.0 disables
        the mode and keeps every code path bit-identical to a manager built
        without the argument.
    """

    def __init__(self, num_workers: int, num_elements: int,
                 policy: ResidualPolicy | str = ResidualPolicy.GLOBAL,
                 momentum: float = 0.0) -> None:
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        self.policy = ResidualPolicy.coerce(policy)
        self.num_workers = num_workers
        self.num_elements = num_elements
        self._stores = self._new_stores(num_workers)
        #: Threads the last :meth:`apply` swept its ranks on (1: the caller's).
        self.sweep_workers = 1
        self._pending: List[_PendingDiscard] = []
        momentum = float(momentum)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.momentum = momentum
        #: Per-worker velocity ``u`` (allocated only when momentum > 0, so
        #: the momentum-off paths stay exactly the pre-momentum code).
        self._velocity: Optional[Dict[int, np.ndarray]] = (
            dict(enumerate(_slab(num_workers, num_elements))) if momentum else None)

    # ------------------------------------------------------------------
    # DGC momentum correction
    # ------------------------------------------------------------------
    def velocity(self, worker: int) -> Optional[np.ndarray]:
        """The worker's momentum velocity ``u`` (copy), or ``None`` when
        momentum correction is off."""
        if self._velocity is None:
            return None
        return self._velocity[worker].copy()

    def total_velocity(self) -> np.ndarray:
        """Coordinate-wise sum of all workers' velocities (zeros when
        momentum correction is off).  Used by the momentum conservation
        tests: with correction on, the invariant becomes
        ``global + residual_after == residual_before
        + momentum * velocity_before + sum_w gradient_w``."""
        total = np.zeros(self.num_elements, dtype=np.float64)
        if self._velocity is not None:
            for velocity in self._velocity.values():
                total += velocity
        return total

    # ------------------------------------------------------------------
    def _new_stores(self, num_workers: int) -> Dict[int, ResidualStore]:
        return {worker: ResidualStore(self.num_elements, row) for worker, row
                in enumerate(_slab(num_workers, self.num_elements))}

    def store(self, worker: int) -> ResidualStore:
        """The worker's :class:`ResidualStore`."""
        return self._stores[worker]

    def apply(self, gradients: Dict[int, np.ndarray],
              selector: Optional[WarmTopK] = None,
              bounds: Optional[np.ndarray] = None,
              ks: Optional[np.ndarray] = None) -> Dict[int, np.ndarray]:
        """Error-correct in place: add each gradient into its worker's store
        and return the stores' buffers (see the class notes on ownership).

        Without momentum correction the buffer becomes ``residual +
        gradient``.  With ``momentum > 0`` the per-worker velocity is
        advanced first (``u = m * u + gradient``) and added instead — the
        DGC recursion ``v_t = v_{t-1} + u_t`` with the residual store
        playing the role of the unsent accumulator ``v``.

        A caller that will select block-wise through a
        :class:`~repro.sparse.topk.WarmTopK` passes it with the segments'
        ``bounds`` (:attr:`~repro.sparse.blocks.BlockLayout.edges`) and the
        ``ks`` it will keep of each: where the kernels are compiled the add
        then runs as one fused sweep that also hands the selector each
        segment's candidates, keyed ``(worker, segment)`` — against the
        segment's cut, or one seeded in the sweep where it has none.
        :func:`_accumulate` is the reference it is bit-identical to.

        The ranks' adds, and only they, run side by side on the
        :mod:`~repro.core.rank_pool`: every sweep is planned here first
        (selector read, kernels probed, buffers allocated) and adopted here
        afterwards, in rank order; a task touches its own rank's rows and
        buffers and nothing else.  A task's exception is raised from here
        once all of them have finished.
        """
        corrected, tasks, adopts = {}, [], []
        for worker, gradient in gradients.items():
            data = corrected[worker] = self._stores[worker]._data
            operands = (data, np.asarray(gradient, dtype=np.float64),
                        None if self._velocity is None else self._velocity[worker],
                        self.momentum)
            plan = None if selector is None else selector.plan_accumulate(
                worker, bounds, ks, *operands)
            sweep, adopt = plan or (partial(_accumulate, *operands), None)
            tasks.append(sweep)
            adopts.append(adopt)
        scans, self.sweep_workers = rank_pool.run(tasks)
        for adopt, scan in zip(adopts, scans):
            if adopt is not None:
                adopt(scan)
        return corrected

    def buffers(self, workers: Sequence[int]) -> List[np.ndarray]:
        """The workers' store buffers, in order: what :meth:`apply` returned
        for them, under the same ownership rules (see the class notes)."""
        return [self._stores[worker]._data for worker in workers]

    def take(self, worker: int, indices: np.ndarray) -> SparseGradient:
        """Select ``indices`` (sorted, unique, global coordinates) out of
        the worker's corrected vector: returns them as a sparse gradient
        and zeroes those slots, leaving the local residual in the store."""
        return SparseGradient.from_sorted_unique(
            indices, self._stores[worker].take(indices), self.num_elements)

    def take_rows(self, workers: Sequence[int], indices: np.ndarray) -> np.ndarray:
        """:meth:`take` for several workers at once: row ``i`` of
        ``indices`` (unique global coordinates) is taken out of worker
        ``workers[i]``'s corrected vector; returns the values in the same
        ``(workers, picks)`` shape.  One compiled call (``take_rows_f64``)
        where the kernels are loaded, a gather and a scatter per worker
        otherwise; the same bits either way.  An index outside the vector
        raises ``IndexError`` before anything is taken."""
        values = np.empty(indices.shape)
        rows = self.buffers(workers)
        kernels = get_kernels()
        if kernels is not None:
            kernels.take_rows(rows, indices, values)
            return values
        if indices.size and not 0 <= indices.min() <= indices.max() < self.num_elements:
            raise IndexError("an index lies outside the rows")
        for picked, taken, data in zip(indices, values, rows):
            np.take(data, picked, out=taken)
            data[picked] = 0.0
        return values

    def release(self, worker: int, error: Optional[np.ndarray] = None) -> np.ndarray:
        """Dense paths send the whole corrected vector: hand the store's
        buffer to the caller and keep only ``error`` (the quantisation
        error of the send, adopted without a copy; nothing when ``None``)."""
        store = self._stores[worker]
        sent = store._data
        if error is None or self.policy is ResidualPolicy.NONE:
            error = np.zeros_like(sent)
        store._data = error
        return sent

    # ------------------------------------------------------------------
    # collection hooks
    # ------------------------------------------------------------------
    def collect_local(self, worker: int, residual_block: np.ndarray, offset: int = 0) -> None:
        """Accumulate a dense *local* residual block at ``offset``.  The
        in-tree selections leave theirs in place (:meth:`take`); this is the
        entry point for a residual computed outside the store."""
        if self.policy is ResidualPolicy.NONE:
            return
        self._stores[worker].add_dense(residual_block, offset)

    def collect_local_sparse(self, worker: int, dropped: SparseGradient, share: float = 1.0) -> None:
        """Sparse variant of :meth:`collect_local`.

        ``dropped`` is the discarded :class:`SparseGradient`; ``share`` is
        the fraction of it this worker keeps (1.0 unless several workers
        discard identical values).
        """
        if self.policy is ResidualPolicy.NONE:
            return
        self._stores[worker].add_sparse(dropped, share)

    def collect_procedure(self, worker: int, dropped: SparseGradient, share: float = 1.0) -> None:
        """Collect gradients discarded *during* the communication procedure.

        Under GRES they are stored on the discarding worker at once.  Under
        PRES they are
        held back until :meth:`finalize` decides whether they are
        end-procedure (kept) or in-procedure (dropped).  Under LRES / NONE
        they are discarded.
        """
        if dropped.nnz == 0:
            return
        if self.policy is ResidualPolicy.GLOBAL:
            self._stores[worker].add_sparse(dropped, share)
        elif self.policy is ResidualPolicy.PARTIAL:
            self.defer_procedure(worker, dropped.indices, dropped.values, share)
        # LOCAL and NONE intentionally drop procedure residuals.

    def defer_procedure(self, worker: int, indices: np.ndarray, values: np.ndarray,
                        share: float = 1.0) -> None:
        """Under PRES, hold back procedure discards of ``worker`` — ``values``
        at ``indices``, unique, in any order — until :meth:`finalize`; the
        batched form of :meth:`collect_procedure` for a caller that applies
        the policy itself."""
        self._pending.append(_PendingDiscard(worker, indices, values, share))

    def finalize(self, final_indices: Optional[Iterable[int]]) -> None:
        """Resolve PRES-pending discards given the final global index set.

        ``final_indices`` is the index set of the final global gradient (an
        ``np.ndarray`` or iterable of ints; ``None`` means empty).

        With momentum correction active, also applies DGC's *momentum factor
        masking*: every worker's velocity is zeroed at the final global
        indices, because those coordinates were just applied to the model and
        their momentum history must restart.  The ``dense`` method does not
        call :meth:`finalize` and so keeps its velocity — which is exactly
        what makes it equal to naive momentum SGD.
        """
        final: Optional[np.ndarray] = None
        needs_final = (self.policy is ResidualPolicy.PARTIAL
                       or self._velocity is not None)
        if needs_final:
            if final_indices is None:
                final = np.empty(0, dtype=np.int64)
            elif isinstance(final_indices, np.ndarray):
                final = final_indices.astype(np.int64, copy=False)
            else:
                final = np.fromiter((int(i) for i in final_indices),
                                    dtype=np.int64)
            # Uniquify once so every membership test below can use the fast
            # assume_unique path (pending indices are unique by invariant).
            # A sparse gradient's own index array already is; seeing that
            # costs one pass, sorting it again a hash or a sort.
            if final.shape[0] > 1 and not (final[1:] > final[:-1]).all():
                final = np.unique(final)
        if self.policy is ResidualPolicy.PARTIAL:
            for pending in self._pending:
                end_procedure = ~np.isin(pending.indices, final, assume_unique=True)
                if end_procedure.any():
                    self._stores[pending.worker]._data[pending.indices[end_procedure]] += (
                        pending.values[end_procedure] * float(pending.share))
        self._pending.clear()
        if self.policy is ResidualPolicy.NONE:
            # Nothing is fed back: drop what the selection left in place.
            for store in self._stores.values():
                store._data.fill(0.0)
        if self._velocity is not None and final is not None and final.size:
            for velocity in self._velocity.values():
                velocity[final] = 0.0

    # ------------------------------------------------------------------
    # elastic membership
    # ------------------------------------------------------------------
    def remap_workers(self, num_workers: int, mapping: Dict[int, int]) -> None:
        """Adopt a new worker count, handing residual state across ranks.

        ``mapping`` sends every *old* rank to the new rank inheriting its
        store (see :func:`~repro.comm.faults.membership_transition`: a
        crashed rank maps onto a survivor, which absorbs its residual so no
        gradient mass leaves the system; joins map identically and the new
        rank starts empty).  PRES-pending discards follow their worker, so
        conservation holds exactly across the transition.
        Momentum-correction velocity state is handed off the same way: a
        crashed rank's velocity is summed onto its successor's (momentum
        history is conserved alongside the residual mass) and joining ranks
        start from zero velocity.
        """
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        new_stores = self._new_stores(num_workers)
        new_velocity: Optional[Dict[int, np.ndarray]] = None
        if self._velocity is not None:
            new_velocity = dict(enumerate(_slab(num_workers, self.num_elements)))
        for old, store in self._stores.items():
            if old not in mapping:
                raise ValueError(f"mapping does not cover old rank {old}")
            new = mapping[old]
            if not 0 <= new < num_workers:
                raise ValueError(
                    f"old rank {old} maps to {new}, outside the new "
                    f"membership of {num_workers} workers")
            new_stores[new]._data += store._data
            if new_velocity is not None:
                new_velocity[new] += self._velocity[old]
        for pending in self._pending:
            pending.worker = mapping[pending.worker]
        self._stores = new_stores
        self._velocity = new_velocity
        self.num_workers = num_workers

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def total_residual(self) -> np.ndarray:
        """Coordinate-wise sum of all workers' residuals (used by the
        conservation tests and by convergence diagnostics).  Returns a fresh
        dense ``np.ndarray`` of ``num_elements`` floats."""
        total = np.zeros(self.num_elements, dtype=np.float64)
        for store in self._stores.values():
            total += store._data
        return total

    def residual_norms(self) -> Dict[int, float]:
        """Per-worker L2 norm of the stored residual (``{rank: float}``)."""
        return {worker: store.norm() for worker, store in self._stores.items()}
