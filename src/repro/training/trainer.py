"""Data-parallel synchronous SGD over the simulated cluster.

:class:`DistributedTrainer` reproduces the training loop of Fig. 4: every
worker holds a model replica and a disjoint data shard; each iteration the
workers compute local gradients in parallel, synchronise them through a
:class:`~repro.core.base.GradientSynchronizer` (SparDL or any baseline), and
apply the identical averaged global gradient to their replicas.  Per-iteration
simulated time combines a per-case compute profile with the alpha-beta cost of
the measured communication (see :mod:`repro.training.timing`).

The synchroniser may be passed ready-built, or as a *factory*
``factory(cluster, model) -> GradientSynchronizer`` (e.g. from
:func:`repro.api.make_factory`): the trainer calls the factory with its
reference replica, so flat and bucketed synchronisers alike derive their
gradient layout from the model instead of the caller pre-computing
``num_parameters()``.  All synchronisation is driven through a
:class:`~repro.core.pipeline.SyncSession`, whose cumulative
:class:`~repro.comm.stats.CommStats` and resolved-``k`` history are exposed
as :attr:`DistributedTrainer.session`.

Where replicas run
------------------
Each rank's replica, optimizer and data shard are installed once on the
transport's worker for that rank, and every iteration runs one task per
rank there through :meth:`~repro.comm.transport.Transport.run_workers`:
forward/backward on the rank's next batch, then the optimizer step.  Where
that is, the transport decides: side by side on the rank pool of the
calling process on the simulated backend (:mod:`repro.core.rank_pool`; the
calling thread when the CPU affinity mask has one CPU), one process per
rank on :class:`~repro.comm.mp_backend.MultiprocessCluster`.  A task writes
only its own rank's replica, optimizer and rows; the batches are a pure
function of ``(seed, epoch, worker)`` and only the synchronisation runs in
the driver, through the same staged pipeline everywhere, so every
transport trains the same bits.

No dense vector is ever an argument or a result of a worker task.  The
trainer keeps two ``(P, n)`` arrays in the transport's shared memory
(:meth:`~repro.comm.transport.Transport.shared_array`):

* ``trainer.gradients`` — rank ``r``'s compute task flattens its gradient
  into row ``r`` and returns only the loss; the driver synchronises
  read-only views of the rows, so they reach the error-feedback sweep
  without a copy.
* ``trainer.updates`` — the driver writes ``global / P`` once per
  *distinct* global-gradient array (one row when every rank was handed the
  same array, which is the normal case) and tells each rank which row to
  apply; the rank reads it through a read-only view.

A task message is therefore a function reference, a row number and a few
scalars.  The task protocol orders every access: workers touch the arrays
only inside a task, the driver only between two ``run_workers`` calls.
"""

from __future__ import annotations

import inspect
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Union

import numpy as np

from ..comm.network import ETHERNET, NetworkProfile
from ..comm.transport import Transport, freeze_payload
from ..core.base import GradientSynchronizer
from ..core.pipeline import SyncSession
from ..obs import Tracer, TraceLevel, attach_tracer, replay_iteration_timing
from ..data.datasets import DataLoader, Dataset, TaskType, shard_dataset
from ..nn.losses import CrossEntropyLoss, Loss, MSELoss, accuracy
from ..nn.module import Module
from ..nn.optim import SGD, ConstantLRSchedule, StepLRSchedule
from ..nn.parameter import (Parameter, flatten_gradients, flatten_values,
                            parameter_count)
from .metrics import EpochRecord, IterationRecord, TrainingHistory
from .timing import ComputeProfile, iteration_time

__all__ = ["TrainerConfig", "DistributedTrainer", "default_loss_for_task",
           "default_metric_for_task"]


def default_loss_for_task(task: TaskType) -> Loss:
    """The loss function the paper uses for each task type."""
    if task is TaskType.IMAGE_REGRESSION:
        return MSELoss()
    return CrossEntropyLoss()


def default_metric_for_task(task: TaskType) -> tuple[str, bool]:
    """``(metric_name, higher_is_better)`` for each task type."""
    if task.is_classification:
        return "accuracy", True
    return "loss", False


@dataclass
class TrainerConfig:
    """Hyper-parameters of one distributed training run."""

    batch_size: int = 32
    learning_rate: float = 0.1
    #: Momentum of every replica's SGD optimizer.  DGC momentum
    #: *correction* is the synchroniser's (a spec's ``momentum=`` key);
    #: train such a synchroniser with ``momentum=0.0`` so the velocity
    #: recursion runs once.
    momentum: float = 0.0
    weight_decay: float = 0.0
    lr_step_epochs: Optional[int] = None
    lr_gamma: float = 0.1
    seed: int = 0
    #: Verify after every iteration that all replicas hold bit-identical
    #: parameters (slow; used by the integration tests).
    check_consistency: bool = False
    #: Trace level of the run: ``"off"`` (default; no tracer is constructed
    #: and every code path is the exact untraced one), ``"steps"``
    #: (epoch/iteration/stage spans, membership markers, the replayed
    #: overlap timeline) or ``"comm"`` (everything plus per-message and
    #: per-fault events).  See ``docs/observability.md``; the run's tracer
    #: is exposed as :attr:`DistributedTrainer.tracer`.
    trace: str = "off"

    def schedule(self):
        if self.lr_step_epochs is None:
            return ConstantLRSchedule(self.learning_rate)
        return StepLRSchedule(self.learning_rate, self.lr_step_epochs, self.lr_gamma)


#: A ready synchroniser, or ``factory(cluster, model)`` building one.
SynchronizerLike = Union[GradientSynchronizer,
                         Callable[[Transport, Module], GradientSynchronizer]]


def _accepted_kwargs(factory: Callable, candidates: Dict[str, Any]) -> Dict[str, Any]:
    """The subset of ``candidates`` that ``factory``'s signature accepts
    (by name or through ``**kwargs``); empty when the signature cannot be
    inspected.  Lets the trainer pass optional context to factories that
    take it without breaking plain ``lambda cluster, model`` factories."""
    try:
        parameters = inspect.signature(factory).parameters.values()
    except (TypeError, ValueError):
        return {}
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters):
        return dict(candidates)
    names = {p.name for p in parameters
             if p.kind in (inspect.Parameter.POSITIONAL_OR_KEYWORD,
                           inspect.Parameter.KEYWORD_ONLY)}
    return {key: value for key, value in candidates.items() if key in names}


# ---------------------------------------------------------------------------
# worker tasks
# ---------------------------------------------------------------------------
# Module-level functions so process-backed transports can pickle them; each
# runs as ``fn(context, rank, *args)`` under Transport.run_workers against
# the persistent per-rank context.

#: Keys of the shared arrays (see "Where replicas run" above).
_GRADIENTS = "trainer.gradients"
_UPDATES = "trainer.updates"


def _worker_install(context: Dict[str, Any], rank: int,
                    state: Dict[str, Any]) -> int:
    """Adopt this rank's training state (replica, optimizer, loss, shard)
    and look up the replica's parameter list once.  The state is this
    rank's own: unpickled on a process backend, the trainer's own objects
    in-process."""
    context["trainer"] = state
    state["parameters"] = state["replica"].parameters()
    return parameter_count(state["parameters"])


def _worker_epoch_start(context: Dict[str, Any], rank: int, batch_size: int,
                        seed: int) -> int:
    """Open this epoch's shard iterator; returns the number of batches."""
    state = context["trainer"]
    loader = DataLoader(state["shard"], batch_size, shuffle=True, seed=seed)
    state["iterator"] = iter(loader)
    return len(loader)


def _local_step(replica: Module, parameters: List[Parameter], loss: Loss,
                batch: tuple, out: np.ndarray) -> float:
    """One local step: forward and backward on ``batch``; the flat gradient
    of ``parameters`` (the replica's, looked up once) goes into ``out`` and
    the loss is returned."""
    inputs, targets = batch
    replica.train()
    for parameter in parameters:
        parameter.zero_grad()
    outputs = replica.forward(inputs)
    loss_value, grad_output = loss(outputs, targets)
    replica.backward(grad_output)
    flatten_gradients(parameters, out=out)
    return float(loss_value)


def _worker_compute_gradient(context: Dict[str, Any], rank: int) -> float:
    """One local step on this rank's next batch, into this rank's row of
    the shared gradient array; only the loss is returned."""
    state = context["trainer"]
    return _local_step(state["replica"], state["parameters"], state["loss"],
                       next(state["iterator"]), context["shared"][_GRADIENTS][rank])


def _worker_apply_update(context: Dict[str, Any], rank: int, row: int,
                         learning_rate: float) -> None:
    """Apply row ``row`` of the shared update array — the synchronised
    averaged gradient — to this rank's replica."""
    averaged = freeze_payload(context["shared"][_UPDATES][row])
    context["trainer"]["optimizer"].step(flat_gradient=averaged,
                                         learning_rate=learning_rate)


def _worker_fetch_params(context: Dict[str, Any], rank: int) -> np.ndarray:
    """This rank's flattened parameter vector (consistency checks)."""
    return flatten_values(context["trainer"]["replica"].parameters())


def _worker_fetch_replica(context: Dict[str, Any], rank: int) -> Module:
    """This rank's live replica (evaluation); a process backend's pickle
    hands the driver a copy."""
    return context["trainer"]["replica"]


class DistributedTrainer:
    """Synchronous data-parallel trainer over any transport backend."""

    def __init__(
        self,
        cluster: Transport,
        synchronizer: SynchronizerLike,
        model_factory: Callable[[int], Module],
        train_dataset: Dataset,
        eval_dataset: Dataset,
        *,
        loss: Optional[Loss] = None,
        config: Optional[TrainerConfig] = None,
        network: NetworkProfile = ETHERNET,
        compute_profile: Optional[ComputeProfile] = None,
        case_name: str = "",
    ) -> None:
        self.cluster = cluster
        self.config = config or TrainerConfig()
        self.network = network
        self.train_dataset = train_dataset
        self.eval_dataset = eval_dataset
        self.task = train_dataset.task
        self.loss = loss or default_loss_for_task(self.task)
        self.metric_name, self.higher_is_better = default_metric_for_task(self.task)
        self.case_name = case_name or train_dataset.name

        num_workers = cluster.num_workers
        #: The replicas as built, identical: the same seed is passed to every
        #: factory call.  They are installed on the transport's workers
        #: below: in-process these objects are the live models, on a process
        #: backend the live models are the workers' copies.
        self.replicas: List[Module] = [model_factory(self.config.seed)
                                       for _ in range(num_workers)]
        parameter_lists = [replica.parameters() for replica in self.replicas]
        self.num_elements = parameter_count(parameter_lists[0])
        self.compute_profile = compute_profile or ComputeProfile(
            compute_time_per_update=0.0, paper_parameters=self.num_elements
        )
        if not isinstance(synchronizer, GradientSynchronizer):
            # A factory builds the synchroniser *from* the model, so flat and
            # bucketed layouts alike can never disagree with the parameter
            # count (the historical failure mode of pre-built synchronisers).
            # Factories that take them (e.g. api.make_factory) also receive
            # the trainer's network and compute profile, so buckets=auto
            # plans its fusion against the setting the run is timed with.
            context = {"network": self.network,
                       "compute_profile": self.compute_profile}
            synchronizer = synchronizer(cluster, self.replicas[0],
                                        **_accepted_kwargs(synchronizer, context))
        if self.num_elements != synchronizer.num_elements:
            raise ValueError(
                f"synchroniser was built for {synchronizer.num_elements} gradients but the "
                f"model has {self.num_elements} parameters"
            )
        self.synchronizer = synchronizer
        # Tracing: adopt a tracer the synchroniser already carries (from a
        # ``trace=`` facade spec) or build one from the config level; either
        # way it is installed across the synchroniser, its inner bucketed
        # sessions and the transport.  With trace=off and no spec tracer,
        # ``self.tracer`` stays None and nothing below ever touches it.
        level = TraceLevel.coerce(self.config.trace)
        tracer = getattr(synchronizer, "tracer", None)
        if tracer is None and level is not TraceLevel.OFF:
            tracer = Tracer(level)
        if tracer is not None:
            attach_tracer(synchronizer, tracer)
        #: The run's :class:`~repro.obs.trace.Tracer` (``None`` when off).
        self.tracer = tracer
        #: Staged-pipeline driver: cumulative CommStats and k history across
        #: the whole training run.
        self.session = SyncSession(synchronizer)
        reference = flatten_values(parameter_lists[0])
        for parameters in parameter_lists[1:]:
            if not np.array_equal(flatten_values(parameters), reference):
                raise RuntimeError("model_factory must produce identical replicas for a fixed seed")

        self._schedule = self.config.schedule()
        self.optimizers: List[SGD] = [
            SGD(parameters, learning_rate=self.config.learning_rate,
                momentum=self.config.momentum, weight_decay=self.config.weight_decay)
            for parameters in parameter_lists
        ]
        self.shards = [shard_dataset(train_dataset, num_workers, worker)
                       for worker in range(num_workers)]
        self.history = TrainingHistory(method=synchronizer.name, case=self.case_name)
        self._iteration = 0

        shape = (num_workers, self.num_elements)
        #: What ``session.step`` is handed: read-only views of the rows the
        #: workers flatten their gradients into.
        self._gradient_rows = {worker: freeze_payload(row) for worker, row
                               in enumerate(cluster.shared_array(_GRADIENTS, shape))}
        self._updates = cluster.shared_array(_UPDATES, shape)
        # Ship every rank's replica, optimizer, loss and shard to its worker;
        # from here on the trainer reaches them only through tasks.  The
        # optimizer's parameter references survive a pickle because replica
        # and optimizer travel in one object graph.
        shipped = cluster.run_workers(_worker_install, {
            worker: ({"replica": self.replicas[worker],
                      "optimizer": self.optimizers[worker],
                      "loss": self.loss,
                      "shard": self.shards[worker]},)
            for worker in range(num_workers)})
        for worker, reported in shipped.items():
            if reported != self.num_elements:
                raise RuntimeError(
                    f"worker {worker} installed a replica with {reported} "
                    f"parameters, expected {self.num_elements}")

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def _span(self, name: str, cat: str, **args: Any):
        """A tracer span around a trainer phase, or a no-op context when
        tracing is off (the untraced path never touches the tracer)."""
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            return tracer.span(name, cat, args=args)
        return nullcontext()

    def train(self, num_epochs: int, eval_every: int = 1) -> TrainingHistory:
        """Run ``num_epochs`` of synchronous training."""
        if num_epochs <= 0:
            raise ValueError("num_epochs must be positive")
        for epoch in range(num_epochs):
            self.train_epoch(epoch, evaluate=((epoch + 1) % eval_every == 0
                                              or epoch == num_epochs - 1))
        return self.history

    def train_epoch(self, epoch: int, evaluate: bool = True) -> EpochRecord:
        """One pass over every worker's shard."""
        with self._span(f"epoch {epoch}", "iteration", epoch=epoch):
            return self._train_epoch_impl(epoch, evaluate)

    def _train_epoch_impl(self, epoch: int, evaluate: bool) -> EpochRecord:
        learning_rate = self._schedule.at_epoch(epoch)
        # The per-worker batch stream is a pure function of (seed, epoch,
        # worker), whichever worker draws it.
        lengths = self.cluster.run_workers(_worker_epoch_start, {
            worker: (self.config.batch_size,
                     self.config.seed + 1000 * epoch + worker)
            for worker in range(self.cluster.num_workers)
        })
        steps = min(lengths.values())

        epoch_losses: List[float] = []
        epoch_comm = 0.0
        epoch_compute = 0.0
        epoch_hidden = 0.0
        for _ in range(steps):
            record = self._train_step(epoch, learning_rate)
            epoch_losses.append(record.loss)
            epoch_comm += record.communication_time
            epoch_compute += record.compute_time
            epoch_hidden += record.hidden_comm_time

        train_loss = float(np.mean(epoch_losses)) if epoch_losses else 0.0
        epoch_time = epoch_comm + epoch_compute - epoch_hidden

        if evaluate:
            eval_loss, eval_metric = self.evaluate()
        else:
            eval_loss, eval_metric = float("nan"), float("nan")
        record = EpochRecord(
            epoch=epoch,
            train_loss=train_loss,
            eval_loss=eval_loss,
            eval_metric=eval_metric,
            metric_name=self.metric_name,
            epoch_time=epoch_time,
            cumulative_time=self.total_time,
            communication_time=epoch_comm,
            compute_time=epoch_compute,
            hidden_comm_time=epoch_hidden,
        )
        self.history.add_epoch(record)
        return record

    def _train_step(self, epoch: int, learning_rate: float) -> IterationRecord:
        with self._span("iteration", "iteration", iteration=self._iteration,
                        epoch=epoch):
            return self._train_step_impl(epoch, learning_rate)

    def _train_step_impl(self, epoch: int, learning_rate: float) -> IterationRecord:
        with self._span("compute", "compute", iteration=self._iteration):
            losses = self.cluster.run_workers(_worker_compute_gradient)

        result = self.session.step(self._gradient_rows)
        # A synchroniser of several planned buckets reports every bucket's
        # statistics; they are scheduled against the buckets' backward
        # slices so communication overlaps.
        timing = iteration_time(result.stats, self.network, self.compute_profile,
                                model_parameters=self.num_elements,
                                bucket_stats=result.info.get("bucket_stats"),
                                bucket_sizes=result.info.get("group_sizes"))
        if self.tracer is not None and self.tracer.enabled:
            # Mirror the simulated clock onto its own trace track, so the
            # modelled backward/hidden/exposed-comm decomposition renders
            # next to the measured wall-clock spans.
            replay_iteration_timing(self.tracer, timing, self._iteration)

        with self._span("apply_update", "compute", iteration=self._iteration):
            self.cluster.run_workers(_worker_apply_update, {
                worker: (row, learning_rate)
                for worker, row in enumerate(self._average(result))
            })

        if self.config.check_consistency:
            params = self.cluster.run_workers(_worker_fetch_params)
            reference = params[0]
            for values in list(params.values())[1:]:
                if not np.array_equal(values, reference):
                    raise RuntimeError("model replicas diverged after a synchronised update")

        record = IterationRecord(
            iteration=self._iteration,
            epoch=epoch,
            loss=float(np.mean(list(losses.values()))),
            compute_time=timing.compute_time,
            communication_time=timing.communication_time,
            hidden_comm_time=timing.hidden_comm_time,
        )
        self.history.add_iteration(record)
        self._iteration += 1
        return record

    def _average(self, result) -> List[int]:
        """``global / P`` into the leading rows of the shared update array,
        divided once per *distinct* global-gradient array (every built-in
        method, dense All-Reduce included, hands agreeing ranks the same
        one, so a step writes one row): returns each worker's row number."""
        num_workers = self.cluster.num_workers
        row_of: Dict[int, int] = {}
        rows: List[int] = []
        for worker in range(num_workers):
            gradient = result.gradient(worker)
            row = row_of.get(id(gradient))
            if row is None:
                row = row_of[id(gradient)] = len(row_of)
                np.divide(gradient, num_workers, out=self._updates[row])
            rows.append(row)
        return rows

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def evaluate(self, dataset: Optional[Dataset] = None, batch_size: int = 64
                 ) -> tuple[float, float]:
        """``(loss, metric)`` of replica 0 on ``dataset`` (default: eval set)."""
        dataset = dataset or self.eval_dataset
        model = self.global_model
        model.eval()
        losses: List[float] = []
        metrics: List[float] = []
        weights: List[int] = []
        for start in range(0, len(dataset), batch_size):
            inputs, targets = dataset.batch(start, start + batch_size)
            outputs = model.forward(inputs)
            loss_value, _ = self.loss(outputs, targets)
            losses.append(loss_value)
            weights.append(inputs.shape[0])
            if self.metric_name == "accuracy":
                metrics.append(accuracy(outputs, targets))
        model.train()
        total = float(np.average(losses, weights=weights))
        if self.metric_name == "accuracy":
            metric = float(np.average(metrics, weights=weights))
        else:
            metric = total
        return total, metric

    # ------------------------------------------------------------------
    @property
    def total_time(self) -> float:
        """Cumulative simulated training time so far."""
        return sum(record.total_time for record in self.history.iterations)

    @property
    def global_model(self) -> Module:
        """Rank 0's replica, fetched from its worker (all replicas are
        identical after every update): in-process the live replica itself,
        on a process backend a copy of it — including any stateful layer
        buffers the driver never sees."""
        return self.cluster.run_workers(_worker_fetch_replica, {0: ()})[0]
