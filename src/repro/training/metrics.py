"""Training history and evaluation metrics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["IterationRecord", "EpochRecord", "TrainingHistory"]


@dataclass
class IterationRecord:
    """One synchronised training iteration.

    ``compute_time`` and ``communication_time`` stay the full quantities;
    ``hidden_comm_time`` is the communication an overlapped bucketed
    execution hid behind the backward pass (zero for flat runs), so
    :attr:`total_time` reports the overlapped wall-clock.
    """

    iteration: int
    epoch: int
    loss: float
    compute_time: float
    communication_time: float
    hidden_comm_time: float = 0.0

    @property
    def total_time(self) -> float:
        return self.compute_time + self.communication_time - self.hidden_comm_time


@dataclass
class EpochRecord:
    """Aggregated metrics of one epoch."""

    epoch: int
    train_loss: float
    eval_loss: float
    eval_metric: float
    metric_name: str
    epoch_time: float
    cumulative_time: float
    communication_time: float
    compute_time: float
    #: Communication hidden behind backward compute this epoch (already
    #: subtracted from ``epoch_time``).
    hidden_comm_time: float = 0.0


@dataclass
class TrainingHistory:
    """Full record of one distributed training run."""

    method: str = ""
    case: str = ""
    iterations: List[IterationRecord] = field(default_factory=list)
    epochs: List[EpochRecord] = field(default_factory=list)

    # ------------------------------------------------------------------
    def add_iteration(self, record: IterationRecord) -> None:
        self.iterations.append(record)

    def add_epoch(self, record: EpochRecord) -> None:
        self.epochs.append(record)

    # ------------------------------------------------------------------
    @property
    def total_time(self) -> float:
        """Cumulative simulated training time."""
        if self.epochs:
            return self.epochs[-1].cumulative_time
        return sum(record.total_time for record in self.iterations)

    @property
    def total_communication_time(self) -> float:
        return sum(record.communication_time for record in self.iterations)

    @property
    def total_compute_time(self) -> float:
        return sum(record.compute_time for record in self.iterations)

    @property
    def total_hidden_comm_time(self) -> float:
        """Communication hidden behind compute across the whole run."""
        return sum(record.hidden_comm_time for record in self.iterations)

    @property
    def final_metric(self) -> float:
        if not self.epochs:
            raise ValueError("no epochs recorded")
        return self.epochs[-1].eval_metric

    @property
    def final_eval_loss(self) -> float:
        if not self.epochs:
            raise ValueError("no epochs recorded")
        return self.epochs[-1].eval_loss

    def mean_iteration_time(self) -> float:
        if not self.iterations:
            raise ValueError("no iterations recorded")
        return sum(record.total_time for record in self.iterations) / len(self.iterations)

    def mean_communication_time(self) -> float:
        if not self.iterations:
            raise ValueError("no iterations recorded")
        return self.total_communication_time / len(self.iterations)

    def time_to_metric(self, threshold: float, higher_is_better: bool = True) -> Optional[float]:
        """Cumulative time of the first epoch whose evaluation metric reaches
        ``threshold`` (``None`` if never reached)."""
        for record in self.epochs:
            reached = (record.eval_metric >= threshold if higher_is_better
                       else record.eval_metric <= threshold)
            if reached:
                return record.cumulative_time
        return None

    def metric_curve(self) -> Dict[str, List[float]]:
        """``{"time": [...], "metric": [...], "loss": [...]}`` per epoch."""
        return {
            "time": [record.cumulative_time for record in self.epochs],
            "metric": [record.eval_metric for record in self.epochs],
            "loss": [record.eval_loss for record in self.epochs],
        }
