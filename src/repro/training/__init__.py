"""Distributed training engine: trainer, timing, metrics and the seven cases."""

from .cases import CASES, CaseSpec, case_names, get_case
from .metrics import EpochRecord, IterationRecord, TrainingHistory
from .timing import ComputeProfile, IterationTiming, iteration_time
from .trainer import (
    DistributedTrainer,
    TrainerConfig,
    default_loss_for_task,
    default_metric_for_task,
)

__all__ = [
    "CASES",
    "CaseSpec",
    "case_names",
    "get_case",
    "EpochRecord",
    "IterationRecord",
    "TrainingHistory",
    "ComputeProfile",
    "IterationTiming",
    "iteration_time",
    "DistributedTrainer",
    "TrainerConfig",
    "default_loss_for_task",
    "default_metric_for_task",
]
