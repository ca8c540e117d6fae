"""SparDL core: Spar-Reduce-Scatter, Spar-All-Gather and residual collection."""

from .base import GradientSynchronizer, SyncResult, resolve_k
from .bucketed import BucketedSynchronizer, layer_buckets
from .config import SAGMode, SparDLConfig
from .partition import BagPlan, plan_bags, transmission_distances
from .pipeline import (
    PIPELINE_STAGES,
    StepContext,
    SyncSession,
    SyncStage,
    fold_lost_messages,
)
from .residuals import ResidualManager, ResidualPolicy, ResidualStore
from .sag import CompressionRatioController, SAGOutput, b_sag, cross_team_groups, r_sag
from .schedules import (
    ConstantSchedule,
    KSchedule,
    WarmupSchedule,
    coerce_schedule,
    parse_schedule,
)
from .spardl import SparDLSynchronizer, make_teams
from .srs import SRSOutput, spar_reduce_scatter

__all__ = [
    "GradientSynchronizer",
    "SyncResult",
    "resolve_k",
    "BucketedSynchronizer",
    "layer_buckets",
    "PIPELINE_STAGES",
    "fold_lost_messages",
    "StepContext",
    "SyncSession",
    "SyncStage",
    "KSchedule",
    "ConstantSchedule",
    "WarmupSchedule",
    "parse_schedule",
    "coerce_schedule",
    "SAGMode",
    "SparDLConfig",
    "BagPlan",
    "plan_bags",
    "transmission_distances",
    "ResidualManager",
    "ResidualPolicy",
    "ResidualStore",
    "CompressionRatioController",
    "SAGOutput",
    "b_sag",
    "r_sag",
    "cross_team_groups",
    "SparDLSynchronizer",
    "make_teams",
    "SRSOutput",
    "spar_reduce_scatter",
]
