"""Baseline gradient synchronisation methods compared against SparDL."""

from .base import SparseBaseline, power_of_two_split
from .dense import DenseAllReduceSynchronizer
from .gtopk import GTopkSynchronizer
from .ok_topk import OkTopkSynchronizer
from .topk_a import TopkASynchronizer
from .topk_dsa import TopkDSASynchronizer

__all__ = [
    "SparseBaseline",
    "power_of_two_split",
    "DenseAllReduceSynchronizer",
    "GTopkSynchronizer",
    "OkTopkSynchronizer",
    "TopkASynchronizer",
    "TopkDSASynchronizer",
]
