"""Dataset containers, splitting and sharding.

A :class:`Dataset` is an in-memory pair of input and target arrays together
with the task type it belongs to.  Data-parallel training shards a dataset
across workers (each worker sees a disjoint contiguous slice, as the paper's
"data shard" in Fig. 4); the :class:`DataLoader` then yields mini-batches
from a shard in a seeded order.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional, Tuple

import numpy as np

__all__ = ["TaskType", "Dataset", "DataLoader", "shard_dataset", "train_test_split"]


class TaskType(str, Enum):
    """The five task types of the paper's evaluation (Table II)."""

    IMAGE_CLASSIFICATION = "image_classification"
    IMAGE_REGRESSION = "image_regression"
    TEXT_CLASSIFICATION = "text_classification"
    LANGUAGE_MODELING = "language_modeling"
    MASKED_LM = "masked_lm"

    @property
    def is_classification(self) -> bool:
        return self in (TaskType.IMAGE_CLASSIFICATION, TaskType.TEXT_CLASSIFICATION)

    @property
    def is_sequence(self) -> bool:
        return self in (TaskType.TEXT_CLASSIFICATION, TaskType.LANGUAGE_MODELING,
                        TaskType.MASKED_LM)


@dataclass
class Dataset:
    """An in-memory supervised dataset."""

    inputs: np.ndarray
    targets: np.ndarray
    task: TaskType
    name: str = "dataset"

    def __post_init__(self) -> None:
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise ValueError("inputs and targets must have the same number of samples")
        if self.inputs.shape[0] == 0:
            raise ValueError("dataset must not be empty")

    def __len__(self) -> int:
        return int(self.inputs.shape[0])

    def subset(self, indices: np.ndarray, name: Optional[str] = None) -> "Dataset":
        return Dataset(self.inputs[indices], self.targets[indices], self.task,
                       name=name or self.name)

    def batch(self, start: int, stop: int) -> Tuple[np.ndarray, np.ndarray]:
        return self.inputs[start:stop], self.targets[start:stop]


def train_test_split(dataset: Dataset, test_fraction: float = 0.2,
                     seed: int = 0) -> Tuple[Dataset, Dataset]:
    """Shuffle and split a dataset into train and test subsets."""
    if not 0 < test_fraction < 1:
        raise ValueError("test_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(dataset))
    cut = max(1, int(round(len(dataset) * (1 - test_fraction))))
    cut = min(cut, len(dataset) - 1)
    train = dataset.subset(order[:cut], name=f"{dataset.name}-train")
    test = dataset.subset(order[cut:], name=f"{dataset.name}-test")
    return train, test


def shard_dataset(dataset: Dataset, num_shards: int, shard: int) -> Dataset:
    """The ``shard``-th of ``num_shards`` equally sized contiguous shards.

    Samples that do not divide evenly are assigned to the first shards, so no
    sample is dropped and shards differ in size by at most one.
    """
    if num_shards <= 0:
        raise ValueError("num_shards must be positive")
    if not 0 <= shard < num_shards:
        raise ValueError("shard index out of range")
    if len(dataset) < num_shards:
        raise ValueError(
            f"cannot shard {len(dataset)} samples across {num_shards} workers"
        )
    indices = np.array_split(np.arange(len(dataset)), num_shards)[shard]
    return dataset.subset(indices, name=f"{dataset.name}-shard{shard}")


class DataLoader:
    """Mini-batch iterator over a dataset with seeded shuffling."""

    def __init__(self, dataset: Dataset, batch_size: int, shuffle: bool = True,
                 seed: int = 0, drop_last: bool = False) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.dataset = dataset
        self.batch_size = int(batch_size)
        self.shuffle = shuffle
        self.drop_last = drop_last
        self._rng = np.random.default_rng(seed)

    def __len__(self) -> int:
        full, remainder = divmod(len(self.dataset), self.batch_size)
        if remainder and not self.drop_last:
            return full + 1
        return full

    def __iter__(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        order = np.arange(len(self.dataset))
        if self.shuffle:
            self._rng.shuffle(order)
        for start in range(0, len(order), self.batch_size):
            batch_indices = order[start:start + self.batch_size]
            if self.drop_last and batch_indices.shape[0] < self.batch_size:
                break
            yield self.dataset.inputs[batch_indices], self.dataset.targets[batch_indices]
