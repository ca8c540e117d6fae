"""Independent reference implementations the tests check the library against.

* The seed idioms of the sparse kernels — ``argsort`` top-k, ``np.unique``
  + ``np.add.at`` merge-add and its sequential pairwise k-way fold: the
  optimized kernels must stay bit-identical to them
  (``tests/test_property_sparse.py``, ``tests/test_sparse_topk.py``).
* The quantized wire accounting, re-derived from the contract rather than
  from ``QuantizedCompressor.price`` — a bug copied into the checker would
  keep both green (``tests/test_quantized_pipeline.py``):

  - a sparse unit of ``nnz`` entries bills ``nnz`` full-precision indices,
    ``nnz * bits/32`` value elements and one scale element (``PackedBags``:
    one scale per non-empty bag) — i.e. the paper's ``2*nnz`` COO volume
    scaled by ``(1 + bits/32)/2``, plus the scale;
  - dense float arrays bill ``bits/32`` per value, no scale;
  - routing integers inside containers are free metadata; a bare scalar is
    one element of control traffic at full precision.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.comm.cluster import SimulatedCluster
from repro.comm.packed import PackedBags
from repro.sparse.vector import SparseGradient

__all__ = ["naive_top_k_indices", "naive_merge_add", "naive_merge_many",
           "expected_price", "spy_exchange"]


def naive_top_k_indices(values: np.ndarray, k: int) -> np.ndarray:
    """Seed top-k: stable argsort on the negated magnitudes, O(n log n)."""
    values = np.asarray(values)
    n = values.shape[0]
    if k <= 0 or n == 0:
        return np.empty(0, dtype=np.int64)
    if k >= n:
        return np.arange(n, dtype=np.int64)
    magnitude = np.abs(values)
    order = np.argsort(-magnitude, kind="stable")
    return np.sort(order[:k].astype(np.int64))


def naive_merge_add(a_indices: np.ndarray, a_values: np.ndarray,
                    b_indices: np.ndarray, b_values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Seed merge-add: concatenate, ``np.unique`` re-sort, ``np.add.at``."""
    indices = np.concatenate([a_indices, b_indices])
    values = np.concatenate([a_values, b_values])
    unique, inverse = np.unique(indices, return_inverse=True)
    summed = np.zeros(unique.shape[0], dtype=np.float64)
    np.add.at(summed, inverse, values)
    return unique, summed


def naive_merge_many(index_streams: Sequence[np.ndarray],
                     value_streams: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Seed k-way merge: fold :func:`naive_merge_add` pairwise."""
    indices, values = index_streams[0], value_streams[0]
    for next_indices, next_values in zip(index_streams[1:], value_streams[1:]):
        indices, values = naive_merge_add(indices, values, next_indices, next_values)
    return indices, values


def expected_price(payload, bits: int) -> float:
    """Quantized wire size of ``payload`` per the accounting contract."""
    if payload is None:
        return 0.0
    if isinstance(payload, PackedBags):
        if payload.nnz == 0:
            return 0.0
        scales = int(np.count_nonzero(np.diff(payload.offsets)))
        return payload.nnz + payload.nnz * bits / 32 + scales
    if isinstance(payload, SparseGradient):
        if payload.nnz == 0:
            return 0.0
        return payload.nnz + payload.nnz * bits / 32 + 1
    if isinstance(payload, np.ndarray):
        return payload.size * bits / 32
    if isinstance(payload, (list, tuple)):
        return sum(expected_price(item, bits) for item in payload)
    if isinstance(payload, (int, np.integer)):
        return 0.0
    if isinstance(payload, (float, np.floating)):
        return 1.0
    raise TypeError(f"unexpected payload {type(payload)!r}")


def spy_exchange(cluster: SimulatedCluster) -> list:
    """Wrap ``cluster.exchange`` in place; returns the growing record list
    of ``(tag, billed size, size_final, payload)`` per message sent."""
    records: list = []
    original = cluster.exchange

    def spy(messages):
        inboxes = original(messages)
        for message in messages:
            records.append((message.tag, float(message.size),
                            message.size_final, message.payload))
        return inboxes

    cluster.exchange = spy
    return records
