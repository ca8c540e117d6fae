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
* The seed dense All-Reduce algorithms, which copy every input and every
  gathered range into ``P`` working vectors: the copy-free collectives must
  return the same bytes over the same messages, rounds and volumes
  (``tests/test_comm_collectives.py``).
* The seed Spar-Reduce-Scatter, block by block: the batched one (one round
  call per transmission step for every worker) must return the same bytes,
  leave the same residual and velocity slabs and send the same messages
  (``tests/test_core_srs.py``).
"""

from __future__ import annotations

import math
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.comm.cluster import SimulatedCluster
from repro.comm.collectives import _partition_bounds
from repro.comm.packed import PackedBags
from repro.comm.transport import Message
from repro.core.partition import plan_bags, transmission_distances
from repro.core.srs import SRSOutput, pack_blocks, segment_budgets, sparsify_block
from repro.sparse.topk import WarmTopK
from repro.sparse.vector import SparseGradient

__all__ = ["naive_top_k_indices", "naive_merge_add", "naive_merge_many",
           "expected_price", "spy_exchange", "seed_allreduce_ring",
           "seed_allreduce_rabenseifner", "seed_spar_reduce_scatter"]


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


def seed_allreduce_ring(cluster, vectors: Dict[int, np.ndarray]) -> Dict[int, np.ndarray]:
    """Seed ring All-Reduce over the whole cluster: per-rank copied chunks,
    overwritten by the all-gather and concatenated per rank."""
    group = list(cluster.ranks)
    size = len(group)
    n = vectors[group[0]].shape[0]
    if size == 1:
        return {group[0]: vectors[group[0]].astype(np.float64, copy=True)}
    bounds = _partition_bounds(n, size)
    chunks = {rank: [vectors[rank][lo:hi].astype(np.float64, copy=True) for lo, hi in bounds]
              for rank in group}
    for step in range(size - 1):
        messages = []
        for pos, rank in enumerate(group):
            chunk_idx = (pos - step) % size
            messages.append(Message(src=rank, dst=group[(pos + 1) % size],
                                    payload=chunks[rank][chunk_idx], tag=f"ring-rs-{chunk_idx}"))
        inboxes = cluster.exchange(messages)
        for pos, rank in enumerate(group):
            chunk_idx = (pos - 1 - step) % size
            for message in inboxes.get(rank, []):
                chunks[rank][chunk_idx] = chunks[rank][chunk_idx] + np.asarray(message.payload)
    for step in range(size - 1):
        messages = []
        for pos, rank in enumerate(group):
            chunk_idx = (pos + 1 - step) % size
            messages.append(Message(src=rank, dst=group[(pos + 1) % size],
                                    payload=chunks[rank][chunk_idx], tag=f"ring-ag-{chunk_idx}"))
        inboxes = cluster.exchange(messages)
        for pos, rank in enumerate(group):
            chunk_idx = (pos - step) % size
            for message in inboxes.get(rank, []):
                chunks[rank][chunk_idx] = np.asarray(message.payload, dtype=np.float64)
    return {rank: np.concatenate(chunks[rank]) for rank in group}


def seed_allreduce_rabenseifner(cluster, vectors: Dict[int, np.ndarray]) -> Dict[int, np.ndarray]:
    """Seed Rabenseifner All-Reduce over the whole (power-of-two) cluster:
    every rank halves and doubles over its own full-length working copy."""
    group = list(cluster.ranks)
    size = len(group)
    if size == 1:
        return {group[0]: vectors[group[0]].astype(np.float64, copy=True)}
    n = vectors[group[0]].shape[0]
    working = {rank: vectors[rank].astype(np.float64, copy=True) for rank in group}
    ranges = {rank: (0, n) for rank in group}
    num_steps = int(math.log2(size))
    for step in range(num_steps):
        distance = size >> (step + 1)
        messages, plan = [], {}
        for pos, rank in enumerate(group):
            lo, hi = ranges[rank]
            mid = (lo + hi) // 2
            if pos & distance:
                send_lo, send_hi, plan[rank] = lo, mid, (mid, hi)
            else:
                send_lo, send_hi, plan[rank] = mid, hi, (lo, mid)
            messages.append(Message(src=rank, dst=group[pos ^ distance],
                                    payload=(send_lo, working[rank][send_lo:send_hi]),
                                    size=float(send_hi - send_lo)))
        inboxes = cluster.exchange(messages)
        for rank in group:
            ranges[rank] = plan[rank]
            for message in inboxes.get(rank, []):
                lo, chunk = message.payload
                working[rank][lo:lo + len(chunk)] += chunk
    for step in reversed(range(num_steps)):
        distance = size >> (step + 1)
        messages = []
        for pos, rank in enumerate(group):
            lo, hi = ranges[rank]
            messages.append(Message(src=rank, dst=group[pos ^ distance],
                                    payload=(lo, working[rank][lo:hi]), size=float(hi - lo)))
        inboxes = cluster.exchange(messages)
        for rank in group:
            lo, hi = ranges[rank]
            for message in inboxes.get(rank, []):
                other_lo, chunk = message.payload
                working[rank][other_lo:other_lo + len(chunk)] = chunk
                lo, hi = min(lo, other_lo), max(hi, other_lo + len(chunk))
            ranges[rank] = (lo, hi)
    return {rank: working[rank] for rank in group}


def seed_spar_reduce_scatter(cluster, teams, layout, k_block, residuals,
                             sparsify_all=False, compressor=None, selector=None):
    """The seed's Spar-Reduce-Scatter, block by block: per worker one
    selection and one ``take``, per received block one ``SparseGradient.add``
    of a ``PackedBags.span``, per target block one ``sparsify_block`` and one
    ``collect_procedure``, per bag one ``pack_blocks``.  It selects from the
    residual stores, like the batched one (the seed ranked a ``gradients``
    argument but took from the stores)."""
    team_size = len(teams[0])
    budgets = segment_budgets(layout, k_block)
    if selector is None:
        selector = WarmTopK()
    taken = np.minimum(budgets, np.diff(layout.edges))
    offsets = np.concatenate(([0], np.cumsum(taken)))
    by_block = np.arange(taken.shape[0]).reshape(-1, team_size).T.ravel()
    regrouped = np.concatenate(([0], np.cumsum(taken[by_block])))
    block_edges = regrouped[::layout.num_buckets].tolist()
    regroup = None
    if layout.num_buckets > 1:
        regroup = (np.repeat(offsets[by_block] - regrouped[:-1], taken[by_block])
                   + np.arange(offsets[-1]))
    held, plans = {}, {}
    for team in teams:
        for position, rank in enumerate(team):
            picked = selector.select_segments(
                [rank], residuals.buffers([rank]), layout.edges, budgets)[0]
            selected = residuals.take(rank, picked)
            if compressor is not None:
                selected, quantization_error = compressor.compress_sparse(
                    rank, selected, offsets)
                residuals.collect_local_sparse(rank, quantization_error)
            indices, values = selected.indices, selected.values
            if regroup is not None:
                indices, values = indices[regroup], values[regroup]
            held[rank] = {
                block: SparseGradient.from_sorted_unique(
                    indices[lo:hi], values[lo:hi], selected.length)
                for block, (lo, hi) in enumerate(zip(block_edges, block_edges[1:]))}
            plans[rank] = plan_bags(position, team_size)
    distances = transmission_distances(team_size)
    num_steps = len(distances)
    max_bag_nnz_per_step, resparsified = [], 0
    for step_index, distance in enumerate(distances, start=1):
        messages, step_max_nnz = [], 0
        for team in teams:
            for position, rank in enumerate(team):
                bag_blocks = plans[rank].bag_for_step(step_index)
                pieces = [held[rank].pop(block) for block in bag_blocks]
                step_max_nnz = max(step_max_nnz, *(piece.nnz for piece in pieces))
                messages.append(Message(
                    src=rank, dst=team[(position + distance) % team_size],
                    payload=pack_blocks(layout, bag_blocks, pieces),
                    tag=f"srs-{step_index}", lossy=True))
        inboxes = cluster.exchange(messages)
        max_bag_nnz_per_step.append(step_max_nnz)
        for team in teams:
            for rank in team:
                blocks = held[rank]
                for message in inboxes.get(rank, []):
                    payload = message.payload
                    for first in range(0, payload.num_bags, layout.num_buckets):
                        block = payload.ids[first] % team_size
                        if block not in blocks:
                            raise RuntimeError(
                                f"Theorem 1 violated: worker {rank} received block "
                                f"{block} it no longer holds")
                        blocks[block] = blocks[block].add(
                            payload.span(first, first + layout.num_buckets))
                plan = plans[rank]
                if sparsify_all:
                    targets = tuple(blocks)
                elif step_index < num_steps:
                    targets = plan.bag_for_step(step_index + 1)
                else:
                    targets = (plan.preserved,)
                for block in targets:
                    blocks[block], dropped = sparsify_block(
                        layout, block, blocks[block], budgets)
                    residuals.collect_procedure(rank, dropped)
                    resparsified += 1
    reduced_blocks, owned_block = {}, {}
    for team in teams:
        for rank in team:
            block = plans[rank].preserved
            reduced_blocks[rank] = held[rank][block]
            owned_block[rank] = block
    return SRSOutput(reduced_blocks=reduced_blocks, owned_block=owned_block,
                     layout=layout, num_steps=num_steps,
                     max_bag_nnz_per_step=max_bag_nnz_per_step,
                     resparsified=resparsified)
