"""Dense collective communication algorithms over the simulated cluster.

These are the textbook building blocks the paper relies on (Section II and
Figure 3):

* **Bruck All-Gather** — efficient for any number of workers, used by
  SparDL's final intra-team gather and by B-SAG.
* **Recursive-doubling All-Gather** — efficient for power-of-two worker
  counts, used by R-SAG and by the TopkA baseline.
* **Ring All-Reduce** and **Rabenseifner All-Reduce** — the dense baselines.
* **Direct-send Reduce-Scatter** — the latency-heavy pattern used by the
  TopkDSA and Ok-Topk baselines.

All collectives support *grouped* execution: several disjoint groups of
workers run the same collective concurrently and share communication
rounds, which is how SparDL's teams overlap their intra-team phases.

Accounting convention: control metadata (group positions, slice offsets,
block ids) is never billed as transmitted elements — messages whose payload
carries such bookkeeping alongside the data pass an explicit ``size=`` with
the data elements only, so recorded volumes match the closed-form element
counts of the alpha-beta analysis exactly.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..sparse.vector import SparseGradient
from .transport import Message, Transport, payload_size
from .packed import PackedBags

__all__ = [
    "allgather_bruck",
    "allgather_bruck_grouped",
    "allgather_recursive_doubling",
    "allgather_recursive_doubling_grouped",
    "reduce_scatter_direct",
    "allreduce_ring",
    "allreduce_rabenseifner",
    "allreduce_dense",
]


def _validate_group(group: Sequence[int], cluster: Transport) -> None:
    if len(set(group)) != len(group):
        raise ValueError("group contains duplicate ranks")
    for rank in group:
        if not 0 <= rank < cluster.num_workers:
            raise ValueError(f"rank {rank} outside cluster of size {cluster.num_workers}")


# ---------------------------------------------------------------------------
# Bruck All-Gather
# ---------------------------------------------------------------------------
def allgather_bruck_grouped(
    cluster: Transport,
    groups: Sequence[Sequence[int]],
    items: Dict[int, Any],
) -> Dict[int, List[Any]]:
    """Bruck All-Gather run concurrently inside each group.

    ``items`` maps every participating global rank to its local item.  The
    result maps every participating rank to the list of items of its whole
    group, ordered by position within the group (so ``result[rank][j]`` is
    the item contributed by ``group[j]``).

    All groups advance in lock-step; a communication step performed by any
    group counts as a single shared round, which models teams communicating
    in parallel.

    Sparse payloads use the batched wire format: when every forwarded item
    is a :class:`~repro.sparse.vector.SparseGradient`, the slice of the
    rolling buffer is packed into one :class:`PackedBags` buffer pair per
    message (``comm_size`` derived from the packed arrays — identical to the
    sum of the per-item COO sizes) and unpacked into zero-copy views on
    receive.  Other item types travel as plain lists, unchanged.
    """
    for group in groups:
        _validate_group(group, cluster)

    # Per-rank rolling buffer, starting with the local item.
    buffers: Dict[int, List[Any]] = {rank: [items[rank]] for group in groups for rank in group}
    max_size = max((len(group) for group in groups), default=0)
    if max_size == 0:
        return {}
    num_steps = max(1, math.ceil(math.log2(max_size))) if max_size > 1 else 0

    for step in range(num_steps):
        distance = 1 << step
        messages: List[Message] = []
        for group in groups:
            size = len(group)
            if distance >= size:
                continue
            for pos, rank in enumerate(group):
                dst = group[(pos - distance) % size]
                # At step t each worker forwards the first min(2^t, P - 2^t)
                # items it holds; the receiver then holds min(2^(t+1), P).
                count = min(distance, size - distance)
                payload: Any = buffers[rank][:count]
                if all(isinstance(item, SparseGradient) for item in payload):
                    payload = PackedBags.pack(payload)
                messages.append(Message(src=rank, dst=dst, payload=payload, tag=f"bruck-{step}"))
        if not messages:
            continue
        inboxes = cluster.exchange(messages)
        for dst, inbox in inboxes.items():
            for message in inbox:
                if isinstance(message.payload, PackedBags):
                    buffers[dst].extend(message.payload.to_list())
                else:
                    buffers[dst].extend(message.payload)

    # Trim and rotate so results are in absolute group order.
    results: Dict[int, List[Any]] = {}
    for group in groups:
        size = len(group)
        for pos, rank in enumerate(group):
            rolled = buffers[rank][:size]
            if len(rolled) != size:
                raise RuntimeError("Bruck All-Gather did not converge")
            ordered = [None] * size
            for offset, item in enumerate(rolled):
                ordered[(pos + offset) % size] = item
            results[rank] = ordered
    return results


def allgather_bruck(
    cluster: Transport,
    items: Dict[int, Any],
    group: Optional[Sequence[int]] = None,
) -> Dict[int, List[Any]]:
    """Bruck All-Gather over one group (default: the whole cluster)."""
    if group is None:
        group = list(cluster.ranks)
    return allgather_bruck_grouped(cluster, [list(group)], items)


# ---------------------------------------------------------------------------
# Recursive doubling All-Gather
# ---------------------------------------------------------------------------
def allgather_recursive_doubling_grouped(
    cluster: Transport,
    groups: Sequence[Sequence[int]],
    items: Dict[int, Any],
) -> Dict[int, List[Any]]:
    """Recursive-doubling All-Gather inside each (power-of-two sized) group."""
    for group in groups:
        _validate_group(group, cluster)
        size = len(group)
        if size & (size - 1):
            raise ValueError(
                "recursive doubling requires a power-of-two group size; "
                f"got {size} (use Bruck All-Gather instead)"
            )

    # gathered[rank] maps group position -> item
    gathered: Dict[int, Dict[int, Any]] = {}
    for group in groups:
        for pos, rank in enumerate(group):
            gathered[rank] = {pos: items[rank]}

    max_size = max((len(group) for group in groups), default=1)
    num_steps = int(math.log2(max_size)) if max_size > 1 else 0
    for step in range(num_steps):
        distance = 1 << step
        messages: List[Message] = []
        for group in groups:
            size = len(group)
            if distance >= size:
                continue
            for pos, rank in enumerate(group):
                partner_pos = pos ^ distance
                partner = group[partner_pos]
                payload = list(gathered[rank].items())
                # Group positions are routing metadata, not transmitted
                # gradient data: bill only the items themselves.
                payload_elements = sum(payload_size(item) for _, item in payload)
                messages.append(Message(src=rank, dst=partner, payload=payload,
                                         size=payload_elements, tag=f"rd-{step}"))
        inboxes = cluster.exchange(messages)
        for dst, inbox in inboxes.items():
            for message in inbox:
                gathered[dst].update(dict(message.payload))

    results: Dict[int, List[Any]] = {}
    for group in groups:
        size = len(group)
        for rank in group:
            ordered = [gathered[rank][pos] for pos in range(size)]
            results[rank] = ordered
    return results


def allgather_recursive_doubling(
    cluster: Transport,
    items: Dict[int, Any],
    group: Optional[Sequence[int]] = None,
) -> Dict[int, List[Any]]:
    if group is None:
        group = list(cluster.ranks)
    return allgather_recursive_doubling_grouped(cluster, [list(group)], items)


# ---------------------------------------------------------------------------
# Reduce-Scatter (direct sends)
# ---------------------------------------------------------------------------
def reduce_scatter_direct(
    cluster: Transport,
    vectors: Dict[int, np.ndarray],
    group: Optional[Sequence[int]] = None,
) -> Dict[int, np.ndarray]:
    """Reduce-Scatter where every worker sends each partition straight to its
    owner (the latency-heavy pattern of TopkDSA / Ok-Topk, one peer per
    round, ``P - 1`` rounds)."""
    if group is None:
        group = list(cluster.ranks)
    group = list(group)
    _validate_group(group, cluster)
    size = len(group)
    first = vectors[group[0]]
    n = first.shape[0]
    bounds = _partition_bounds(n, size)

    partial: Dict[int, np.ndarray] = {}
    for pos, rank in enumerate(group):
        lo, hi = bounds[pos]
        partial[rank] = vectors[rank][lo:hi].astype(np.float64, copy=True)

    for shift in range(1, size):
        messages = []
        for pos, rank in enumerate(group):
            dst_pos = (pos + shift) % size
            dst = group[dst_pos]
            lo, hi = bounds[dst_pos]
            messages.append(Message(src=rank, dst=dst, payload=vectors[rank][lo:hi]))
        inboxes = cluster.exchange(messages)
        for dst, inbox in inboxes.items():
            for message in inbox:
                partial[dst] = partial[dst] + np.asarray(message.payload, dtype=np.float64)
    return partial


# ---------------------------------------------------------------------------
# Dense All-Reduce
# ---------------------------------------------------------------------------
# Both algorithms read the inputs through views, reduce every range exactly
# once (in the operand order of the textbook schedule) into one result array
# and hand that same read-only array to every worker: the all-gather phase
# ships views of the result and copies nothing.  Messages, rounds and billed
# elements are those of the schedule.
def _dense_inputs(vectors: Dict[int, np.ndarray],
                  group: Sequence[int]) -> tuple[Dict[int, np.ndarray], int]:
    """``float64`` views of every group rank's input (a copy only for other
    dtypes) and their common length; ``ValueError`` naming the rank when an
    input is missing, not 1-D, or of another length than the first."""
    if not group:
        raise ValueError("dense All-Reduce needs a non-empty group")
    views: Dict[int, np.ndarray] = {}
    for rank in group:
        if rank not in vectors:
            raise ValueError(f"rank {rank} of the group has no input vector")
        view = views[rank] = np.asarray(vectors[rank], dtype=np.float64)
        if view.ndim != 1:
            raise ValueError(f"rank {rank}'s input has shape {view.shape}; "
                             "dense All-Reduce takes 1-D vectors")
        n = views[group[0]].shape[0]
        if view.shape[0] != n:
            raise ValueError(f"rank {rank}'s input has {view.shape[0]} elements, "
                             f"rank {group[0]}'s has {n}")
    return views, n


def _shared(result: np.ndarray, group: Sequence[int]) -> Dict[int, np.ndarray]:
    """Freeze ``result`` and hand the same array to every rank of ``group``."""
    result.flags.writeable = False
    return {rank: result for rank in group}


def allreduce_ring(
    cluster: Transport,
    vectors: Dict[int, np.ndarray],
    group: Optional[Sequence[int]] = None,
) -> Dict[int, np.ndarray]:
    """Bandwidth-optimal ring All-Reduce (2(P-1) rounds, 2n(P-1)/P volume).

    Every rank of ``group`` gets the same read-only result array."""
    if group is None:
        group = list(cluster.ranks)
    group = list(group)
    _validate_group(group, cluster)
    views, n = _dense_inputs(vectors, group)
    size = len(group)
    if size == 1:
        return _shared(views[group[0]].copy(), group)
    bounds = _partition_bounds(n, size)

    # Chunks start as views of the inputs; a reduce-scatter add makes a
    # fresh ``own + received`` array, so no input is ever written.
    chunks: Dict[int, List[np.ndarray]] = {
        rank: [views[rank][lo:hi] for lo, hi in bounds] for rank in group
    }

    # Reduce-scatter phase.
    for step in range(size - 1):
        messages = []
        for pos, rank in enumerate(group):
            chunk_idx = (pos - step) % size
            dst = group[(pos + 1) % size]
            messages.append(Message(src=rank, dst=dst, payload=chunks[rank][chunk_idx],
                                     tag=f"ring-rs-{chunk_idx}"))
        inboxes = cluster.exchange(messages)
        for pos, rank in enumerate(group):
            chunk_idx = (pos - 1 - step) % size
            for message in inboxes.get(rank, []):
                chunks[rank][chunk_idx] = chunks[rank][chunk_idx] + np.asarray(message.payload)

    # Each owner writes its fully reduced chunk into the result once.
    result = np.empty(n)
    for pos, rank in enumerate(group):
        chunk_idx = (pos + 1) % size
        lo, hi = bounds[chunk_idx]
        result[lo:hi] = chunks[rank][chunk_idx]

    # All-gather phase: every hop forwards a view of the result.
    for step in range(size - 1):
        messages = []
        for pos, rank in enumerate(group):
            chunk_idx = (pos + 1 - step) % size
            dst = group[(pos + 1) % size]
            lo, hi = bounds[chunk_idx]
            messages.append(Message(src=rank, dst=dst, payload=result[lo:hi],
                                     tag=f"ring-ag-{chunk_idx}"))
        cluster.exchange(messages)

    return _shared(result, group)


def allreduce_rabenseifner(
    cluster: Transport,
    vectors: Dict[int, np.ndarray],
    group: Optional[Sequence[int]] = None,
) -> Dict[int, np.ndarray]:
    """Rabenseifner's All-Reduce: recursive-halving Reduce-Scatter followed by
    recursive-doubling All-Gather.  Requires a power-of-two group size.

    Every rank of ``group`` gets the same read-only result array."""
    if group is None:
        group = list(cluster.ranks)
    group = list(group)
    _validate_group(group, cluster)
    size = len(group)
    if size & (size - 1):
        raise ValueError("Rabenseifner's All-Reduce requires a power-of-two group size")
    views, n = _dense_inputs(vectors, group)
    if size == 1:
        return _shared(views[group[0]].copy(), group)

    # Track the index range each worker is currently responsible for.
    ranges: Dict[int, tuple[int, int]] = {rank: (0, n) for rank in group}
    # Step 0 adds ``own + received`` into a fresh array of the kept half
    # (``sums[rank]``, starting at index ``starts[rank]``); later steps add
    # in place into that rank-private array.  The inputs are only read.
    sums: Dict[int, np.ndarray] = {}
    starts: Dict[int, int] = {}

    num_steps = int(math.log2(size))
    # Recursive halving reduce-scatter.
    for step in range(num_steps):
        distance = size >> (step + 1)
        messages = []
        plan = {}
        for pos, rank in enumerate(group):
            partner = group[pos ^ distance]
            lo, hi = ranges[rank]
            mid = (lo + hi) // 2
            keep_high = bool(pos & distance)
            if keep_high:
                send_lo, send_hi, keep = lo, mid, (mid, hi)
            else:
                send_lo, send_hi, keep = mid, hi, (lo, mid)
            plan[rank] = keep
            data, start = (views[rank], 0) if step == 0 else (sums[rank], starts[rank])
            # The slice offset is addressing metadata; only the chunk's
            # elements travel.
            messages.append(Message(src=rank, dst=partner,
                                     payload=(send_lo, data[send_lo - start:send_hi - start]),
                                     size=float(send_hi - send_lo)))
        inboxes = cluster.exchange(messages)
        for rank in group:
            ranges[rank] = plan[rank]
            for message in inboxes.get(rank, []):
                lo, chunk = message.payload
                if step == 0:
                    starts[rank] = lo
                    sums[rank] = views[rank][lo:lo + len(chunk)] + chunk
                else:
                    at = lo - starts[rank]
                    sums[rank][at:at + len(chunk)] += chunk

    # Each owner writes its fully reduced range into the result once.
    result = np.empty(n)
    for rank in group:
        lo, hi = ranges[rank]
        result[lo:hi] = sums[rank][lo - starts[rank]:hi - starts[rank]]

    # Recursive doubling all-gather of the owned ranges: every hop forwards
    # a view of the result over the range its sender has gathered so far.
    for step in reversed(range(num_steps)):
        distance = size >> (step + 1)
        messages = []
        for pos, rank in enumerate(group):
            partner = group[pos ^ distance]
            lo, hi = ranges[rank]
            messages.append(Message(src=rank, dst=partner, payload=(lo, result[lo:hi]),
                                     size=float(hi - lo)))
        inboxes = cluster.exchange(messages)
        for rank in group:
            lo, hi = ranges[rank]
            for message in inboxes.get(rank, []):
                other_lo, chunk = message.payload
                lo = min(lo, other_lo)
                hi = max(hi, other_lo + len(chunk))
            ranges[rank] = (lo, hi)

    return _shared(result, group)


def allreduce_dense(
    cluster: Transport,
    vectors: Dict[int, np.ndarray],
    group: Optional[Sequence[int]] = None,
) -> Dict[int, np.ndarray]:
    """Dense All-Reduce choosing Rabenseifner for power-of-two groups and the
    ring algorithm otherwise."""
    if group is None:
        group = list(cluster.ranks)
    size = len(group)
    if size and not size & (size - 1):
        return allreduce_rabenseifner(cluster, vectors, group)
    return allreduce_ring(cluster, vectors, group)


# ---------------------------------------------------------------------------
def _partition_bounds(n: int, parts: int) -> List[tuple[int, int]]:
    """Split ``[0, n)`` into ``parts`` contiguous, nearly equal ranges."""
    base = n // parts
    remainder = n % parts
    bounds = []
    start = 0
    for i in range(parts):
        length = base + (1 if i < remainder else 0)
        bounds.append((start, start + length))
        start += length
    return bounds
