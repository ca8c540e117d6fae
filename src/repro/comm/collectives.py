"""Dense collective communication algorithms over the simulated cluster.

These are the textbook building blocks the paper relies on (Section II and
Figure 3):

* **Bruck All-Gather** — efficient for any number of workers, used by
  SparDL's final intra-team gather and by B-SAG.
* **Ring All-Reduce** and **Rabenseifner All-Reduce** — the dense baselines.

All collectives support *grouped* execution: several disjoint groups of
workers run the same collective concurrently and share communication
rounds, which is how SparDL's teams overlap their intra-team phases.

Accounting convention: every collective prices its messages as it builds
them, with the ``price`` it is given (default :func:`payload_size`; a
synchroniser passes its ``wire_size``, which applies its compression).
Control metadata (group positions, slice offsets, block ids) is never billed
as transmitted elements — a message whose payload carries such bookkeeping
alongside the data is priced on the data alone, so recorded volumes match
the closed-form element counts of the alpha-beta analysis exactly.

The dense All-Reduces compute their result once, apart from their messages:
one task per owned range on the rank pool (:mod:`repro.core.rank_pool`) sums
that range, block by block, in the operand order of the schedule's adds —
one compiled call when the kernels of :mod:`repro.sparse.ckernels` are
there, which also counts the range's non-zeros for the ``dense`` method's
``final_nnz``.
Their message rounds are the schedule's accounting — every message with the
source, destination, tag and billed size the schedule gives it, carrying
views of the senders' inputs (reduce-scatter) and of the result
(all-gather) — so a fault plan prices drops and retries but cannot change
the result.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from ..sparse.ckernels import get_kernels
from .transport import Message, Transport, payload_size

__all__ = [
    "allgather_bruck_grouped",
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
    price: Callable[[Any], float] = payload_size,
) -> Dict[int, List[Any]]:
    """Bruck All-Gather run concurrently inside each group.

    ``items`` maps every participating global rank to its local item.  The
    result maps every participating rank to the list of items of its whole
    group, ordered by position within the group (so ``result[rank][j]`` is
    the item contributed by ``group[j]``).

    All groups advance in lock-step; a communication step performed by any
    group counts as a single shared round, which models teams communicating
    in parallel.

    Each message carries the forwarded slice of the rolling buffer as a
    plain list; sparse callers hand in :class:`~repro.comm.packed.PackedBags`
    items, the one wire form of sparse gradient mass, and ``price`` bills
    the list as the sum of its packs.  Every member of a group receives the
    same item objects, in the same order.
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
                payload = buffers[rank][:count]
                messages.append(Message(src=rank, dst=dst, payload=payload,
                                        size=price(payload), tag=f"bruck-{step}"))
        if not messages:
            continue
        inboxes = cluster.exchange(messages)
        for dst, inbox in inboxes.items():
            for message in inbox:
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


# ---------------------------------------------------------------------------
# Dense All-Reduce
# ---------------------------------------------------------------------------
# Both algorithms sum each owned range once (see the module docstring), in
# the operand order of the schedule's adds: ``a + b`` and ``b + a`` can be
# different NaNs.  No message is lossy, so a fault plan can delay one or
# force it through, and the result never depends on delivery.
#
# An operand tree names the inputs by their position in the group: a leaf is
# an ``int``, a sum a pair ``(left, right)``.

#: Elements per block of the NumPy reduction: a block's partial sums stay in
#: cache from the add that writes them to the add that reads them.
_BLOCK = 1 << 14


def _dense_inputs(vectors: Dict[int, np.ndarray],
                  group: Sequence[int]) -> tuple[Dict[int, np.ndarray], int]:
    """``float64`` views of every group rank's input (a copy only for other
    dtypes) and their common length; ``ValueError`` naming the rank when an
    input is missing, complex, not 1-D, or of another length than the
    first."""
    if not group:
        raise ValueError("dense All-Reduce needs a non-empty group")
    views: Dict[int, np.ndarray] = {}
    for rank in group:
        if rank not in vectors:
            raise ValueError(f"rank {rank} of the group has no input vector")
        if np.iscomplexobj(vectors[rank]):
            raise ValueError(f"rank {rank}'s input is complex; "
                             "dense All-Reduce takes real vectors")
        view = views[rank] = np.asarray(vectors[rank], dtype=np.float64)
        if view.ndim != 1:
            raise ValueError(f"rank {rank}'s input has shape {view.shape}; "
                             "dense All-Reduce takes 1-D vectors")
        n = views[group[0]].shape[0]
        if view.shape[0] != n:
            raise ValueError(f"rank {rank}'s input has {view.shape[0]} elements, "
                             f"rank {group[0]}'s has {n}")
    return views, n


def _sum(tree: Any, inputs: Sequence[np.ndarray], lo: int, hi: int,
         out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """The sum ``tree`` over ``[lo, hi)``.  A leaf gives its input's view; a
    pair ``(left, right)`` is ``left + right``, written into ``out``.  A
    chain of pairs with leaves on the left is walked, not recursed into (a
    ring chunk is a chain of ``P - 1`` pairs); a right operand that is itself
    a sum of pairs goes into ``scratch[0]`` (its own right operands into the
    rows after)."""
    lefts = []
    while isinstance(tree, tuple) and isinstance(tree[0], int):
        lefts.append(tree[0])
        tree = tree[1]
    if isinstance(tree, int):
        total = inputs[tree][lo:hi]
    else:
        left, right = tree
        total = np.add(_sum(left, inputs, lo, hi, out, scratch),
                       _sum(right, inputs, lo, hi, scratch[0], scratch[1:]), out=out)
    for left in reversed(lefts):
        total = np.add(inputs[left][lo:hi], total, out=out)
    return total


def _sum_range(result: np.ndarray, inputs: Sequence[np.ndarray], tree: Any,
               lo: int, hi: int, rows: int) -> None:
    """Write ``tree`` over ``[lo, hi)`` into ``result``, one block at a time
    (the NumPy statement of the reduction; ``rows``: the scratch rows the
    tree needs).  The last block takes the remainder, so the last add over
    the range ends in the same vector-loop tail as one add over all of it:
    NumPy picks between two NaN operands by where an element falls in its
    loop, and a ring chunk's NaNs stay those of the schedule's adds over
    whole chunks."""
    edges = [lo + _BLOCK * block for block in range(max(1, (hi - lo) // _BLOCK))] + [hi]
    scratch = np.empty((rows, hi - edges[-2]))
    for start, stop in zip(edges, edges[1:]):
        _sum(tree, inputs, start, stop, result[start:stop], scratch[:, :stop - start])


def _sum_and_count(result: np.ndarray, inputs: Sequence[np.ndarray], tree: Any,
                   cuts: np.ndarray, rows: int, counts: np.ndarray) -> None:
    """The NumPy leg of one owned range: :func:`_sum_range` over
    ``[cuts[0], cuts[-1])``, then the non-zeros of every piece between
    consecutive ``cuts`` into ``counts[:, 0]``."""
    _sum_range(result, inputs, tree, int(cuts[0]), int(cuts[-1]), rows)
    for piece, (lo, hi) in enumerate(zip(cuts.tolist(), cuts[1:].tolist())):
        counts[piece, 0] = np.count_nonzero(result[lo:hi])


def _reduce(cluster: Transport, inputs: Sequence[np.ndarray],
            owned: Sequence[tuple[tuple[int, int], Any]], rows: int
            ) -> tuple[np.ndarray, int]:
    """A fresh ``result`` holding every owned range ``((lo, hi), tree)``
    summed as its tree says (``rows``: the scratch rows the NumPy statement
    of the trees needs), one rank-pool task per range, and the non-zero
    entries of ``result``.  With the compiled kernels a task is one tree-sum
    call, which counts as it sums; a range it finds a NaN in is summed again
    by :func:`_sum_range`, so both legs write the same bytes.  When traced,
    the gauge ``comm.reduce_workers`` says how many threads ran the tasks."""
    # Imported here: a module-level import would load repro.core, which
    # imports this module.
    from ..core import rank_pool
    n = inputs[0].shape[0]
    result = np.empty(n)
    # The owned ranges tile [0, n): one piece, and one count, per range.
    cuts = np.union1d([lo for (lo, _), _ in owned], [0, n]).astype(np.int64)
    counts = np.zeros((cuts.shape[0] - 1, 2), dtype=np.int64)
    spans = np.searchsorted(cuts, [span for span, _ in owned]).tolist()
    kernels = get_kernels()
    if kernels is None:
        tasks = [partial(_sum_and_count, result, inputs, tree, cuts[first:last + 1],
                         rows, counts[first:last])
                 for (first, last), (_, tree) in zip(spans, owned)]
    else:
        tasks = kernels.tree_sum_tasks(inputs, result, cuts, counts, [
            (tree, first, last) for (first, last), (_, tree) in zip(spans, owned)])
    _, workers = rank_pool.run(tasks)
    if kernels is not None and counts[:, 1].any():
        rank_pool.run([partial(_sum_range, result, inputs, tree, lo, hi, rows)
                       for (first, last), ((lo, hi), tree) in zip(spans, owned)
                       if counts[first:last, 1].any()])
    if cluster.tracer is not None:
        cluster.tracer.metrics.gauge("comm.reduce_workers").set(workers)
    return result, int(counts[:, 0].sum())


def _shared(result: np.ndarray, group: Sequence[int]) -> Dict[int, np.ndarray]:
    """Freeze ``result`` and hand the same array to every rank of ``group``."""
    result.flags.writeable = False
    return {rank: result for rank in group}


def _alone(vector: np.ndarray, group: Sequence[int]
           ) -> tuple[Dict[int, np.ndarray], int]:
    """A one-rank group's result (a copy of its input) and its non-zeros."""
    result = vector.copy()
    return _shared(result, group), int(np.count_nonzero(result))


def allreduce_ring(
    cluster: Transport,
    vectors: Dict[int, np.ndarray],
    group: Optional[Sequence[int]] = None,
    price: Callable[[Any], float] = payload_size,
) -> Dict[int, np.ndarray]:
    """Bandwidth-optimal ring All-Reduce (2(P-1) rounds, 2n(P-1)/P volume).

    Chunk ``c`` starts at position ``c`` and every hop adds the receiver's
    own input on the left, so its owner ``c - 1`` holds
    ``a[c-1] + (… + (a[c+1] + a[c]))``; each chunk is summed once in that
    order, and the rounds carry views of the inputs, then of the result.
    Every rank of ``group`` gets the same read-only result array."""
    return _ring(cluster, vectors, group, price)[0]


def _ring(cluster: Transport, vectors: Dict[int, np.ndarray],
          group: Optional[Sequence[int]], price: Callable[[Any], float]
          ) -> tuple[Dict[int, np.ndarray], int]:
    """:func:`allreduce_ring`, and the result's non-zeros (see
    :func:`_reduce`)."""
    if group is None:
        group = list(cluster.ranks)
    group = list(group)
    _validate_group(group, cluster)
    views, n = _dense_inputs(vectors, group)
    size = len(group)
    if size == 1:
        return _alone(views[group[0]], group)
    bounds = _partition_bounds(n, size)
    inputs = [views[rank] for rank in group]

    # Reduce-scatter phase: at step s position p sends chunk p - s.
    for step in range(size - 1):
        messages = []
        for pos, rank in enumerate(group):
            chunk_idx = (pos - step) % size
            lo, hi = bounds[chunk_idx]
            chunk = inputs[pos][lo:hi]
            messages.append(Message(src=rank, dst=group[(pos + 1) % size],
                                    payload=chunk, size=price(chunk),
                                    tag=f"ring-rs-{chunk_idx}"))
        cluster.exchange(messages)

    owned = []
    for chunk_idx, span in enumerate(bounds):
        tree = chunk_idx
        for hop in range(1, size):
            tree = ((chunk_idx + hop) % size, tree)
        owned.append((span, tree))
    result, count = _reduce(cluster, inputs, owned, 0)

    # All-gather phase: at step s position p forwards chunk p + 1 - s.
    for step in range(size - 1):
        messages = []
        for pos, rank in enumerate(group):
            chunk_idx = (pos + 1 - step) % size
            lo, hi = bounds[chunk_idx]
            chunk = result[lo:hi]
            messages.append(Message(src=rank, dst=group[(pos + 1) % size],
                                    payload=chunk, size=price(chunk),
                                    tag=f"ring-ag-{chunk_idx}"))
        cluster.exchange(messages)

    return _shared(result, group), count


def allreduce_rabenseifner(
    cluster: Transport,
    vectors: Dict[int, np.ndarray],
    group: Optional[Sequence[int]] = None,
    price: Callable[[Any], float] = payload_size,
) -> Dict[int, np.ndarray]:
    """Rabenseifner's All-Reduce: recursive-halving Reduce-Scatter followed by
    recursive-doubling All-Gather.  Requires a power-of-two group size.

    At every halving step a position adds its partner's partial sum to its
    own, so the owner at position ``r`` holds the own-first XOR tree
    ``((a[r] + a[r^P/2]) + (a[r^P/4] + a[r^P/4^P/2])) + …``; each owned range
    is summed once in that order, and the rounds carry views of the inputs,
    then of the result.  Every rank of ``group`` gets the same read-only
    result array."""
    return _rabenseifner(cluster, vectors, group, price)[0]


def _rabenseifner(cluster: Transport, vectors: Dict[int, np.ndarray],
                  group: Optional[Sequence[int]], price: Callable[[Any], float]
                  ) -> tuple[Dict[int, np.ndarray], int]:
    """:func:`allreduce_rabenseifner`, and the result's non-zeros (see
    :func:`_reduce`)."""
    if group is None:
        group = list(cluster.ranks)
    group = list(group)
    _validate_group(group, cluster)
    size = len(group)
    if size & (size - 1):
        raise ValueError("Rabenseifner's All-Reduce requires a power-of-two group size")
    views, n = _dense_inputs(vectors, group)
    if size == 1:
        return _alone(views[group[0]], group)
    inputs = [views[rank] for rank in group]
    num_steps = int(math.log2(size))

    # Recursive halving reduce-scatter: every position keeps one half of its
    # range and sends the other to its partner, together with the slice
    # offset (addressing metadata: only the chunk is priced).
    ranges = [(0, n)] * size
    trees: List[Any] = list(range(size))
    for step in range(num_steps):
        distance = size >> (step + 1)
        messages = []
        for pos, rank in enumerate(group):
            lo, hi = ranges[pos]
            mid = (lo + hi) // 2
            if pos & distance:
                send_lo, send_hi, ranges[pos] = lo, mid, (mid, hi)
            else:
                send_lo, send_hi, ranges[pos] = mid, hi, (lo, mid)
            chunk = inputs[pos][send_lo:send_hi]
            messages.append(Message(src=rank, dst=group[pos ^ distance],
                                    payload=(send_lo, chunk), size=price(chunk)))
        cluster.exchange(messages)
        trees = [(trees[pos], trees[pos ^ distance]) for pos in range(size)]

    result, count = _reduce(cluster, inputs, list(zip(ranges, trees)),
                            num_steps - 1)

    # Recursive doubling all-gather: every position forwards the range it
    # has gathered so far and adds its partner's.
    for step in reversed(range(num_steps)):
        distance = size >> (step + 1)
        messages = []
        for pos, rank in enumerate(group):
            lo, hi = ranges[pos]
            chunk = result[lo:hi]
            messages.append(Message(src=rank, dst=group[pos ^ distance],
                                    payload=(lo, chunk), size=price(chunk)))
        cluster.exchange(messages)
        ranges = [(min(ranges[pos][0], ranges[pos ^ distance][0]),
                   max(ranges[pos][1], ranges[pos ^ distance][1]))
                  for pos in range(size)]

    return _shared(result, group), count


def allreduce_dense(
    cluster: Transport,
    vectors: Dict[int, np.ndarray],
    group: Optional[Sequence[int]] = None,
    price: Callable[[Any], float] = payload_size,
) -> Dict[int, np.ndarray]:
    """Dense All-Reduce choosing Rabenseifner for power-of-two groups and the
    ring algorithm otherwise."""
    return _allreduce_dense(cluster, vectors, group, price)[0]


def _allreduce_dense(cluster: Transport, vectors: Dict[int, np.ndarray],
                     group: Optional[Sequence[int]] = None,
                     price: Callable[[Any], float] = payload_size
                     ) -> tuple[Dict[int, np.ndarray], int]:
    """:func:`allreduce_dense`, and the non-zero entries of its result,
    counted as the result is summed (``np.count_nonzero``), which the
    ``dense`` method reports as ``final_nnz``."""
    if group is None:
        group = list(cluster.ranks)
    size = len(group)
    if size and not size & (size - 1):
        return _rabenseifner(cluster, vectors, group, price)
    return _ring(cluster, vectors, group, price)


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
