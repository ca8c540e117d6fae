"""The one wire form of sparse gradient mass.

A :class:`~repro.sparse.vector.SparseGradient` is the compute type; every
message that carries sparse gradient mass — a Spar-Reduce-Scatter bag of
blocks, a Bruck All-Gather item, every baseline's Reduce-Scatter slice,
All-Gather region or gathered selection set — travels as one
:class:`PackedBags`: all bags of the message concatenated into a single
contiguous ``(indices, values)`` buffer pair with an ``offsets`` table
delimiting the bags, exactly like an MPI message built from one gather of
COO segments.  :func:`~repro.comm.transport.payload_size` and the
quantizer's price key on this one type; a bare ``SparseGradient`` payload
is a ``TypeError``.  Properties of the format:

* **One buffer pair on the wire.**  ``comm_size`` is derived from the packed
  arrays alone (``indices.size + values.size`` — two elements per non-zero,
  the paper's COO convention).  Bag identifiers (block ids, group positions)
  and the offsets table are *metadata* and cost nothing, mirroring how a real
  implementation encodes them in the message header.
* **Zero-copy decode.**  :meth:`bag` / :meth:`items` rebuild each
  :class:`SparseGradient` as a slice view of the packed buffers through the
  trusted ``from_sorted_unique`` constructor (each bag was a valid sparse
  gradient when packed, and packing preserves per-bag order), so receivers
  can feed the views straight into :meth:`SparseGradient.merge_many`'s
  kernel.
* **Immutable on the wire.**  The packed buffers are marked read-only at
  construction, so no receiver can corrupt another receiver's (or the
  sender's) view of the same physical message.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..sparse.vector import SparseGradient

__all__ = ["PackedBags"]


@dataclass(frozen=True)
class PackedBags:
    """A batch of sparse COO bags packed into one contiguous buffer pair.

    ``indices`` / ``values`` hold the concatenation of every bag's COO
    arrays; bag ``i`` occupies the half-open slice ``offsets[i]:offsets[i+1]``
    and carries the metadata identifier ``ids[i]`` (a block id, a group
    position — whatever the caller needs to route the bag on receive).
    """

    #: Per-bag metadata identifiers (block ids, positions, ...). Zero cost.
    ids: Tuple[int, ...]
    #: ``int64`` array of ``num_bags + 1`` cumulative bag boundaries. Zero cost.
    offsets: np.ndarray
    #: Concatenated, per-bag-sorted COO indices of every bag.
    indices: np.ndarray
    #: Concatenated COO values matching ``indices``.
    values: np.ndarray
    #: Length of the underlying gradient vector.
    length: int

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def pack(cls, bags: Sequence[SparseGradient],
             ids: Optional[Sequence[int]] = None) -> "PackedBags":
        """Concatenate ``bags`` into one packed message payload.

        ``ids`` defaults to the bag positions ``0..len(bags)-1``; callers
        that route by block id pass the block ids instead.
        """
        if ids is None:
            ids = range(len(bags))
        ids = tuple(int(i) for i in ids)
        if len(ids) != len(bags):
            raise ValueError("ids and bags must have the same length")
        if not bags:
            raise ValueError("pack needs at least one bag")
        length = bags[0].length
        for bag in bags[1:]:
            if bag.length != length:
                raise ValueError("cannot pack sparse gradients of different lengths")
        offsets = np.zeros(len(bags) + 1, dtype=np.int64)
        np.cumsum([bag.nnz for bag in bags], out=offsets[1:])
        if len(bags) == 1:
            # Single bag: reuse the existing arrays as the packed buffers
            # (read-only views so the freeze never reaches the caller's
            # arrays).
            indices = bags[0].indices.view()
            values = bags[0].values.view()
        else:
            indices = np.concatenate([bag.indices for bag in bags])
            values = np.concatenate([bag.values for bag in bags])
        for array in (offsets, indices, values):
            array.flags.writeable = False
        return cls(ids=ids, offsets=offsets, indices=indices, values=values,
                   length=length)

    @classmethod
    def pack_split(cls, pieces: Sequence[SparseGradient],
                   splits: Sequence[np.ndarray],
                   ids: Sequence[int]) -> "PackedBags":
        """:meth:`pack` with every piece cut into several bags: piece ``i``
        contributes the bags ``splits[i][j]:splits[i][j + 1]`` of its
        entries (``splits[i]`` rises from 0 to its ``nnz``).

        This is how a block spanning several separately selected tensors
        travels: one bag per tensor's segment, so that whatever is accounted
        per bag — a quantiser's scale — stays per segment, while
        :meth:`span` hands the receiver the whole block back as one view.
        """
        packed = cls.pack(pieces)
        offsets = np.concatenate(
            [split[:-1] + base for split, base in zip(splits, packed.offsets)]
            + [packed.offsets[-1:]])
        offsets.flags.writeable = False
        return cls(ids=tuple(ids), offsets=offsets, indices=packed.indices,
                   values=packed.values, length=packed.length)

    def __post_init__(self) -> None:
        if self.offsets.shape[0] != len(self.ids) + 1:
            raise ValueError("offsets must have one more entry than ids")
        if self.indices.shape[0] != self.values.shape[0]:
            raise ValueError("indices and values must have the same length")
        if int(self.offsets[-1]) != self.indices.shape[0]:
            raise ValueError("offsets do not cover the packed arrays")

    # ------------------------------------------------------------------
    # wire accounting
    # ------------------------------------------------------------------
    @property
    def num_bags(self) -> int:
        """Number of packed bags (``int``)."""
        return len(self.ids)

    @property
    def nnz(self) -> int:
        """Total non-zeros across all bags."""
        return int(self.indices.shape[0])

    @property
    def comm_size(self) -> float:
        """Transmitted elements: the packed COO arrays only (two elements per
        non-zero).  Ids and offsets are header metadata and cost nothing."""
        return float(self.indices.shape[0] + self.values.shape[0])

    # ------------------------------------------------------------------
    # decode
    # ------------------------------------------------------------------
    def bag(self, position: int) -> SparseGradient:
        """Decode bag ``position`` as a zero-copy view of the packed buffers."""
        lo = int(self.offsets[position])
        hi = int(self.offsets[position + 1])
        return SparseGradient.from_sorted_unique(
            self.indices[lo:hi], self.values[lo:hi], self.length
        )

    def span(self, start: int = 0, stop: Optional[int] = None) -> SparseGradient:
        """Bags ``start`` up to ``stop`` (default: the last) as one
        zero-copy sparse gradient.  Only for bags that were cut from one
        piece (:meth:`pack_split`): their indices rise across bag
        boundaries too."""
        lo = int(self.offsets[start])
        hi = int(self.offsets[self.num_bags if stop is None else stop])
        return SparseGradient.from_sorted_unique(
            self.indices[lo:hi], self.values[lo:hi], self.length
        )

    @classmethod
    def join(cls, items: Sequence["PackedBags"]) -> "PackedBags":
        """Every bag of ``items`` (at least one payload; bag ids unique
        across them) as one payload, bags in ascending id order.

        How a sender forwards everything it has gathered as one message:
        the ids keep routing the bags, so the receiver never needs to know
        which earlier message brought which bag."""
        bags = []  # (id, payload, lo, hi); ids are unique, so they alone order
        for number, item in enumerate(items):
            edges = item.offsets.tolist()
            bags += zip(item.ids, repeat(number), edges, edges[1:])
        bags.sort()
        offsets = np.zeros(len(bags) + 1, dtype=np.int64)
        np.cumsum([hi - lo for _, _, lo, hi in bags], out=offsets[1:])
        indices = np.concatenate([items[number].indices[lo:hi]
                                  for _, number, lo, hi in bags])
        values = np.concatenate([items[number].values[lo:hi]
                                 for _, number, lo, hi in bags])
        for array in (offsets, indices, values):
            array.flags.writeable = False
        return cls(ids=tuple(bag[0] for bag in bags), offsets=offsets,
                   indices=indices, values=values, length=items[0].length)

    @staticmethod
    def concat_by_id(items: Sequence["PackedBags"]) -> SparseGradient:
        """Every bag of ``items`` (at least one payload, each with its bags
        in ascending id order) as one sparse gradient, bags in ascending id
        order.

        For payloads whose ids number disjoint index ranges that rise with
        the id — the segments of a
        :class:`~repro.sparse.blocks.BlockLayout`, the owner regions of a
        direct-send Reduce-Scatter: concatenating in id order then *is* the
        merge.  Equal to :meth:`SparseGradient.merge_many` over the
        payloads' :meth:`span` bit for bit, without comparing an index."""
        nonempty = [item for item in items if item.nnz]
        if len(nonempty) <= 1:
            return (nonempty or items)[0].span()
        joined = PackedBags.join(nonempty)
        # As a merge accumulates, 0.0 + v: -0.0 comes out +0.0.
        return SparseGradient.from_sorted_unique(
            joined.indices, joined.values + 0.0, joined.length)

    def items(self) -> Iterator[Tuple[int, SparseGradient]]:
        """Iterate ``(id, bag)`` pairs in packing order."""
        for position, bag_id in enumerate(self.ids):
            yield bag_id, self.bag(position)

    def to_list(self) -> List[SparseGradient]:
        """Decode every bag, in packing order (ids discarded)."""
        return [self.bag(position) for position in range(self.num_bags)]

    def __len__(self) -> int:
        """Alias for :attr:`num_bags`."""
        return self.num_bags

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PackedBags(num_bags={self.num_bags}, nnz={self.nnz}, length={self.length})"
