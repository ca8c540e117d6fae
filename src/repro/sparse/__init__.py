"""Sparse gradient substrate: COO vectors, top-k selection and block layout.

Invariant contract
------------------
Every :class:`SparseGradient` holds sorted, unique, in-range ``int64``
indices with matching ``float64`` values.  There are two construction paths:

* **Validating** (API boundary): ``SparseGradient(...)`` /
  :meth:`SparseGradient.from_dense` check — and if necessary repair — the
  invariant.  Use these for any arrays whose provenance is not this package.
* **Trusted** (kernel-internal): :meth:`SparseGradient.from_sorted_unique`
  skips re-validation entirely.  It is reserved for arrays produced by the
  kernels in this package (k-way merge-sum, top-k / threshold splits,
  searchsorted restriction), all of which preserve the invariant by
  construction.  Passing unsorted, duplicated or out-of-range indices to
  it is undefined behaviour.

The raw array kernel of :meth:`SparseGradient.merge_many`, the one
merge-sum (:func:`merge_many_coo`), is exported too;
``tests/test_property_sparse.py`` holds it bit-identical to the seed's
``np.unique`` + ``np.add.at`` fold.
"""

from .blocks import BlockLayout, block_bounds
from .topk import (
    WarmTopK,
    kth_largest_magnitude,
    threshold_indices,
    top_k_indices,
)
from .vector import (
    SparseGradient,
    compiled_kernels_available,
    merge_many_coo,
)

__all__ = [
    "SparseGradient",
    "compiled_kernels_available",
    "BlockLayout",
    "block_bounds",
    "WarmTopK",
    "top_k_indices",
    "threshold_indices",
    "kth_largest_magnitude",
    "merge_many_coo",
]
