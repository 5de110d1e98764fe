"""Vectorized numeric kernels for the clustering engine.

The sparse pure-Python implementations in :mod:`repro.clustering.dcf` are
exact and cheap for small inputs, but the AIB/LIMBO hot paths evaluate the
pairwise merge cost ``delta_I`` (paper Eq. 3) O(n^2) times.  This package
packs DCF conditionals into dense NumPy row matrices over a shared support
index and batches those evaluations:

* :class:`DenseDCFSet` -- a read-only packed view of a fixed DCF collection
  (LIMBO Phase-3 representatives, tree entries, ...).
* :class:`DenseMergeEngine` -- an incrementally growing packed store backing
  the dense AIB merge loop (rows are appended as clusters merge).
* :func:`merge_cost_many` / :func:`pairwise_merge_costs` /
  :func:`closest_entry` -- the batched ``delta_I`` kernels.
* :class:`PostingStore` -- summaries kept as weights plus per-value
  posting lists, scoring one object against all of them by touching only
  the object's values (the daemon's row absorption).
* :func:`use_dense` / :func:`validate_backend` -- the ``backend=`` knob
  shared by :func:`repro.clustering.aib`, :class:`repro.clustering.DCFTree`
  and :class:`repro.clustering.Limbo`.

The sparse path remains the correctness oracle: ``backend="auto"`` (the
default everywhere) selects it for tiny inputs, and every kernel agrees with
:func:`repro.clustering.dcf.merge_cost` to within floating-point roundoff.
"""

from repro.kernels.dense import (
    BACKENDS,
    DENSE_MAX_CELLS,
    DENSE_MAX_OBJECTS,
    DENSE_MIN_ASSIGN_CELLS,
    DENSE_MIN_ENTRIES,
    DENSE_MIN_OBJECTS,
    DENSE_MIN_REPRESENTATIVES,
    DENSE_MIN_SCAN_CELLS,
    DENSE_WIDE_COLUMNS,
    CandidateMatrix,
    DenseDCFSet,
    DenseMergeEngine,
    assign_many,
    closest_entry,
    dense_bytes,
    merge_cost_many,
    pack_seconds,
    pairwise_merge_costs,
    reset_pack_seconds,
    shared_index,
    use_dense,
    use_dense_assign,
    validate_backend,
)
from repro.kernels.postings import PostingStore

__all__ = [
    "BACKENDS",
    "CandidateMatrix",
    "DENSE_MAX_CELLS",
    "DENSE_MAX_OBJECTS",
    "DENSE_MIN_ASSIGN_CELLS",
    "DENSE_MIN_ENTRIES",
    "DENSE_MIN_OBJECTS",
    "DENSE_MIN_REPRESENTATIVES",
    "DENSE_MIN_SCAN_CELLS",
    "DENSE_WIDE_COLUMNS",
    "DenseDCFSet",
    "DenseMergeEngine",
    "PostingStore",
    "assign_many",
    "closest_entry",
    "dense_bytes",
    "merge_cost_many",
    "pack_seconds",
    "pairwise_merge_costs",
    "reset_pack_seconds",
    "shared_index",
    "use_dense",
    "use_dense_assign",
    "validate_backend",
]
