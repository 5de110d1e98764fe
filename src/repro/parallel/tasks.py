"""Picklable task functions dispatched by :class:`ShardedExecutor`.

Every function here takes exactly one plain-data payload and returns plain
data -- the contract that keeps them portable across both ``fork`` and
``spawn`` start methods.  None of them touch a :class:`repro.budget.Budget`
(the coordinating process charges declared units as results arrive) and all
of them are **pure functions of their payload**, which is what lets the
executor re-run any shard in-process after a pool failure without changing
the result.

Determinism: each task either reuses the exact code path of its sequential
twin (``assign_rows``, ``DenseMergeEngine.costs``, ``partition_of``) or
computes a content-based result (sets of agree sets) that is independent of
how the work was split.  Combined with the fixed shard layout of
:mod:`repro.parallel.shards`, any worker count yields bit-identical output.
"""

from __future__ import annotations

from repro.clustering.dcf import DCF
from repro.clustering.dcf_tree import DCFTree
from repro.clustering.limbo import assign_rows
from repro.fd.fdep import _agree_block
from repro.fd.partitions import partition_of
from repro.kernels import DenseMergeEngine


def fit_shard(payload):
    """Positive-threshold LIMBO Phase 1 over one tuple shard.

    Payload: ``(start, rows, priors, supports, threshold, branching,
    backend, max_leaf_entries, threshold_floor)`` where ``start`` is the
    shard's global index offset (member lists carry global indices).
    Returns the leaf DCFs of the shard's DCF tree.  The space bound is part
    of the payload -- a pure function of the input and knobs, never of the
    worker count -- so bounded runs stay worker-count invariant.  (At a
    zero threshold :class:`repro.clustering.Limbo` groups identical rows
    in the coordinator and never dispatches this task.)
    """
    (start, rows, priors, supports, threshold, branching, backend,
     max_leaf_entries, threshold_floor) = payload
    tree = DCFTree(threshold, branching=branching, backend=backend,
                   max_leaf_entries=max_leaf_entries,
                   threshold_floor=threshold_floor)
    for local, (row, prior) in enumerate(zip(rows, priors)):
        support = supports[local] if supports is not None else None
        tree.insert(DCF.singleton(start + local, prior, row, support=support))
    return tree.leaves()


def assign_block(payload):
    """LIMBO Phase 3 over one block of objects.

    Payload: ``(representatives, rows, priors, backend)``.  Returns the
    per-object representative indices.  Delegates to the same
    :func:`repro.clustering.limbo.assign_rows` the sequential path runs, so
    block boundaries cannot affect any assignment.
    """
    representatives, rows, priors, backend = payload
    return assign_rows(representatives, rows, priors, backend)


def agree_pairs_block(payload):
    """FDEP agree sets for one block of tuple-pair rows.

    Payload: ``(signatures, names, start, stop)``; the block owns the
    pairs ``(i, j)`` with ``start <= i < stop`` and ``i < j``.
    ``signatures`` is the ``(arity, n)`` label matrix of
    :func:`repro.fd.fdep._signature_matrix`.  Returns the set of distinct
    agree sets seen -- the union over blocks equals the sequential
    full-scan result exactly, because sets are content-based.
    """
    return _agree_block(*payload)


def partition_chunk(payload):
    """Partitions for one chunk of TANE lattice candidates.

    Payload: ``(relation, candidates)`` with each candidate a sorted tuple
    of attribute names.  Returns one :class:`repro.fd.partitions.Partition`
    per candidate, computed directly from the relation.  It groups rows
    exactly as the sequential path's incremental ``product`` of parent
    partitions does (only the group numbering may differ), and TANE reads
    nothing but group counts, so the mined dependencies are identical.
    """
    relation, candidates = payload
    return [partition_of(relation, list(attrs)) for attrs in candidates]


def reliable_subtree(payload):
    """Reliable-FD branch-and-bound over one chunk of root subtrees.

    Payload: ``(relation, jobs, mode, k, min_score, max_lhs_size)`` with
    each job a ``(rhs_name, root_name, tail_names)`` triple naming one
    set-enumeration subtree.  Returns ``(entries, counters)`` -- the
    chunk's surviving scored candidates plus its work counters.  The
    worker prunes only against its *local* top-k threshold, which is
    admissible for the global search (a subset's k-th-best score never
    exceeds the superset's), so merged results are bit-identical to the
    sequential miner's for any worker count.
    """
    relation, jobs, mode, k, min_score, max_lhs_size = payload
    from repro.fd.reliable import run_subtree_chunk

    names = list(relation.coded.names)
    positions = [
        (names.index(rhs), names.index(root),
         tuple(names.index(t) for t in tail))
        for rhs, root, tail in jobs
    ]
    return run_subtree_chunk(relation, positions, mode, k, min_score,
                             max_lhs_size)


def aib_pairwise_block(payload):
    """Initial AIB candidate costs for one block of matrix rows.

    Payload: ``(dcfs, index, start, stop)``.  Returns
    ``[(i, costs_i), ...]`` where ``costs_i`` are the quantized merge costs
    of row ``i`` against rows ``i+1 .. n-1``.  Runs the very same
    :meth:`DenseMergeEngine.costs` (including its narrow-/wide-support
    branch) the sequential dense loop runs, over an engine rebuilt from the
    same DCFs and shared column index -- bitwise-identical by construction.
    """
    dcfs, index, start, stop = payload
    n = len(dcfs)
    engine = DenseMergeEngine(dcfs, index=index)
    return [(i, engine.costs(i, range(i + 1, n))) for i in range(start, stop)]
