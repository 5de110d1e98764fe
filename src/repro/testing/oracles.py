"""Brute-force reference implementations used as parity oracles in tests.

The reliable FD miner (:mod:`repro.fd.reliable`) prunes a set-enumeration
lattice with an admissible upper bound; the oracles here do the one thing a
correctness test wants instead -- score **every** candidate with no pruning
at all -- so the miner's output can be checked candidate for candidate.

Two independence levels are provided on purpose:

* :func:`exhaustive_reliable_scores` / :func:`brute_force_topk` call the
  *same* public scoring entry point the miner uses
  (:func:`repro.fd.reliable.reliable_score`), so set-level parity tests
  compare selection logic only -- float ties resolve identically on both
  sides by construction.
* :func:`exact_reliable_score` recomputes the bias-corrected fraction of
  information from first principles -- pure-Python dict partitions,
  ``math.lgamma`` log-factorials, scalar loops, no shared code and no
  numpy -- so numeric agreement (within float tolerance) validates the
  vectorized implementation itself, not just its plumbing.

Both scale exponentially in arity; keep oracle relations at <= 8 attributes.

:func:`reference_minimum_cover` is the textbook set-based Maier cover
(frozenset closures, no memo, no bitmasks) that the production
:func:`repro.fd.minimum_cover` must match list for list.

:func:`reference_closest_summary` is the scalar Phase-3 argmin (one
``merge_cost`` per summary) that the daemon's
:class:`repro.kernels.PostingStore` must match row for row.

The row-tuple oracles -- :func:`reference_partition_classes`,
:func:`reference_tuple_view` and :func:`reference_value_view` -- compute
from ``relation.rows`` with dicts what the production paths compute from
the coded columns; :func:`stripped_classes` reads a label-array
:class:`repro.fd.partitions.Partition` as the canonical sorted classes they
are compared in.
"""

from __future__ import annotations

import math
from itertools import combinations

from repro.fd.reliable import ReliableFD, reliable_score
from repro.fd.dependency import FD, split_rhs
from repro.relation.matrices import (
    TupleView,
    ValueCatalog,
    ValueView,
    _check_scope,
)


def _column_classes(relation, names) -> dict:
    """Partition row indices by their projection onto ``names`` (exact)."""
    positions = [list(relation.schema.names).index(a) for a in names]
    classes: dict = {}
    for index, row in enumerate(relation.rows):
        key = tuple(row[p] for p in positions)
        classes.setdefault(key, []).append(index)
    return classes


def _entropy(counts, n) -> float:
    """Plug-in entropy of a count list in nats (scalar loop)."""
    total = 0.0
    for count in counts:
        if count > 0:
            p = count / n
            total -= p * math.log(p)
    return total


def exact_expected_mutual_information(a_counts, b_counts) -> float:
    """EMI under the permutation null, via ``math.lgamma`` scalar sums.

    The textbook triple loop (Vinh et al.): for every class-size pair
    ``(a_i, b_j)`` sum the hypergeometric probability of each feasible
    contingency cell ``n_ij`` times its mutual-information contribution.
    Deliberately shares nothing with the vectorized implementation in
    :func:`repro.fd.reliable.expected_mutual_information`.
    """
    a = [int(c) for c in a_counts if c > 0]
    b = [int(c) for c in b_counts if c > 0]
    n = sum(a)
    if n == 0 or sum(b) != n:
        raise ValueError("count vectors must be positive and sum equally")
    lg = math.lgamma
    total = 0.0
    for ai in a:
        for bj in b:
            lo = max(1, ai + bj - n)
            hi = min(ai, bj)
            for nij in range(lo, hi + 1):
                log_p = (
                    lg(ai + 1) - lg(nij + 1) - lg(ai - nij + 1)
                    + lg(n - ai + 1) - lg(bj - nij + 1)
                    - lg(n - ai - bj + nij + 1)
                    - (lg(n + 1) - lg(bj + 1) - lg(n - bj + 1))
                )
                total += math.exp(log_p) * (nij / n) * math.log(
                    n * nij / (ai * bj)
                )
    return total


def exact_reliable_score(relation, lhs, rhs) -> float:
    """Bias-corrected fraction of information, from first principles.

    ``F0 = clamp((I(X;Y) - EMI) / H(Y), 0, 1)``; 0.0 when ``H(Y) = 0``
    (a constant consequent carries no information to explain).
    """
    n = len(relation)
    if n == 0:
        return 0.0
    x_classes = _column_classes(relation, sorted(lhs))
    y_classes = _column_classes(relation, [rhs])
    xy_classes = _column_classes(relation, sorted(lhs) + [rhs])
    x_counts = [len(c) for c in x_classes.values()]
    y_counts = [len(c) for c in y_classes.values()]
    h_x = _entropy(x_counts, n)
    h_y = _entropy(y_counts, n)
    if h_y <= 0.0:
        return 0.0
    h_xy = _entropy([len(c) for c in xy_classes.values()], n)
    mi = h_x + h_y - h_xy
    emi = exact_expected_mutual_information(x_counts, y_counts)
    return min(1.0, max(0.0, (mi - emi) / h_y))


def exhaustive_reliable_scores(
    relation, max_lhs_size: int | None = None, rhs: str | None = None,
) -> list[tuple[float, tuple, str]]:
    """Score every candidate ``lhs -> rhs`` of the lattice, no pruning.

    Returns ``(score, lhs_names, rhs_name)`` triples -- ``lhs_names`` a
    sorted tuple -- in the miner's deterministic total order
    ``(-score, lhs_names, rhs_name)``.  Constant consequents are excluded
    (the score is 0/0 by definition), exactly as the miner excludes them.
    Scores come from the same public :func:`repro.fd.reliable.reliable_score`
    entry point the miner uses, so comparisons are float-exact.
    """
    names = list(relation.schema.names)
    rhs_names = [rhs] if rhs is not None else names
    cap = max_lhs_size if max_lhs_size is not None else len(names) - 1
    entries = []
    for rhs_name in rhs_names:
        others = [a for a in names if a != rhs_name]
        if len({row[names.index(rhs_name)] for row in relation.rows}) <= 1:
            continue
        for size in range(1, cap + 1):
            for lhs in combinations(sorted(others), size):
                entries.append(
                    (reliable_score(relation, lhs, rhs_name), lhs, rhs_name)
                )
    entries.sort(key=lambda e: (-e[0], e[1], e[2]))
    return entries


def brute_force_topk(relation, k: int, **kwargs) -> list[ReliableFD]:
    """The ``k`` best candidates of the exhaustive scan, as ReliableFDs.

    The direct oracle for :func:`repro.fd.reliable.mine_topk`: same scoring
    entry point, same total order, zero pruning.
    """
    from repro.fd.reliable import fraction_of_information

    entries = exhaustive_reliable_scores(relation, **kwargs)[:k]
    return [
        ReliableFD(
            fd=FD(frozenset(lhs), frozenset({rhs_name})),
            score=score,
            information=fraction_of_information(relation, lhs, rhs_name),
        )
        for score, lhs, rhs_name in entries
    ]


def reference_closure(attributes, fds) -> frozenset:
    """The attribute closure ``X+`` by linear fixpoint passes over sets."""
    closed = set(attributes)
    pending = list(fds)
    changed = True
    while changed:
        changed = False
        remaining = []
        for fd in pending:
            if fd.lhs <= closed:
                if not fd.rhs <= closed:
                    closed |= fd.rhs
                    changed = True
            else:
                remaining.append(fd)
        pending = remaining
    return frozenset(closed)


def reference_left_reduce(fds) -> list[FD]:
    """Remove extraneous LHS attributes from every dependency.

    ``B`` is extraneous in ``X -> A`` when ``A`` is already in the closure
    of ``X - {B}`` under the full split set.  Dependencies are scanned in
    :meth:`FD.sort_key` order and LHS attributes in sorted order.
    """
    current = [fd for single in fds for fd in split_rhs(single)]
    reduced: list[FD] = []
    for fd in sorted(current, key=FD.sort_key):
        lhs = set(fd.lhs)
        for attribute in sorted(fd.lhs):
            if len(lhs) <= 1:
                break
            trimmed = lhs - {attribute}
            if fd.rhs <= reference_closure(trimmed, current):
                lhs = trimmed
        reduced.append(FD(frozenset(lhs), fd.rhs))
    return reduced


def reference_remove_redundant(fds) -> list[FD]:
    """Drop dependencies implied by the remaining ones (first kept wins)."""
    kept = sorted(set(fds), key=FD.sort_key)
    index = 0
    while index < len(kept):
        fd = kept[index]
        rest = kept[:index] + kept[index + 1:]
        if fd.rhs <= reference_closure(fd.lhs, rest):
            kept = rest
        else:
            index += 1
    return kept


def reference_minimum_cover(fds, group_rhs: bool = False) -> list[FD]:
    """Maier's minimum cover over frozensets: left-reduce, then drop
    redundant dependencies, then (``group_rhs``) union RHSs per LHS."""
    from repro.fd.cover import regroup

    fds = list(fds)
    if not fds:
        return []
    reduced = reference_remove_redundant(reference_left_reduce(fds))
    return regroup(reduced) if group_rhs else reduced


def reference_closest_summary(summaries, singleton) -> int:
    """Index of the summary cheapest to merge ``singleton`` into.

    One scalar :func:`repro.clustering.dcf.merge_cost` per summary, the
    first strictly smaller cost winning (ties go to the lowest index): the
    argmin :class:`repro.kernels.PostingStore` must reproduce.
    """
    from repro.clustering.dcf import merge_cost

    best, best_cost = 0, merge_cost(summaries[0], singleton)
    for index in range(1, len(summaries)):
        cost = merge_cost(summaries[index], singleton)
        if cost < best_cost:
            best, best_cost = index, cost
    return best


def _canonical_classes(groups) -> tuple:
    """Sorted tuple of sorted row tuples, singleton groups stripped."""
    return tuple(sorted(tuple(sorted(g)) for g in groups if len(g) > 1))


def reference_partition_classes(relation, attributes) -> tuple:
    """The stripped partition classes of ``relation`` under ``attributes``.

    Row tuples grouped by a dict of projections: the oracle that
    :func:`repro.fd.partitions.partition_of` (read through
    :func:`stripped_classes`) must match.
    """
    return _canonical_classes(
        _column_classes(relation, sorted(attributes)).values())


def stripped_classes(partition) -> tuple:
    """A :class:`repro.fd.partitions.Partition` as canonical stripped classes.

    Group numbering is dropped: two partitions with the same grouping give
    the same tuple, whatever labels they use.
    """
    groups: dict = {}
    for row, label in enumerate(partition.labels.tolist()):
        groups.setdefault(label, []).append(row)
    return _canonical_classes(groups.values())


def reference_tuple_view(relation, value_scope: str = "global") -> TupleView:
    """Matrix ``M`` by per-row catalog hashing over the row tuples.

    The oracle for :func:`repro.relation.matrices.build_tuple_view`, which
    builds the same view from the coded columns.
    """
    _check_scope(value_scope)
    if not relation.rows:
        raise ValueError("cannot build a tuple view of an empty relation")
    catalog = ValueCatalog(scope=value_scope)
    names = relation.schema.names
    arity = len(names)
    cell_mass = 1.0 / arity
    rows = []
    for row in relation.rows:
        sparse: dict = {}
        for name, literal in zip(names, row):
            value_id = catalog.id_for(name, literal)
            sparse[value_id] = sparse.get(value_id, 0.0) + cell_mass
        rows.append(sparse)
    priors = [1.0 / len(rows)] * len(rows)
    return TupleView(relation=relation, rows=rows, priors=priors, catalog=catalog)


def reference_value_view(
    relation,
    value_scope: str = "global",
    tuple_clusters: list | None = None,
) -> ValueView:
    """Matrices ``N``/``O`` by per-row catalog hashing over the row tuples.

    The oracle for :func:`repro.relation.matrices.build_value_view`, which
    builds the same view from the coded columns.
    """
    _check_scope(value_scope)
    if not relation.rows:
        raise ValueError("cannot build a value view of an empty relation")
    if tuple_clusters is not None and len(tuple_clusters) != len(relation.rows):
        raise ValueError("tuple_clusters must assign a cluster to every tuple")

    catalog = ValueCatalog(scope=value_scope)
    names = relation.schema.names
    membership: list = []
    support: list = []
    tuple_counts: list = []

    for t, row in enumerate(relation.rows):
        column = tuple_clusters[t] if tuple_clusters is not None else t
        seen_in_tuple: set = set()
        for name, literal in zip(names, row):
            value_id = catalog.id_for(name, literal)
            if value_id == len(membership):
                membership.append({})
                support.append({})
                tuple_counts.append(0)
            attr_counts = support[value_id]
            attr_counts[name] = attr_counts.get(name, 0) + 1
            if value_id not in seen_in_tuple:
                seen_in_tuple.add(value_id)
                tuple_counts[value_id] += 1
                cols = membership[value_id]
                cols[column] = cols.get(column, 0) + 1
        del seen_in_tuple

    rows = []
    for cols in membership:
        d_v = sum(cols.values())
        rows.append({column: count / d_v for column, count in cols.items()})
    priors = [1.0 / len(rows)] * len(rows)
    n_columns = (
        len(set(tuple_clusters)) if tuple_clusters is not None else len(relation.rows)
    )
    return ValueView(
        relation=relation,
        rows=rows,
        priors=priors,
        support=support,
        catalog=catalog,
        n_columns=n_columns,
        tuple_counts=tuple_counts,
        double_clustered=tuple_clusters is not None,
    )
