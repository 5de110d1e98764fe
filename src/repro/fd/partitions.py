"""Partitions of a relation's rows by attribute-set equality (TANE's tool).

The partition of a relation under an attribute set ``X`` groups tuple indices
with equal ``X``-projections.  A :class:`Partition` stores it as an ``int32``
row -> group label array plus the size of every group.  Two facts make
partitions the workhorse of dependency mining:

* ``X -> A`` holds iff ``error(pi_X) == error(pi_{X+A})``, where
  ``error(pi) = n_rows - |pi|`` -- the stripped-partition ``||pi|| - |pi|``
  of TANE, since singleton groups contribute nothing to either form;
* ``pi_{X union Y}`` is the product of ``pi_X`` and ``pi_Y``: one
  :func:`fuse` of their labels.

:func:`fuse` is the one kernel: TANE, FDEP's signatures and the reliable
miner's contingency counts are all folds of it over coded columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def fuse(labels: np.ndarray, cardinality: int, column: np.ndarray):
    """Refine a row -> group labelling by one coded column.

    Returns ``(labels, counts)``: the ``int32`` group of every row and the
    ``int64`` size of every group.  Groups are numbered in sorted order of
    the fused key ``labels * cardinality + column`` (``np.unique``), so
    the same inputs always yield the same numbering and count order -- the
    reliable miner's float sums over ``counts`` depend on that order.  The
    key is widened to ``int64`` before multiplying: an ``int32`` array times
    a Python int stays ``int32`` and would wrap.  ``column`` must lie in
    ``[0, cardinality)``.
    """
    key = labels.astype(np.int64) * cardinality + column
    _, inverse = np.unique(key, return_inverse=True)
    return inverse.astype(np.int32), np.bincount(inverse)


@dataclass(frozen=True, eq=False)
class Partition:
    """Row -> group ``labels`` (``int32``, dense) and group ``counts``."""

    labels: np.ndarray
    counts: np.ndarray

    @property
    def n_rows(self) -> int:
        return len(self.labels)

    @property
    def n_classes(self) -> int:
        """Group count, singletons included."""
        return len(self.counts)

    @property
    def error(self) -> int:
        """``n_rows - n_classes``: how far the partition is from all-singletons."""
        return self.n_rows - self.n_classes

    def is_superkey(self) -> bool:
        """All groups are singletons -- the attribute set is a superkey."""
        return self.n_classes == self.n_rows


def partition_of(relation, attributes) -> Partition:
    """The partition of a relation under an attribute set.

    An empty attribute set yields the single all-rows group (every tuple
    agrees on nothing vacuously).  Otherwise :func:`fuse` folds the coded
    columns in sorted attribute order into that group; each fold
    re-compresses the key, so a dictionary code no row uses never becomes
    a group.
    """
    attributes = sorted(attributes) if not isinstance(attributes, str) else [attributes]
    positions = relation.schema.positions(attributes)
    labels = np.zeros(len(relation), dtype=np.int32)
    counts = np.bincount(labels)
    store = relation.coded
    for p in positions:
        labels, counts = fuse(labels, len(store.dictionaries[p]), store.columns[p])
    return Partition(labels, counts)


def product(left: Partition, right: Partition) -> Partition:
    """The product partition ``pi_X * pi_Y = pi_{X union Y}``: one fuse.

    It groups rows as ``partition_of(X | Y)`` does, but may number the
    groups differently.
    """
    if left.n_rows != right.n_rows:
        raise ValueError("partitions must cover the same relation")
    return Partition(*fuse(left.labels, right.n_classes, right.labels))
