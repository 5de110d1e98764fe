"""Functional dependencies: the value type plus closure and implication.

A functional dependency ``X -> Y`` holds on an instance when tuples agreeing
on ``X`` also agree on ``Y`` (paper Section 4).  NULL is treated as an
ordinary value (NULL = NULL), which is the semantics the paper's DBLP
experiments rely on.

Closures run over attribute bitmasks: :class:`AttributeBits` maps names to
bit positions and :func:`closure_mask` is the one closure kernel, shared by
:func:`closure` and the minimum cover (:mod:`repro.fd.cover`).
"""

from __future__ import annotations

from dataclasses import dataclass, field


def _as_frozenset(attributes) -> frozenset:
    if isinstance(attributes, str):
        return frozenset([attributes])
    return frozenset(attributes)


@dataclass(frozen=True)
class FD:
    """An immutable functional dependency ``lhs -> rhs``."""

    lhs: frozenset = field()
    rhs: frozenset = field()

    def __init__(self, lhs, rhs):
        object.__setattr__(self, "lhs", _as_frozenset(lhs))
        object.__setattr__(self, "rhs", _as_frozenset(rhs))
        if not self.rhs:
            raise ValueError("a functional dependency needs a non-empty RHS")

    @property
    def attributes(self) -> frozenset:
        """All attributes mentioned by the dependency (``X`` union ``Y``)."""
        return self.lhs | self.rhs

    def __str__(self) -> str:
        left = ",".join(sorted(self.lhs)) or "∅"
        right = ",".join(sorted(self.rhs))
        return f"[{left}] -> [{right}]"

    def __repr__(self) -> str:
        return f"FD({sorted(self.lhs)!r}, {sorted(self.rhs)!r})"

    def sort_key(self) -> tuple:
        """A deterministic ordering key (for reproducible outputs)."""
        return (tuple(sorted(self.lhs)), tuple(sorted(self.rhs)))


def is_trivial(fd: FD) -> bool:
    """Whether the dependency is implied by reflexivity (``Y`` within ``X``)."""
    return fd.rhs <= fd.lhs


def split_rhs(fd: FD) -> list[FD]:
    """Decompose ``X -> A1...Ak`` into singleton-RHS dependencies."""
    return [FD(fd.lhs, {attribute}) for attribute in sorted(fd.rhs)]


class AttributeBits:
    """Attribute names as bit positions, assigned in sorted-name order.

    Because bit order is name order, the ascending bit positions of a mask
    compare exactly like the sorted names of the set they encode, so
    :meth:`key` orders encoded dependencies as :meth:`FD.sort_key` orders
    decoded ones.  Python integers are unbounded: any schema width works.
    """

    def __init__(self, attributes):
        self.names = sorted(set(attributes))
        self.bit = {name: 1 << i for i, name in enumerate(self.names)}
        self._keys: dict[int, tuple] = {}

    @classmethod
    def of(cls, fds, extra=()) -> "AttributeBits":
        """A codec covering every attribute of ``fds`` and of ``extra``."""
        attributes = set(extra)
        for fd in fds:
            attributes |= fd.lhs
            attributes |= fd.rhs
        return cls(attributes)

    def encode(self, attributes) -> int:
        mask = 0
        for name in attributes:
            mask |= self.bit[name]
        return mask

    def decode(self, mask: int) -> frozenset:
        return frozenset(self.names[i] for i in self.positions(mask))

    def key(self, mask: int) -> tuple:
        """Ascending bit positions of ``mask`` (memoized sort key)."""
        key = self._keys.get(mask)
        if key is None:
            key = self._keys[mask] = self.positions(mask)
        return key

    @staticmethod
    def positions(mask: int) -> tuple:
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return tuple(out)


def group_by_lhs(pairs) -> dict[int, int]:
    """``lhs mask -> union of rhs masks`` over encoded dependencies."""
    groups: dict[int, int] = {}
    for lhs, rhs in pairs:
        groups[lhs] = groups.get(lhs, 0) | rhs
    return groups


def closure_mask(mask: int, groups: dict[int, int]) -> int:
    """The closure of ``mask`` under grouped dependencies, as a bitmask.

    Fixpoint over the groups: every sweep ORs in the RHS of each group
    whose LHS lies inside the closure, until a sweep adds nothing.  A group
    already fired costs one ``&`` per later sweep, cheaper than pruning it.
    """
    while True:
        before = mask
        for lhs, rhs in groups.items():
            if lhs & mask == lhs:
                mask |= rhs
        if mask == before:
            return mask


def closure(attributes, fds) -> frozenset:
    """The attribute closure ``X+`` under a set of dependencies.

    Encodes ``X`` and ``fds`` as attribute bitmasks (:class:`AttributeBits`)
    and runs :func:`closure_mask` over the dependencies grouped by LHS.
    """
    attributes = _as_frozenset(attributes)
    fds = list(fds)
    bits = AttributeBits.of(fds, attributes)
    groups = group_by_lhs(
        (bits.encode(fd.lhs), bits.encode(fd.rhs)) for fd in fds)
    return bits.decode(closure_mask(bits.encode(attributes), groups))


def implies(fds, fd: FD) -> bool:
    """Whether ``fds`` logically implies ``fd`` (Armstrong closure test)."""
    return fd.rhs <= closure(fd.lhs, fds)
