"""Minimum covers of dependency sets (Maier 1980, the paper's [16]).

The paper runs FDEP, then reduces the discovered set to a minimum cover
before ranking (Section 8.1.4).  The classic three steps:

1. split right-hand sides into single attributes;
2. remove extraneous LHS attributes (left-reduction);
3. remove dependencies implied by the rest (redundancy elimination);

followed by regrouping dependencies that share a left-hand side, which is
how the paper displays results (e.g. ``[EmpNo] -> [BirthYear, FirstName,
...]``).

Both passes run over attribute bitmasks (:class:`AttributeBits`): the
input is encoded once, every closure is :func:`closure_mask` over the
dependencies grouped by LHS, and the cover is decoded once at the end.
The scan orders are those of the set-based textbook passes kept in
:func:`repro.testing.oracles.reference_minimum_cover` -- dependencies by
:meth:`FD.sort_key`, LHS attributes by name, first kept wins -- so the
output is list-identical to them.
"""

from __future__ import annotations

from repro.budget import checkpoint
# ``closure`` is re-exported: tooling that instruments the cover stage
# looks it up on this module.
from repro.fd.dependency import (  # noqa: F401
    FD,
    AttributeBits,
    closure,
    closure_mask,
    group_by_lhs,
)


def _split(fds, bits: AttributeBits) -> list[tuple[int, int]]:
    """Singleton-RHS ``(lhs mask, rhs bit)`` pairs, duplicates kept."""
    pairs = []
    for fd in fds:
        lhs = bits.encode(fd.lhs)
        pairs.extend((lhs, bits.bit[attribute]) for attribute in fd.rhs)
    return pairs


def _order(pairs, bits: AttributeBits) -> list[tuple[int, int]]:
    """``pairs`` in :meth:`FD.sort_key` order of the dependencies they encode."""
    return sorted(pairs, key=lambda pair: (bits.key(pair[0]), bits.key(pair[1])))


def _left_reduce(pairs, bits, budget) -> list[tuple[int, int]]:
    """Drop extraneous LHS attributes, lowest-named first.

    ``B`` is extraneous in ``X -> A`` when ``A`` is in the closure of
    ``X - {B}`` under the full split set.  That basis never changes during
    the pass, so closures are memoized by the trimmed LHS.
    """
    groups = group_by_lhs(pairs)
    closures: dict[int, int] = {}
    reduced = []
    for lhs, rhs in _order(pairs, bits):
        checkpoint(budget, where="fd.cover")
        current = lhs
        for position in bits.key(lhs):
            if current & (current - 1) == 0:  # at most one attribute left
                break
            trimmed = current & ~(1 << position)
            closed = closures.get(trimmed)
            if closed is None:
                closed = closures[trimmed] = closure_mask(trimmed, groups)
            if closed & rhs:
                current = trimmed
        reduced.append((current, rhs))
    return reduced


def _remove_redundant(pairs, bits, budget) -> list[tuple[int, int]]:
    """Drop dependencies implied by the ones still kept, in sort order.

    A dependency is tested by clearing its RHS bit from its LHS group; if
    the closure of its LHS still reaches that bit the dependency is
    redundant and the bit stays cleared.
    """
    kept = _order(set(pairs), bits)
    groups = group_by_lhs(kept)
    survivors = []
    for lhs, rhs in kept:
        checkpoint(budget, where="fd.cover")
        groups[lhs] &= ~rhs
        if not closure_mask(lhs, groups) & rhs:
            groups[lhs] |= rhs
            survivors.append((lhs, rhs))
    return survivors


def regroup(fds: list[FD]) -> list[FD]:
    """Union the RHSs of dependencies sharing a LHS (display form)."""
    by_lhs: dict[frozenset, set] = {}
    for fd in fds:
        by_lhs.setdefault(fd.lhs, set()).update(fd.rhs)
    return sorted(
        (FD(lhs, frozenset(rhs)) for lhs, rhs in by_lhs.items()), key=FD.sort_key
    )


def minimum_cover(fds, group_rhs: bool = False, budget=None) -> list[FD]:
    """A minimum cover of ``fds`` (singleton RHSs unless ``group_rhs``).

    Deterministic: ties in reduction order are broken by sorted attribute
    names, so equal inputs yield equal covers.  ``budget`` (a
    :class:`repro.budget.Budget`) is checkpointed once per dependency in
    each pass, so a deadline or memory cap can stop a long cover.
    """
    fds = list(fds)
    if not fds:
        return []
    bits = AttributeBits.of(fds)
    pairs = _split(fds, bits)
    survivors = _remove_redundant(_left_reduce(pairs, bits, budget), bits,
                                  budget)
    cover = [FD(bits.decode(lhs), bits.decode(rhs)) for lhs, rhs in survivors]
    return regroup(cover) if group_rhs else cover
