"""Property-based tests (hypothesis) for dependency mining and covers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import rad, rtr
from repro.fd import (
    FD,
    closure,
    fdep,
    g3_error,
    holds,
    implies,
    minimum_cover,
    tane,
)
from repro.fd.partitions import partition_of, product
from repro.relation import Relation
from repro.testing.oracles import reference_minimum_cover, stripped_classes

ATTRS = ("W", "X", "Y", "Z")


@st.composite
def small_relation(draw, max_rows=14, max_card=3):
    """A random 4-attribute categorical relation."""
    n = draw(st.integers(min_value=1, max_value=max_rows))
    rows = [
        tuple(
            f"{a}{draw(st.integers(min_value=0, max_value=max_card - 1))}"
            for a in ATTRS
        )
        for _ in range(n)
    ]
    return Relation(ATTRS, rows)


@st.composite
def fd_set(draw, max_fds=6):
    n = draw(st.integers(min_value=1, max_value=max_fds))
    fds = []
    for _ in range(n):
        lhs = draw(
            st.sets(st.sampled_from(ATTRS), min_size=1, max_size=2)
        )
        rhs = draw(
            st.sets(st.sampled_from(ATTRS), min_size=1, max_size=2)
        )
        fds.append(FD(lhs, rhs))
    return fds


class TestClosureProperties:
    @given(st.sets(st.sampled_from(ATTRS), min_size=1), fd_set())
    def test_extensive(self, attrs, fds):
        assert frozenset(attrs) <= closure(attrs, fds)

    @given(st.sets(st.sampled_from(ATTRS), min_size=1), fd_set())
    def test_idempotent(self, attrs, fds):
        once = closure(attrs, fds)
        assert closure(once, fds) == once

    @given(st.sets(st.sampled_from(ATTRS), min_size=1),
           st.sets(st.sampled_from(ATTRS), min_size=1), fd_set())
    def test_monotone(self, a, b, fds):
        if frozenset(a) <= frozenset(b):
            assert closure(a, fds) <= closure(b, fds)


class TestMinerProperties:
    @given(small_relation())
    @settings(max_examples=40, deadline=None)
    def test_fdep_results_hold(self, relation):
        for fd in fdep(relation):
            assert holds(relation, fd)

    @given(small_relation())
    @settings(max_examples=40, deadline=None)
    def test_fdep_results_minimal(self, relation):
        found = fdep(relation)
        for fd in found:
            for attribute in fd.lhs:
                smaller = fd.lhs - {attribute}
                if smaller:
                    assert not holds(relation, FD(smaller, fd.rhs)), str(fd)

    @given(small_relation())
    @settings(max_examples=30, deadline=None)
    def test_fdep_and_tane_agree(self, relation):
        assert set(fdep(relation)) == set(tane(relation))

    @given(small_relation())
    @settings(max_examples=30, deadline=None)
    def test_g3_zero_iff_holds(self, relation):
        for fd in (FD("W", "X"), FD({"X", "Y"}, {"Z"})):
            if holds(relation, fd):
                assert g3_error(relation, fd) == 0.0
            else:
                assert g3_error(relation, fd) > 0.0


@pytest.fixture(scope="module")
def pool_executor():
    """A real two-worker pool, shared across examples, with the dispatch
    gates shrunk so the tiny hypothesis relations actually fan out."""
    import importlib

    from repro.parallel import ShardedExecutor

    fdep_mod = importlib.import_module("repro.fd.fdep")
    tane_mod = importlib.import_module("repro.fd.tane")
    saved = (
        fdep_mod._PARALLEL_MIN_TUPLES, fdep_mod._PAIRS_PER_BLOCK,
        tane_mod._PARALLEL_MIN_CANDIDATES, tane_mod._CANDIDATE_CHUNK,
    )
    fdep_mod._PARALLEL_MIN_TUPLES = 2
    fdep_mod._PAIRS_PER_BLOCK = 8
    tane_mod._PARALLEL_MIN_CANDIDATES = 2
    tane_mod._CANDIDATE_CHUNK = 2
    executor = ShardedExecutor(workers=2, shard_size=4)
    try:
        yield executor
    finally:
        executor.close()
        (
            fdep_mod._PARALLEL_MIN_TUPLES, fdep_mod._PAIRS_PER_BLOCK,
            tane_mod._PARALLEL_MIN_CANDIDATES, tane_mod._CANDIDATE_CHUNK,
        ) = saved


class TestParallelMinerProperties:
    """Distributed mining returns the *exact* sequential dependency sets."""

    @given(small_relation())
    @settings(max_examples=15, deadline=None)
    def test_parallel_fdep_exact(self, pool_executor, relation):
        assert set(fdep(relation, executor=pool_executor)) == set(fdep(relation))
        assert pool_executor.events == []

    @given(small_relation())
    @settings(max_examples=15, deadline=None)
    def test_parallel_tane_exact(self, pool_executor, relation):
        assert set(tane(relation, executor=pool_executor)) == set(tane(relation))
        assert pool_executor.events == []


class TestCoverProperties:
    @given(fd_set())
    @settings(max_examples=60)
    def test_cover_equivalent_to_input(self, fds):
        cover = minimum_cover(fds)
        for fd in fds:
            assert implies(cover, fd), str(fd)
        for fd in cover:
            assert implies(fds, fd), str(fd)

    @given(fd_set())
    @settings(max_examples=60)
    def test_cover_nonredundant(self, fds):
        cover = minimum_cover(fds)
        for index, fd in enumerate(cover):
            rest = cover[:index] + cover[index + 1 :]
            assert not implies(rest, fd), str(fd)

    @given(fd_set())
    @settings(max_examples=60)
    def test_cover_idempotent(self, fds):
        once = minimum_cover(fds)
        assert minimum_cover(once) == once


#: Unpadded names, so sorted-name order ("a10" < "a2") differs from index
#: order; 70 of them, so the widest inputs need more than 62 bits.
WIDE = tuple(f"a{i}" for i in range(70))


@st.composite
def cover_input(draw, max_fds=8):
    """Dependency lists with empty LHSs, repeats and, at width 70, a LHS
    spanning more than 62 attributes."""
    pool = WIDE[:draw(st.sampled_from((4, 9, 70)))]
    names = st.sampled_from(pool)
    fds = [
        FD(draw(st.sets(names, max_size=3)),
           draw(st.sets(names, min_size=1, max_size=2)))
        for _ in range(draw(st.integers(min_value=1, max_value=max_fds)))
    ]
    fds += draw(st.lists(st.sampled_from(fds), max_size=3))
    if len(pool) == len(WIDE):
        fds.append(FD(pool[:-1], pool[-1]))
    return draw(st.permutations(fds))


class TestCoverMatchesReference:
    """The bitmask cover is list-identical to the set-based textbook one."""

    @given(cover_input())
    @settings(max_examples=150)
    def test_singleton_rhs(self, fds):
        assert minimum_cover(fds) == reference_minimum_cover(fds)

    @given(cover_input())
    @settings(max_examples=150)
    def test_grouped_rhs(self, fds):
        assert minimum_cover(fds, group_rhs=True) == reference_minimum_cover(
            fds, group_rhs=True)


class TestPartitionProperties:
    @given(small_relation(),
           st.sets(st.sampled_from(ATTRS), min_size=1, max_size=2),
           st.sets(st.sampled_from(ATTRS), min_size=1, max_size=2))
    @settings(max_examples=40, deadline=None)
    def test_product_matches_direct(self, relation, left, right):
        direct = partition_of(relation, sorted(left | right))
        combined = product(
            partition_of(relation, sorted(left)),
            partition_of(relation, sorted(right)),
        )
        # product(pi_L, pi_R) numbers its groups in its own fused-key
        # order, so compare groupings, not labels.
        assert stripped_classes(combined) == stripped_classes(direct)

    @given(small_relation(),
           st.sets(st.sampled_from(ATTRS), min_size=1, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_error_decreases_with_more_attributes(self, relation, attrs):
        small = partition_of(relation, sorted(attrs))
        full = partition_of(relation, ATTRS)
        assert full.error <= small.error


class TestMeasureProperties:
    @given(small_relation(),
           st.sets(st.sampled_from(ATTRS), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_bounds(self, relation, attrs):
        assert 0.0 <= rad(relation, sorted(attrs)) <= 1.0
        assert 0.0 <= rtr(relation, sorted(attrs)) < 1.0

    @given(small_relation(),
           st.sets(st.sampled_from(ATTRS), min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_rtr_monotone_in_width(self, relation, attrs):
        # Adding attributes can only split projected groups further.
        wider = sorted(set(attrs) | {"W"})
        assert rtr(relation, wider) <= rtr(relation, sorted(attrs)) + 1e-12

    @given(small_relation())
    @settings(max_examples=40, deadline=None)
    def test_rtr_equals_realized_reduction(self, relation):
        from repro.core import decompose_by_fd

        fd = FD({"W", "X"}, {"Y"})
        decomposition = decompose_by_fd(relation, fd)
        assert decomposition.tuple_reduction == pytest.approx(
            rtr(relation, sorted(fd.attributes))
        )
