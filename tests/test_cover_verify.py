"""Tests for minimum cover (Maier) and instance verification."""

import pytest

from repro.budget import Budget
from repro.errors import ResourceLimitExceeded
from repro.datasets import db2_sample, dblp
from repro.fd import (
    FD,
    fdep,
    g3_error,
    holds,
    implies,
    minimum_cover,
    tane,
    violating_pairs,
)
from repro.fd.cover import regroup
from repro.testing.oracles import (
    reference_left_reduce as left_reduce,
    reference_minimum_cover,
    reference_remove_redundant as remove_redundant,
)
from repro.relation import NULL, Relation


class TestLeftReduce:
    def test_removes_extraneous_attribute(self):
        fds = [FD("A", "B"), FD({"A", "C"}, {"B"})]
        reduced = left_reduce(fds)
        assert all(fd.lhs == frozenset({"A"}) for fd in reduced if fd.rhs == frozenset({"B"}))

    def test_splits_rhs(self):
        reduced = left_reduce([FD("A", {"B", "C"})])
        assert FD("A", "B") in reduced and FD("A", "C") in reduced

    def test_keeps_needed_attributes(self):
        fds = [FD({"A", "B"}, {"C"})]
        assert left_reduce(fds) == [FD({"A", "B"}, {"C"})]

    def test_never_reduces_to_empty(self):
        fds = [FD(set(), {"B"}), FD("A", "B")]
        reduced = left_reduce(fds)
        assert all(fd.lhs or fd == FD(set(), {"B"}) for fd in reduced)


class TestRemoveRedundant:
    def test_transitive_redundancy(self):
        fds = [FD("A", "B"), FD("B", "C"), FD("A", "C")]
        kept = remove_redundant(fds)
        assert FD("A", "C") not in kept
        assert len(kept) == 2

    def test_nothing_redundant(self):
        fds = [FD("A", "B"), FD("B", "A")]
        assert sorted(remove_redundant(fds), key=FD.sort_key) == sorted(
            fds, key=FD.sort_key
        )


class TestMinimumCover:
    def test_empty_input(self):
        assert minimum_cover([]) == []

    def test_cover_is_equivalent(self):
        fds = [
            FD("A", {"B", "C"}),
            FD("B", "C"),
            FD({"A", "B"}, {"D"}),
            FD("A", "D"),
        ]
        cover = minimum_cover(fds)
        for fd in fds:
            assert implies(cover, fd)
        for fd in cover:
            assert implies(fds, fd)

    def test_cover_is_nonredundant(self):
        fds = [FD("A", "B"), FD("B", "C"), FD("A", "C"), FD({"A", "B"}, {"C"})]
        cover = minimum_cover(fds)
        for fd in cover:
            rest = [other for other in cover if other != fd]
            assert not implies(rest, fd)

    def test_group_rhs(self):
        fds = [FD("A", "B"), FD("A", "C")]
        grouped = minimum_cover(fds, group_rhs=True)
        assert grouped == [FD("A", {"B", "C"})]

    def test_deterministic(self):
        fds = [FD("B", "C"), FD("A", "B"), FD("A", "C"), FD("C", "A")]
        assert minimum_cover(fds) == minimum_cover(list(reversed(fds)))

    def test_regroup(self):
        grouped = regroup([FD("A", "B"), FD("A", "C"), FD("B", "C")])
        assert FD("A", {"B", "C"}) in grouped


class TestCoverOnMinerOutput:
    """List equality with the set-based reference on real miner output."""

    @pytest.mark.parametrize("seed", range(10))
    def test_fdep_on_db2(self, seed):
        fds = fdep(db2_sample(seed=seed).relation)
        assert minimum_cover(fds) == reference_minimum_cover(fds)
        assert minimum_cover(fds, group_rhs=True) == reference_minimum_cover(
            fds, group_rhs=True)

    def test_tane_on_dblp_2200(self):
        fds = tane(dblp(n_tuples=2200, seed=7))
        assert minimum_cover(fds) == reference_minimum_cover(fds)
        assert minimum_cover(fds, group_rhs=True) == reference_minimum_cover(
            fds, group_rhs=True)


class TestCoverBudget:
    def test_checkpoints_once_per_dependency_in_each_pass(self):
        fds = [FD("A", "B"), FD("B", "C"), FD("A", "C")]
        sites = []
        budget = Budget()
        budget.on_checkpoint(lambda units, where: sites.append(where))
        minimum_cover(fds, budget=budget)
        # Three split dependencies left-reduced, three distinct ones
        # tested for redundancy.
        assert sites == ["fd.cover"] * 6

    def test_exhausted_budget_stops_the_cover(self):
        fds = fdep(db2_sample(seed=0).relation)
        with pytest.raises(ResourceLimitExceeded) as caught:
            minimum_cover(fds, budget=Budget(max_units=10))
        assert caught.value.where == "fd.cover"


class TestHolds:
    @pytest.fixture
    def rel(self):
        return Relation(
            ["A", "B", "C"],
            [("x", "1", "p"), ("x", "1", "q"), ("y", "2", "p")],
        )

    def test_holds(self, rel):
        assert holds(rel, FD("A", "B"))
        assert holds(rel, FD("B", "A"))

    def test_violated(self, rel):
        assert not holds(rel, FD("A", "C"))

    def test_composite_lhs(self, rel):
        assert holds(rel, FD({"A", "C"}, {"B"}))

    def test_empty_lhs_constant(self):
        rel = Relation(["A", "B"], [("x", "k"), ("y", "k")])
        assert holds(rel, FD(set(), {"B"}))
        assert not holds(rel, FD(set(), {"A"}))

    def test_null_semantics(self):
        rel = Relation(["A", "B"], [(NULL, "x"), (NULL, "y")])
        assert not holds(rel, FD("A", "B"))


class TestG3:
    def test_exact_dependency_zero_error(self):
        rel = Relation(["A", "B"], [("x", "1"), ("x", "1"), ("y", "2")])
        assert g3_error(rel, FD("A", "B")) == 0.0

    def test_single_violation(self):
        rel = Relation(
            ["A", "B"],
            [("x", "1"), ("x", "1"), ("x", "2"), ("y", "3")],
        )
        # Remove one tuple (the x->2 one) to repair: g3 = 1/4.
        assert g3_error(rel, FD("A", "B")) == pytest.approx(0.25)

    def test_empty_relation(self):
        assert g3_error(Relation(["A", "B"], []), FD("A", "B")) == 0.0

    def test_bounds(self):
        rel = Relation(["A", "B"], [("x", str(i)) for i in range(10)])
        error = g3_error(rel, FD("A", "B"))
        assert 0.0 <= error < 1.0
        assert error == pytest.approx(0.9)


class TestViolatingPairs:
    def test_witnesses_found(self):
        rel = Relation(["A", "B"], [("x", "1"), ("x", "2"), ("y", "3")])
        pairs = violating_pairs(rel, FD("A", "B"))
        assert (0, 1) in pairs

    def test_no_witnesses_when_holds(self):
        rel = Relation(["A", "B"], [("x", "1"), ("y", "2")])
        assert violating_pairs(rel, FD("A", "B")) == []

    def test_limit(self):
        rel = Relation(["A", "B"], [("x", str(i)) for i in range(10)])
        assert len(violating_pairs(rel, FD("A", "B"), limit=3)) == 3


class TestVerifyDegenerateRelations:
    """`holds` / `g3_error` / `violating_pairs` on the empty, single-row
    and all-duplicate instances (every dependency holds vacuously)."""

    def test_empty_relation(self):
        rel = Relation(["A", "B"], [])
        assert holds(rel, FD("A", "B"))
        assert holds(rel, FD(set(), {"B"}))
        assert g3_error(rel, FD("A", "B")) == 0.0
        assert violating_pairs(rel, FD("A", "B")) == []

    def test_single_row_relation(self):
        rel = Relation(["A", "B"], [("x", "y")])
        for fd in (FD("A", "B"), FD("B", "A"), FD(set(), {"A"})):
            assert holds(rel, fd)
            assert g3_error(rel, fd) == 0.0
        assert violating_pairs(rel, FD("A", "B")) == []

    def test_all_duplicate_rows(self):
        rel = Relation(["A", "B", "C"], [("x", "y", "z")] * 8)
        for fd in (FD("A", "B"), FD({"A", "B"}, {"C"}), FD(set(), {"C"})):
            assert holds(rel, fd)
            assert g3_error(rel, fd) == 0.0
            assert violating_pairs(rel, fd) == []
