"""phi = 0 LIMBO: Phase 1 is the exact group-by, Phase 3 its membership.

At ``phi = 0`` only zero-loss merges are allowed, so Phase 1 groups the
objects by identical conditional and Phase 3 reads each object's summary
off that grouping (:meth:`Limbo.membership`) instead of scoring it against
every summary.  These tests pin the claim that makes the shortcut exact:
an object's own group costs exactly zero, and every other summary costs at
least the ``quantize_loss`` floor (``2**-40``), so membership *is* the
argmin that :func:`repro.clustering.limbo.assign_rows` computes -- under
both numeric backends, on DB2 at data seeds 0-9, on DBLP-2200 and on
relations full of near-duplicate rows.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Budget, Relation, StructureDiscovery
from repro.clustering import Limbo
from repro.clustering.limbo import assign_rows
from repro.datasets import db2_sample, dblp
from repro.relation import build_tuple_view, build_value_view
from repro.testing import inject

BACKENDS = ("sparse", "dense")


def assert_membership_is_argmin(view, stride=1):
    """Fit phi = 0 over ``view`` and re-score every ``stride``-th object."""
    limbo = Limbo(phi=0.0).fit(view.rows, view.priors)
    assert limbo.exact
    membership = limbo.membership()
    picked = range(0, len(view.rows), stride)
    rows = [view.rows[i] for i in picked]
    priors = [view.priors[i] for i in picked]
    expected = [membership[i] for i in picked]
    for backend in BACKENDS:
        assert assign_rows(limbo.summaries, rows, priors, backend) == expected, \
            backend


class TestMembershipIsArgmin:
    @pytest.mark.parametrize("seed", range(10))
    def test_db2_tuples_and_values(self, seed):
        relation = db2_sample(seed=seed).relation
        assert_membership_is_argmin(build_tuple_view(relation))
        assert_membership_is_argmin(build_value_view(relation))

    def test_dblp_2200(self):
        # Every object is re-scored on the dense backend; the scalar sparse
        # loop re-scores a strided sample against all ~2000 summaries.
        relation = dblp(2200, seed=7)
        for view in (build_tuple_view(relation), build_value_view(relation)):
            limbo = Limbo(phi=0.0).fit(view.rows, view.priors)
            assert limbo.exact
            membership = limbo.membership()
            assert assign_rows(limbo.summaries, view.rows, view.priors,
                               "dense") == membership
            assert_membership_is_argmin(view, stride=29)


@st.composite
def near_duplicate_relation(draw):
    """Rows with exact copies and copies that differ in exactly one cell.

    Cells carry their column's name, so two rows have one conditional (under
    the global value scope) exactly when they are equal.
    """
    arity = draw(st.integers(min_value=2, max_value=5))
    letter = st.sampled_from("abcdef")
    base = draw(st.lists(st.lists(letter, min_size=arity, max_size=arity),
                         min_size=2, max_size=10))
    rows = []
    for letters in base:
        row = tuple(f"c{i}{v}" for i, v in enumerate(letters))
        rows.extend([row] * draw(st.integers(min_value=1, max_value=3)))
        if draw(st.booleans()):
            column = draw(st.integers(min_value=0, max_value=arity - 1))
            other = draw(letter.filter(lambda v, old=letters[column]: v != old))
            variant = list(row)
            variant[column] = f"c{column}{other}"
            rows.append(tuple(variant))
    order = draw(st.permutations(range(len(rows))))
    return Relation([f"c{i}" for i in range(arity)], [rows[i] for i in order])


class TestNearDuplicates:
    @given(near_duplicate_relation())
    @settings(max_examples=40, deadline=None)
    def test_membership_is_argmin(self, relation):
        assert_membership_is_argmin(build_tuple_view(relation))
        assert_membership_is_argmin(build_value_view(relation))

    @given(near_duplicate_relation())
    @settings(max_examples=25, deadline=None)
    def test_one_summary_per_distinct_row(self, relation):
        view = build_tuple_view(relation)
        limbo = Limbo(phi=0.0).fit(view.rows, view.priors)
        assert len(limbo.summaries) == len(set(relation.rows))
        for summary in limbo.summaries:
            assert len({relation.rows[i] for i in summary.members}) == 1


class TestBoundedPhiZero:
    """Bounded phi = 0 runs fall back to an escalating tree -- one path for
    every executor setting, so the sequential and sharded reports agree."""

    @pytest.fixture(scope="class")
    def relation(self):
        return db2_sample(seed=7).relation

    @staticmethod
    def report(relation, workers, max_leaf_entries, cap):
        discovery = StructureDiscovery(workers=workers,
                                       max_leaf_entries=max_leaf_entries)
        budget = None if cap is None else Budget(max_memory_bytes=cap)
        # Forged RSS samples keep the memory ladder out of it: only the
        # governor's Phase-1 bookings meet the cap.
        with inject("memory.sample", corrupt=lambda rss: 0):
            report = discovery.run(relation, budget=budget)
        for limbo in (report.tuple_clustering.limbo,
                      report.value_clustering.limbo):
            assert not limbo.exact
            assert limbo.buffer_rebuilds > 0
        assert report.healthy
        blob = report.to_json()
        blob["stages"] = [
            stage for stage in blob["stages"] if stage["stage"] != "parallel"
        ]
        return blob

    @pytest.mark.parametrize("max_leaf_entries, cap",
                             [(8, None), (None, 32 * 1024)],
                             ids=["leaf-buffer", "memory-cap"])
    def test_sequential_equals_workers_2(self, relation, max_leaf_entries, cap):
        sequential = self.report(relation, None, max_leaf_entries, cap)
        assert self.report(relation, 2, max_leaf_entries, cap) == sequential

    def test_phase_snapshot_keeps_rebuilds_and_exactness(self, relation, tmp_path):
        # A resumed run that reloads only the Phase-1 snapshots must report
        # the same leaf-buffer rebuilds (the memory entry) and take the same
        # Phase-3 path as the run that wrote them.
        from repro.checkpoint import CheckpointStore

        directory = tmp_path / "run"
        first = StructureDiscovery(
            max_leaf_entries=8, checkpoint=CheckpointStore(directory)
        ).run(relation)
        for path in directory.glob("stage.*.ckpt"):
            path.unlink()
        store = CheckpointStore(directory, resume=True)
        resumed = StructureDiscovery(max_leaf_entries=8, checkpoint=store).run(
            relation)
        assert store.phase_loads > 0
        assert resumed.tuple_clustering.limbo.buffer_rebuilds > 0
        assert resumed.render() == first.render()
