"""Property tests: coded-column hot paths agree with the row-tuple oracles.

Every vectorized consumer of the columnar representation keeps its legacy
per-row implementation around as a correctness oracle.  Hypothesis drives
random relations through both and demands exact agreement:

* TANE partitions (:func:`repro.fd.partitions.partition_of` vs
  :func:`repro.testing.oracles.reference_partition_classes`), their
  ``error`` and ``n_classes``,
* the matrix builders ``M``/``N``/``O`` (:func:`build_tuple_view` /
  :func:`build_value_view` vs ``reference_tuple_view`` /
  ``reference_value_view``) and the DCF support sets derived from them,
* FDEP agree sets (bitmask block scan vs the scalar pair loop).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering import DCF
from repro.fd.fdep import (
    _agree_block,
    _agree_sets_scalar,
    _signature_matrix,
    agree_sets,
)
from repro.fd.partitions import partition_of
from repro.relation import NULL, Relation
from repro.relation.columns import ColumnStore
from repro.relation.matrices import build_tuple_view, build_value_view
from repro.testing.oracles import (
    reference_partition_classes,
    reference_tuple_view,
    reference_value_view,
    stripped_classes,
)

_value = st.one_of(
    st.sampled_from(["a", "b", "c", ""]),
    st.integers(min_value=0, max_value=3),
    st.just(NULL),
)


@st.composite
def relation(draw, max_rows=12, max_cols=4, min_rows=0):
    arity = draw(st.integers(min_value=1, max_value=max_cols))
    names = [f"A{i}" for i in range(arity)]
    n = draw(st.integers(min_value=min_rows, max_value=max_rows))
    rows = [tuple(draw(_value) for _ in range(arity)) for _ in range(n)]
    return Relation(names, rows)


def _draw_subset(rel, data):
    names = list(rel.schema.names)
    return data.draw(
        st.lists(st.sampled_from(names), min_size=0,
                 max_size=len(names), unique=True)
    )


@st.composite
def sampled_relation(draw):
    """A relation whose dictionaries hold codes no row uses, as a relation
    cut from a larger one keeps its parent's dictionaries."""
    rel = draw(relation(min_rows=1))
    unused = draw(st.lists(st.sampled_from(["gone", "lost", 9, NULL]),
                           min_size=1, max_size=3))
    store = ColumnStore(rel.schema.names)
    for dictionary in store.dictionaries:
        dictionary.encode(unused)
    store.append_rows(rel.rows)
    return Relation.from_columns(rel.schema, store)


def _oracle_error_and_classes(rel, subset):
    classes = reference_partition_classes(rel, subset)
    covered = sum(len(members) for members in classes)
    return covered - len(classes), len(classes) + len(rel) - covered


class TestPartitionParity:
    @given(relation(), st.data())
    @settings(max_examples=80)
    def test_partition_of_matches_row_oracle(self, rel, data):
        subset = _draw_subset(rel, data)
        coded = partition_of(rel, subset)
        assert stripped_classes(coded) == reference_partition_classes(rel, subset)
        assert coded.n_rows == len(rel)

    @given(relation(min_rows=1))
    @settings(max_examples=50)
    def test_label_array_consistent_with_classes(self, rel):
        name = rel.schema.names[0]
        part = partition_of(rel, [name])
        labels = part.labels
        assert labels.shape == (len(rel),)
        assert labels.dtype == np.int32
        assert np.array_equal(np.bincount(labels), part.counts)
        for members in reference_partition_classes(rel, [name]):
            assert set(np.flatnonzero(labels == labels[members[0]])) == set(members)

    @pytest.mark.parametrize("min_rows,max_rows", [(0, 0), (1, 1), (0, 12)])
    @given(data=st.data())
    @settings(max_examples=40)
    def test_error_and_n_classes_match_oracle(self, min_rows, max_rows, data):
        rel = data.draw(relation(min_rows=min_rows, max_rows=max_rows))
        for subset in ([], _draw_subset(rel, data)):
            part = partition_of(rel, subset)
            error, n_classes = _oracle_error_and_classes(rel, subset)
            assert (part.error, part.n_classes) == (error, n_classes)
            assert part.is_superkey() == (error == 0)

    @given(sampled_relation(), st.data())
    @settings(max_examples=40)
    def test_unused_dictionary_codes_form_no_group(self, rel, data):
        subset = _draw_subset(rel, data)
        part = partition_of(rel, subset)
        assert stripped_classes(part) == reference_partition_classes(rel, subset)
        error, n_classes = _oracle_error_and_classes(rel, subset)
        assert (part.error, part.n_classes) == (error, n_classes)
        assert part.counts.min() >= 1


class TestMatrixParity:
    @given(relation(min_rows=1), st.sampled_from(["global", "attribute"]))
    @settings(max_examples=60)
    def test_tuple_view_matches_row_oracle(self, rel, scope):
        coded = build_tuple_view(rel, value_scope=scope)
        oracle = reference_tuple_view(rel, value_scope=scope)
        assert coded.catalog.keys == oracle.catalog.keys
        assert coded.rows == oracle.rows
        assert coded.priors == oracle.priors

    @given(relation(min_rows=1), st.sampled_from(["global", "attribute"]))
    @settings(max_examples=60)
    def test_value_view_matches_row_oracle(self, rel, scope):
        coded = build_value_view(rel, value_scope=scope)
        oracle = reference_value_view(rel, value_scope=scope)
        assert coded.catalog.keys == oracle.catalog.keys
        assert coded.rows == oracle.rows
        assert coded.support == oracle.support
        assert coded.tuple_counts == oracle.tuple_counts
        assert coded.n_columns == oracle.n_columns

    @given(relation(min_rows=1), st.data())
    @settings(max_examples=40)
    def test_double_clustered_value_view_matches(self, rel, data):
        clusters = data.draw(
            st.lists(st.integers(min_value=0, max_value=2),
                     min_size=len(rel), max_size=len(rel))
        )
        coded = build_value_view(rel, tuple_clusters=clusters)
        oracle = reference_value_view(rel, tuple_clusters=clusters)
        assert coded.rows == oracle.rows
        assert coded.support == oracle.support

    @given(relation(min_rows=1))
    @settings(max_examples=40)
    def test_dcf_support_sets_match(self, rel):
        """DCF singletons built from either view carry identical mass
        supports and ADCF ``O``-rows -- the inputs the clustering stages
        consume downstream of the builders."""
        coded = build_value_view(rel)
        oracle = reference_value_view(rel)
        for v in range(coded.n_values):
            a = DCF.singleton(v, coded.priors[v], coded.rows[v],
                              support=coded.support[v])
            b = DCF.singleton(v, oracle.priors[v], oracle.rows[v],
                              support=oracle.support[v])
            assert a.mass == b.mass
            assert a.support == b.support
            assert set(a.mass) == {
                k for k, p in coded.rows[v].items() if p > 0.0
            }


class TestAgreeSetParity:
    @given(relation(min_rows=2, max_rows=10))
    @settings(max_examples=60)
    def test_bitmask_blocks_match_scalar_loop(self, rel):
        sig = _signature_matrix(rel)
        names = list(rel.schema.names)
        n = len(rel)
        vectorized = set()
        for start in range(0, n - 1, 3):
            vectorized |= _agree_block(sig, names, start, min(start + 3, n - 1))
        scalar = _agree_sets_scalar(sig, names, n, None)
        assert vectorized == scalar

    @given(relation(min_rows=0, max_rows=10))
    @settings(max_examples=40)
    def test_agree_sets_entry_point(self, rel):
        sig = _signature_matrix(rel)
        names = list(rel.schema.names)
        assert agree_sets(rel) == _agree_sets_scalar(sig, names, len(rel), None)


class TestWideRelationFallback:
    def test_agree_sets_beyond_mask_width(self):
        """More attributes than an int64 bitmask holds -> scalar fallback,
        same answer."""
        arity = 70
        names = [f"A{i}" for i in range(arity)]
        rows = [
            tuple("x" if (r + c) % 3 else f"v{c}" for c in range(arity))
            for r in range(6)
        ]
        rel = Relation(names, rows)
        sig = _signature_matrix(rel)
        assert agree_sets(rel) == _agree_sets_scalar(sig, names, len(rel), None)
