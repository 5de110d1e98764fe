"""Unit tests for label-array partitions."""

import numpy as np
import pytest

from repro.fd.partitions import Partition, fuse, partition_of, product
from repro.relation import NULL, Relation
from repro.testing.oracles import stripped_classes


@pytest.fixture
def rel():
    return Relation(
        ["A", "B", "C"],
        [
            ("x", "1", "p"),
            ("x", "1", "q"),
            ("y", "1", "p"),
            ("y", "2", "q"),
            ("z", "2", "p"),
        ],
    )


class TestPartitionOf:
    def test_single_attribute(self, rel):
        part = partition_of(rel, ["A"])
        assert stripped_classes(part) == ((0, 1), (2, 3))  # z is stripped

    def test_strips_singletons(self, rel):
        part = partition_of(rel, ["A", "B"])
        assert stripped_classes(part) == ((0, 1),)

    def test_superkey_detection(self, rel):
        assert partition_of(rel, ["A", "B", "C"]).is_superkey()
        assert not partition_of(rel, ["A"]).is_superkey()

    def test_empty_attribute_set_is_one_class(self, rel):
        part = partition_of(rel, [])
        assert stripped_classes(part) == ((0, 1, 2, 3, 4),)

    def test_string_attribute_accepted(self, rel):
        by_name = partition_of(rel, "A")
        by_list = partition_of(rel, ["A"])
        assert np.array_equal(by_name.labels, by_list.labels)
        assert np.array_equal(by_name.counts, by_list.counts)

    def test_null_equals_null(self):
        rel = Relation(["A"], [(NULL,), (NULL,), ("x",)])
        part = partition_of(rel, ["A"])
        assert stripped_classes(part) == ((0, 1),)


class TestErrorAndCounts:
    def test_error(self, rel):
        # pi_A: {0,1},{2,3},{4}: error = (2-1)+(2-1) = 2.
        assert partition_of(rel, ["A"]).error == 2

    def test_superkey_error_zero(self, rel):
        assert partition_of(rel, ["A", "B", "C"]).error == 0

    def test_n_classes_counts_stripped(self, rel):
        assert partition_of(rel, ["A"]).n_classes == 3

    def test_fd_validity_via_error(self, rel):
        # A -> B fails (tuples 2,3 agree on A, differ on B).
        pa = partition_of(rel, ["A"])
        pab = partition_of(rel, ["A", "B"])
        assert pa.error != pab.error
        # {A,B} -> A holds trivially.
        assert pab.error == partition_of(rel, ["A", "B"]).error


class TestProduct:
    def test_matches_direct_partition(self, rel):
        pa = partition_of(rel, ["A"])
        pb = partition_of(rel, ["B"])
        assert stripped_classes(product(pa, pb)) == stripped_classes(
            partition_of(rel, ["A", "B"]))

    def test_commutative(self, rel):
        pa = partition_of(rel, ["A"])
        pc = partition_of(rel, ["C"])
        assert stripped_classes(product(pa, pc)) == stripped_classes(
            product(pc, pa))

    def test_product_with_self(self, rel):
        pa = partition_of(rel, ["A"])
        assert stripped_classes(product(pa, pa)) == stripped_classes(pa)

    def test_mismatched_sizes_rejected(self, rel):
        other = Partition(np.zeros(2, dtype=np.int32), np.array([2]))
        with pytest.raises(ValueError):
            product(partition_of(rel, ["A"]), other)


class TestFuse:
    def test_groups_numbered_in_sorted_key_order(self):
        labels, counts = fuse(np.array([1, 0, 1, 0], dtype=np.int32), 3,
                              np.array([2, 2, 0, 2], dtype=np.int32))
        # keys 5, 2, 3, 2 -> sorted distinct 2, 3, 5
        assert labels.tolist() == [2, 0, 1, 0]
        assert labels.dtype == np.int32
        assert counts.tolist() == [2, 1, 1]

    def test_key_is_widened_before_multiplying(self):
        # 65536 * 65536 = 2**32 wraps to 0 in int32 and would merge the two
        # rows; the int64 key keeps them apart.
        labels = np.array([65_536, 0], dtype=np.int32)
        column = np.zeros(2, dtype=np.int32)
        fused, counts = fuse(labels, 65_536, column)
        assert fused.tolist() == [1, 0]
        assert counts.tolist() == [1, 1]


def _product_reference(left: Partition, right: Partition) -> tuple:
    """The dict-based TANE product over stripped classes (parity oracle)."""
    label: dict = {}
    for class_index, members in enumerate(stripped_classes(left)):
        for row in members:
            label[row] = class_index
    classes = []
    for members in stripped_classes(right):
        sub: dict = {}
        for row in members:
            owner = label.get(row)
            if owner is not None:
                sub.setdefault(owner, []).append(row)
        classes.extend(tuple(g) for g in sub.values() if len(g) > 1)
    return tuple(sorted(classes))


class TestLabelArrayParity:
    """The fused label arrays agree with the dict-based reference."""

    @staticmethod
    def _random_relation(seed, n_rows=60, n_attributes=4, cardinality=5):
        import random

        rng = random.Random(seed)
        names = [f"A{i}" for i in range(n_attributes)]
        rows = [
            tuple(str(rng.randrange(cardinality)) for _ in names)
            for _ in range(n_rows)
        ]
        return Relation(names, rows)

    def test_labels_round_trip(self, rel):
        part = partition_of(rel, ["A"])
        assert part.labels.dtype == np.int32
        assert part.labels.tolist() == [0, 0, 1, 1, 2]
        assert part.counts.tolist() == [2, 2, 1]
        assert np.array_equal(np.bincount(part.labels), part.counts)

    def test_product_matches_reference_on_random_relations(self):
        for seed in range(8):
            relation = self._random_relation(seed, n_rows=80)
            names = relation.schema.names
            partitions = [partition_of(relation, [a]) for a in names]
            for left in partitions:
                for right in partitions:
                    fast = stripped_classes(product(left, right))
                    assert fast == _product_reference(left, right), seed

    def test_product_matches_direct_partition(self):
        for seed in (3, 4):
            relation = self._random_relation(seed, n_rows=50)
            names = relation.schema.names
            for a in names:
                for b in names:
                    if a == b:
                        continue
                    combined = product(
                        partition_of(relation, [a]), partition_of(relation, [b])
                    )
                    assert stripped_classes(combined) == stripped_classes(
                        partition_of(relation, [a, b]))
