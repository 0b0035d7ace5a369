import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statesieve import (EigenbasisError, Partition, ghz_basis, is_atomic, meet,
                        meet_all, partition_from_projector, refines,
                        standard_basis, standard_system, transformed_system)

# Partitions the three transformed propositions induce on the entangled basis
GHZ_PARTITIONS = (
    ((1, 2, 3, 4), (5, 6, 7, 8)),
    ((1, 2, 5, 6), (3, 4, 7, 8)),
    ((1, 3, 5, 7), (2, 4, 6, 8)),
)

# The permuted (x/y-product) triple induces these instead
CERECEDA_PARTITIONS = (
    ((1, 4, 6, 7), (2, 3, 5, 8)),
    ((1, 4, 5, 8), (2, 3, 6, 7)),
    ((1, 3, 6, 8), (2, 4, 5, 7)),
)


def partitions(max_ground=8):
    def build(ground):
        return st.lists(st.integers(0, 3), min_size=ground, max_size=ground).map(
            lambda labels: Partition(ground, tuple(
                tuple(i + 1 for i in range(ground) if labels[i] == v)
                for v in set(labels))))
    return st.integers(1, max_ground).flatmap(build)


class TestPartitionType:
    def test_canonical_form(self):
        p = Partition(8, ((8, 7, 6, 5), (4, 3, 2, 1)))
        assert p.blocks == ((1, 2, 3, 4), (5, 6, 7, 8))

    def test_equality_is_structural(self):
        assert Partition(4, ((1, 2), (3, 4))) == Partition(4, ((4, 3), (2, 1)))

    def test_rejects_overlap(self):
        with pytest.raises(ValueError, match="more than one block"):
            Partition(4, ((1, 2), (2, 3, 4)))

    def test_rejects_gap(self):
        with pytest.raises(ValueError, match="missing"):
            Partition(4, ((1, 2), (4,)))

    @pytest.mark.parametrize("ground, blocks, missing", [
        (4, ((1, 2), (4,)), "[3]"),
        (12, ((1,), (12,)), "[2, 3, 4, 5, 6, 7, 8, 9, 10, 11]"),
        (20, ((3, 5),), "18 indices, first [1, 2, 4, 6, 7, 8, 9, 10, 11, 12]"),
    ])
    def test_gap_message_lists_ten_gaps_and_counts_the_rest(self, ground, blocks, missing):
        with pytest.raises(ValueError) as info:
            Partition(ground, blocks)
        assert str(info.value) == f"blocks do not cover the ground set, missing {missing}"

    def test_a_huge_ground_is_refused_without_listing_it(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="missing"):
                Partition(10 ** 30, ((1,),))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            Partition(4, ((0, 1, 2, 3, 4),))

    def test_rejects_empty_block(self):
        with pytest.raises(ValueError, match="empty"):
            Partition(2, ((1, 2), ()))


class TestFromProjector:
    def test_identity_gives_single_block(self):
        basis, _ = ghz_basis()
        part = partition_from_projector(np.eye(8), basis)
        assert part.blocks == (tuple(range(1, 9)),)

    @pytest.mark.parametrize("which, expected", list(enumerate(GHZ_PARTITIONS)))
    def test_ghz_partitions(self, which, expected):
        basis, u = ghz_basis()
        system = transformed_system(u, standard_system(3))
        part = partition_from_projector(system.projectors[which], basis)
        assert part == Partition(8, expected)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError) as err:
            partition_from_projector(np.eye(4), standard_basis(3))
        assert str(err.value) == "dimension mismatch: projector 4, basis 8"

    def test_non_eigenvector_raises(self):
        basis, _ = ghz_basis()
        # the parity projector of the *standard* system does not fix these states
        with pytest.raises(EigenbasisError, match=r"\(vector 1\)$"):
            partition_from_projector(standard_system(3).projectors[2], basis)


class TestMeet:
    def test_quarter_blocks(self):
        a = Partition(8, GHZ_PARTITIONS[0])
        b = Partition(8, GHZ_PARTITIONS[1])
        # oracle: plain set intersections of the four block pairs
        expected = sorted(
            tuple(sorted(set(x) & set(y)))
            for x in a.blocks for y in b.blocks if set(x) & set(y))
        got = meet(a, b)
        assert list(got.blocks) == expected
        assert got == Partition(8, ((1, 2), (3, 4), (5, 6), (7, 8)))

    def test_meet_with_self(self):
        p = Partition(6, ((1, 3, 5), (2, 4, 6)))
        assert meet(p, p) == p

    def test_ghz_meet_is_atomic(self):
        parts = [Partition(8, blocks) for blocks in GHZ_PARTITIONS]
        assert meet_all(parts) == Partition(8, tuple((i,) for i in range(1, 9)))

    def test_cereceda_meet_is_atomic(self):
        parts = [Partition(8, blocks) for blocks in CERECEDA_PARTITIONS]
        assert is_atomic(meet_all(parts))

    def test_ground_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            meet(Partition(2, ((1, 2),)), Partition(3, ((1, 2, 3),)))

    def test_meet_all_empty(self):
        with pytest.raises(ValueError):
            meet_all([])

    @given(p=partitions(), q=partitions())
    @settings(max_examples=80, deadline=None)
    def test_commutative_and_refining(self, p, q):
        if p.ground_size != q.ground_size:
            with pytest.raises(ValueError):
                meet(p, q)
            return
        m = meet(p, q)
        assert m == meet(q, p)
        assert refines(m, p) and refines(m, q)

    @given(p=partitions(4), q=partitions(4), r=partitions(4))
    @settings(max_examples=60, deadline=None)
    def test_associative(self, p, q, r):
        if not (p.ground_size == q.ground_size == r.ground_size):
            return
        assert meet(meet(p, q), r) == meet(p, meet(q, r))


class TestAtomic:
    def test_singletons(self):
        assert is_atomic(Partition(4, ((1,), (2,), (3,), (4,))))

    def test_pairs_are_not(self):
        assert not is_atomic(Partition(4, ((1, 2), (3, 4))))
