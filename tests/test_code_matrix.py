"""Partitions, meets and separation are all read off one answer-code matrix:
`Partition.from_codes` groups the positions that share a code row, and each
CLI command computes `answer_codes` once."""

import functools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statesieve import (Partition, answer_codes, cli, is_atomic, meet, meet_all,
                        named_basis, permute_system, refines, separates, standard_basis,
                        standard_system, system_from_diagonals, system_partitions, systems,
                        transformed_system)
from statesieve.cli import main

GOLDEN = Path(__file__).parent / "golden"


def reference_meet(a: Partition, b: Partition) -> Partition:
    """The common refinement as all non-empty pairwise block intersections."""
    blocks = []
    for block_a in a.blocks:
        for block_b in b.blocks:
            common = set(block_a) & set(block_b)
            if common:
                blocks.append(tuple(sorted(common)))
    return Partition(a.ground_size, tuple(blocks))


def reference_refines(fine: Partition, coarse: Partition) -> bool:
    """Every block of `fine` lies inside one block of `coarse`."""
    return fine.ground_size == coarse.ground_size and all(
        any(set(b) <= set(c) for c in coarse.blocks) for b in fine.blocks)


def partition_on(ground: int):
    """Partitions of {1..ground} from a random block label per position."""
    return st.lists(st.integers(0, 3), min_size=ground, max_size=ground).map(Partition.from_codes)


def partition_lists(max_ground: int = 9, max_parts: int = 5):
    return st.integers(1, max_ground).flatmap(
        lambda g: st.lists(partition_on(g), min_size=1, max_size=max_parts))


class TestFromCodes:
    def test_bits_split_into_ones_and_zeros(self):
        assert Partition.from_codes([1, 0, 1, 1]) == Partition(4, ((1, 3, 4), (2,)))

    def test_one_bit_value_gives_one_block(self):
        assert Partition.from_codes(np.zeros(3, dtype=int)) == Partition(3, ((1, 2, 3),))

    def test_rows_group_positions(self):
        codes = np.array([[0, 1], [1, 0], [0, 1], [1, 1]])
        assert Partition.from_codes(codes) == Partition(4, ((1, 3), (2,), (4,)))

    def test_no_columns_is_one_block(self):
        assert Partition.from_codes(np.zeros((4, 0), dtype=int)) == Partition(4, ((1, 2, 3, 4),))

    def test_distinct_rows_are_atomic(self):
        assert is_atomic(Partition.from_codes(standard_system(3).diagonals.T))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 12).flatmap(
        lambda g: st.lists(st.lists(st.integers(0, 2), min_size=3, max_size=3),
                           min_size=g, max_size=g)))
    def test_same_block_iff_same_row(self, rows):
        part = Partition.from_codes(rows)
        block_of = {k: b for b in part.blocks for k in b}
        for j in range(1, len(rows) + 1):
            for k in range(1, len(rows) + 1):
                assert (block_of[j] is block_of[k]) == (rows[j - 1] == rows[k - 1])


class TestMeetByCodeGrouping:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 9).flatmap(lambda g: st.tuples(partition_on(g), partition_on(g))))
    def test_meet_equals_pairwise_intersections(self, pair):
        a, b = pair
        assert meet(a, b) == reference_meet(a, b)

    @settings(max_examples=200, deadline=None)
    @given(partition_lists())
    def test_meet_all_equals_folded_intersections(self, parts):
        assert meet_all(parts) == functools.reduce(reference_meet, parts)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 9).flatmap(lambda g: st.tuples(partition_on(g), partition_on(g))))
    def test_refines_equals_block_containment(self, pair):
        a, b = pair
        assert refines(a, b) == reference_refines(a, b)
        assert refines(meet(a, b), a) and refines(meet(a, b), b)

    def test_refines_needs_equal_ground_sizes(self):
        assert not refines(Partition(2, ((1,), (2,))), Partition(3, ((1, 2, 3),)))

    def test_mismatch_after_the_first_partition(self):
        two = Partition(2, ((1, 2),))
        with pytest.raises(ValueError, match="ground-size mismatch: 2 vs 3"):
            meet_all([two, two, Partition(3, ((1, 2, 3),))])


def random_diagonal_system(n: int, seed: int, permuted: bool):
    """A permuted standard system, or n random 0/1 diagonals that need not separate."""
    rng = np.random.default_rng(seed)
    if permuted:
        return permute_system(standard_system(n), rng.permutation(2 ** n))
    return system_from_diagonals(rng.integers(0, 2, size=(n, 2 ** n)))


class TestCodeMatrixAgreement:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 2 ** 32 - 1), st.booleans())
    def test_diagonal_systems(self, n, seed, permuted):
        system, basis = random_diagonal_system(n, seed, permuted), standard_basis(n)
        whole = Partition.from_codes(answer_codes(system, basis))
        assert whole == meet_all(system_partitions(system, basis))
        assert separates(system, basis) == is_atomic(whole)
        if permuted:
            assert is_atomic(whole)

    @pytest.mark.parametrize("key", ["ghz", "w", "equal_weight"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("permuted", [True, False])
    def test_named_bases(self, key, seed, permuted):
        basis, unitary = named_basis(key)
        system = transformed_system(unitary, random_diagonal_system(3, seed, permuted))
        whole = Partition.from_codes(answer_codes(system, basis))
        assert whole == meet_all(system_partitions(system, basis))
        assert separates(system, basis) == is_atomic(whole)


class TestOneCodePassPerCommand:
    @pytest.mark.parametrize("argv, exit_code", [
        ("verify --n 3 --basis ghz", 0),
        ("verify --n 4 --perm 16,15,14,13,12,11,10,9,8,7,6,5,4,3,2,1", 0),
        (f"verify --file {GOLDEN / 'parity_n3.json'}", 1),
        ("transform --n 3 --basis w --emit partitions,meet,codes", 0),
        ("transform --n 4 --emit projectors,partitions,meet,codes,basis,unitary", 0),
        ("partition --n 3 --basis equal_weight", 0),
        ("partition --n 4 --perm 2,1,3,4,5,6,7,8,9,10,11,12,13,14,16,15", 0),
    ])
    def test_answer_codes_runs_once(self, capsys, monkeypatch, argv, exit_code):
        calls = []
        real = systems.answer_codes

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "answer_codes", counted)
        monkeypatch.setattr(systems, "answer_codes", counted)
        assert main(argv.split()) == exit_code
        capsys.readouterr()
        assert len(calls) == 1

    def test_no_code_pass_without_partitions_meet_or_codes(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("answer_codes called")

        monkeypatch.setattr(cli, "answer_codes", refuse)
        assert main(["transform", "--n", "3", "--emit", "projectors,basis"]) == 0
        capsys.readouterr()
