"""Partitions, meets, separation and the requirement counts are all read off one
answer-code matrix: `Partition.from_codes` groups the positions that share a code
row for output, verdicts are counts on the matrix, and each CLI command computes
`answer_codes` once."""

import functools
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statesieve import (Partition, RequirementReport, answer_codes, enumerate_systems,
                        is_atomic, meet, meet_all, minimality_certificate, named_basis,
                        permute_system, refines, separates, standard_basis, standard_system,
                        system_from_diagonals, system_partitions, systems, transformed_system)
from statesieve.cli import main
from statesieve.systems import standard_subset_meets_nonatomic

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


def general_answer_codes(system, basis):
    """answer_codes as it reads any system on any basis: one eigenvalue_bits pass per projector."""
    codes = np.zeros((basis.size, system.size), dtype=int)
    for i in range(system.size):
        codes[:, i] = basis.eigenvalue_bits(system.diagonals[i], projector_index=i + 1)
    return codes


class TestCodesOfStoredDiagonals:
    """On the identity-form basis a diagonal system's codes are its diagonals, transposed."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_equal_to_the_general_path(self, n):
        rng = np.random.default_rng(n)
        stored = [standard_system(n), permute_system(standard_system(n), rng.permutation(2 ** n)),
                  *enumerate_systems(n, limit=3), system_from_diagonals(
                      rng.integers(0, 2, size=(n, 2 ** n)))]
        basis = standard_basis(n)
        for system in stored:
            codes, expected = answer_codes(system, basis), general_answer_codes(system, basis)
            assert codes.dtype == expected.dtype
            assert codes.shape == expected.shape and codes.tobytes() == expected.tobytes()
            assert codes.flags.c_contiguous and codes.flags.writeable

    def test_dimension_mismatch_still_raises(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            answer_codes(standard_system(2), standard_basis(3))


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

        monkeypatch.setattr(systems, "answer_codes", counted)
        assert main(argv.split()) == exit_code
        capsys.readouterr()
        assert len(calls) == 1

    def test_no_code_pass_without_partitions_meet_or_codes(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("answer_codes called")

        monkeypatch.setattr(systems, "answer_codes", refuse)
        assert main(["transform", "--n", "3", "--emit", "projectors,basis"]) == 0
        capsys.readouterr()


def reference_requirement_report(codes, noncommuting):
    """Requirements (ii) and (iii) as one bincount per column and per pair of columns."""
    failures = [f"(i) projectors {i},{j} do not commute (norm {c:.17g})"
                for i, j, c in noncommuting]
    co_measurable = not failures

    half = len(codes) // 2
    balanced = True
    for i, column in enumerate(codes.T, start=1):
        sizes = sorted(int(c) for c in np.bincount(column) if c)
        if sizes != [half, half]:
            balanced = False
            failures.append(f"(ii) projector {i} splits sizes {sizes}, "
                            f"expected [{half}, {half}]")

    quarter = len(codes) // 4
    refining = True
    for i, j in itertools.combinations(range(codes.shape[1]), 2):
        sizes = sorted(int(c) for c in np.bincount(2 * codes[:, i] + codes[:, j]) if c)
        if any(s != quarter for s in sizes):
            refining = False
            failures.append(f"(iii) propositions {i + 1},{j + 1} meet has "
                            f"block sizes {sizes}, expected all {quarter}")

    return RequirementReport(co_measurable, balanced, refining, tuple(failures))


@st.composite
def code_matrices(draw, min_rows=2, max_rows=64, min_cols=0, max_cols=8):
    """(N, k) 0/1 codes whose columns are bits of one shuffled position index
    (balanced, and pairwise quarters when N is a power of two), shuffled
    halves, biased coins, or constants; about one matrix in three repeats a row."""
    size = draw(st.integers(min_rows, max_rows))
    k = draw(st.integers(min_cols, max_cols))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    index = rng.permutation(size)
    columns = []
    for _ in range(k):
        kind = draw(st.sampled_from(["bit", "half", "coin", "zeros", "ones"]))
        if kind == "bit":
            columns.append((index >> draw(st.integers(0, 6))) & 1)
        elif kind == "half":
            columns.append(rng.permutation(np.arange(size) < size // 2))
        elif kind == "coin":
            columns.append(rng.random(size) < rng.random())
        else:
            columns.append(np.full(size, kind == "ones"))
    codes = np.array(columns, dtype=int).reshape(k, size).T
    if size > 1 and draw(st.integers(0, 2)) == 0:
        codes[rng.integers(size)] = codes[rng.integers(size)]
    return codes


class TestVerdictsAreCounts:
    @settings(max_examples=300, deadline=None)
    @given(code_matrices(), st.sampled_from([[], [(1, 2, 0.25)]]))
    def test_requirement_report_equals_the_bincounts(self, codes, noncommuting):
        assert (systems._requirement_report(codes, noncommuting)
                == reference_requirement_report(codes, noncommuting))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_standard_and_reversed_codes_pass(self, n):
        codes = standard_system(n).diagonals.T
        for c in (codes, codes[:, ::-1]):
            assert systems._requirement_report(c, []).ok
            assert systems._requirement_report(c, []) == reference_requirement_report(c, [])

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(code_matrices(min_rows=0),
                     code_matrices(min_rows=0, max_rows=8, max_cols=0),
                     code_matrices(max_rows=16, min_cols=70, max_cols=70)))
    def test_distinct_rows_equals_atomic_meet(self, codes):
        assert systems._distinct_rows(codes) == is_atomic(Partition.from_codes(codes))

    @pytest.mark.parametrize("k", [0, 1, 8, 9, 70])
    def test_a_repeated_row_does_not_separate(self, k):
        rows = np.random.default_rng(k).integers(0, 2, size=(5, k))
        assert not systems._distinct_rows(np.vstack([rows, rows[2]]))

    @pytest.mark.parametrize("k", [1, 8, 9, 70])
    def test_rows_that_differ_in_the_last_column_are_distinct(self, k):
        rows = np.zeros((2, k), dtype=int)
        rows[1, -1] = 1
        assert systems._distinct_rows(rows)

    def test_no_rows_or_one_row_is_distinct(self):
        assert systems._distinct_rows(np.zeros((0, 3), dtype=int))
        assert systems._distinct_rows(np.zeros((1, 0), dtype=int))
        assert not systems._distinct_rows(np.zeros((2, 0), dtype=int))


@pytest.fixture
def partitions_forbidden(monkeypatch):
    """Fail if anything builds a Partition."""
    def refuse(self):
        raise AssertionError("Partition built")

    monkeypatch.setattr(Partition, "__post_init__", refuse)


@pytest.mark.usefixtures("partitions_forbidden")
class TestVerifyBuildsNoPartition:
    @pytest.mark.parametrize("argv, exit_code", [
        ("verify --n 12 --force", 0),
        ("verify --basis ghz", 0),
        (f"verify --file {GOLDEN / 'parity_n3.json'}", 1),
        ("partition --n 3", 0),
        ("transform --n 3 --basis w --emit partitions,meet", 0),
    ])
    def test_command(self, capsys, argv, exit_code):
        assert main(argv.split()) == exit_code, capsys.readouterr().err

    def test_library_verdicts(self):
        basis = standard_basis(3)
        assert separates(standard_system(3), basis)
        assert standard_subset_meets_nonatomic(3, basis)
        assert minimality_certificate(2).ok

    def test_the_guard_trips_on_printed_partitions(self):
        with pytest.raises(AssertionError, match="Partition built"):
            system_partitions(standard_system(2), standard_basis(2))
