"""The standard basis in identity form against its dense twin `Basis(np.eye(N), labels)`,
and the commands that must never build the N x N identity."""

import contextlib
import io
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import statesieve.bases as bases
import statesieve.linalg as linalg
import statesieve.systems as systems
from conftest import haar_unitary
from statesieve import (Basis, DetectorOutcome, EigenbasisError, PropositionSystem, answer_codes,
                        detector_for_bits, ket_label, named_basis, partition_from_projector,
                        permute_system, route_basis_state, standard_basis, standard_diagonals,
                        standard_system, transformed_system)
from statesieve.cli import main

GOLDEN = Path(__file__).parent / "golden"


def dense_twin(basis: Basis) -> Basis:
    return Basis(np.eye(basis.dim, dtype=complex), tuple(basis.labels))


def outcome(fn, *args):
    """fn(*args), or the type, text and indices of the EigenbasisError (or other
    ValueError) it raises."""
    try:
        return "ok", fn(*args)
    except ValueError as e:
        return (type(e).__name__, str(e), getattr(e, "projector_index", None),
                getattr(e, "vector_index", None))


@st.composite
def systems_and_indices(draw):
    """A system of one of five kinds, some 1-based basis indices and a tolerance.

    "rotated" turns positions a and b into each other by a plane rotation, so the
    quotients there leave {0, 1} for every projector whose codes differ at a, b;
    "haar" conjugates by a random unitary, so no basis vector is an eigenvector.
    """
    n = draw(st.integers(1, 6))
    dim = 2 ** n
    kind = draw(st.sampled_from(["standard", "permuted", "dense twin", "rotated", "haar"]))
    system = standard_system(n)
    if kind != "standard":
        system = permute_system(system, draw(st.permutations(range(dim))))
    if kind == "dense twin":
        system = PropositionSystem(n, system.projectors)
    elif kind == "rotated":
        a, b = draw(st.lists(st.integers(0, dim - 1), min_size=2, max_size=2, unique=True))
        angle = draw(st.floats(0.0, 2 * math.pi))
        u = np.eye(dim, dtype=complex)
        u[[a, a, b, b], [a, b, a, b]] = [math.cos(angle), -math.sin(angle),
                                         math.sin(angle), math.cos(angle)]
        system = transformed_system(u, system)
    elif kind == "haar":
        system = transformed_system(haar_unitary(draw(st.integers(0, 2 ** 16)), dim), system)
    indices = draw(st.lists(st.integers(1, dim), min_size=1, max_size=4))
    tol = draw(st.sampled_from([0.0, 1e-12, 1e-10, 1e-3, 0.6]))
    return system, indices, tol


class TestIdentityForm:
    @settings(max_examples=150, deadline=None)
    @given(systems_and_indices())
    def test_equals_the_dense_twin(self, case):
        system, indices, tol = case
        basis = standard_basis(system.n)
        twin = dense_twin(basis)
        codes, twin_codes = outcome(answer_codes, system, basis, tol), outcome(
            answer_codes, system, twin, tol)
        if codes[0] == "ok":
            assert twin_codes[0] == "ok"
            assert codes[1].dtype == twin_codes[1].dtype
            assert codes[1].tobytes() == twin_codes[1].tobytes()
        else:
            assert codes == twin_codes
        for k in indices:
            assert (outcome(route_basis_state, system, basis, k, tol)
                    == outcome(route_basis_state, system, twin, k, tol))
            assert basis.vector(k).tobytes() == twin.vector(k).tobytes()
        for p in system.projectors:
            assert (outcome(partition_from_projector, p, basis, tol)
                    == outcome(partition_from_projector, p, twin, tol))
        assert basis.gram_defect() == twin.gram_defect() == 0.0
        assert (basis.size, basis.dim) == (twin.size, twin.dim)
        assert basis.vectors.tobytes() == twin.vectors.tobytes()

    def test_builds_the_dense_identity_once_on_first_read(self):
        basis = standard_basis(3)
        assert isinstance(basis, bases.IdentityBasis)
        assert basis._vectors is None and basis._labels is None
        assert basis.vectors is basis.vectors
        assert basis.vectors.dtype == complex and np.array_equal(basis.vectors, np.eye(8))
        assert basis.labels[0] == "|+++>" and basis.labels[-1] == "|--->"

    @pytest.mark.parametrize("k", [0, 9, -1])
    def test_vector_index_out_of_range(self, k):
        for basis in (standard_basis(3), dense_twin(standard_basis(3))):
            with pytest.raises(ValueError, match=rf"index must be in 1\.\.8, got {k}"):
                basis.vector(k)

    @pytest.mark.parametrize("k", [0, 9, -1])
    def test_every_read_of_one_state_shares_the_range_check(self, k):
        system = standard_system(3)
        for basis in (standard_basis(3), dense_twin(standard_basis(3))):
            for read in (basis.rows, basis.vector, basis.label,
                         lambda k: basis.eigenvalue_bits(system.diagonals[0], index=k),
                         lambda k: answer_codes(system, basis, index=k),
                         lambda k: route_basis_state(system, basis, k)):
                with pytest.raises(ValueError, match=rf"^index must be in 1\.\.8, got {k}$"):
                    read(k)

    @pytest.mark.parametrize("k", [1.5, 2.0, True, np.True_, "1"])
    def test_an_index_that_is_not_an_integer_is_out_of_range(self, k):
        # 1.5 used to end in numpy's slice TypeError, and True to read as state 1
        system = standard_system(3)
        for basis in (standard_basis(3), dense_twin(standard_basis(3))):
            for read in (basis.rows, basis.vector, basis.label,
                         lambda k: basis.eigenvalue_bits(system.diagonals[0], index=k),
                         lambda k: answer_codes(system, basis, index=k),
                         lambda k: route_basis_state(system, basis, k)):
                with pytest.raises(ValueError) as err:
                    read(k)
                assert str(err.value) == f"index must be in 1..8, got {k}"
            assert basis.vector(np.int64(3)).tobytes() == basis.vector(3).tobytes()

    @pytest.mark.parametrize("key, n", [("standard", n) for n in range(1, 7)]
                             + [("ghz", 3), ("w", 3), ("equal_weight", 3)])
    def test_one_label_is_its_entry_in_labels(self, key, n):
        basis, _ = named_basis(key, n)
        labels = [basis.label(k) for k in range(1, basis.size + 1)]
        if isinstance(basis, bases.IdentityBasis):
            assert basis._labels is None  # label(k) built one label, not the N
            assert labels == [ket_label(k, n) for k in range(2 ** n)]
        assert labels == list(basis.labels)
        for k in (0, basis.size + 1):
            with pytest.raises(ValueError, match=rf"index must be in 1\.\.{basis.size}, got {k}"):
                basis.label(k)

    def test_vector_of_a_dense_basis_is_its_row(self):
        rows = haar_unitary(3, 4)
        basis = Basis(rows, ("a", "b", "c", "d"))
        assert not isinstance(basis, bases.IdentityBasis) and basis.size == basis.dim == 4
        assert [basis.vector(k).tobytes() for k in range(1, 5)] == [r.tobytes() for r in rows]


@pytest.fixture
def dense_vectors_refused(monkeypatch):
    """Fail the test if anything reads the vectors of a basis, dense or identity form."""
    def refuse(self):
        raise AssertionError("basis.vectors was read")
    for form in (Basis, bases.IdentityBasis):
        monkeypatch.setattr(form, "vectors", property(refuse))


@pytest.mark.parametrize("argv, code", [
    (["verify", "--n", "10"], 0),
    (["verify", "--file", str(GOLDEN / "parity_n3.json")], 1),  # does not separate
    (["partition", "--n", "3", "--perm", "2,1,3,4,5,6,8,7"], 0),
    (["transform", "--n", "4", "--emit", "partitions,meet,codes"], 0),
    (["simulate", "--n", "3", "--index", "3", "--sample", "20", "--seed", "1"], 0),
    (["simulate", "--n", "2", "--state", str(GOLDEN / "state.json"), "--sample", "20"], 0),
])
def test_standard_basis_commands_never_read_the_dense_vectors(dense_vectors_refused, argv, code):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == code


def test_simulate_index_builds_one_label(monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("all N labels built")

    monkeypatch.setattr(Basis, "labels", property(refuse))
    assert main(["simulate", "--n", "12", "--force", "--index", "777"]) == 0
    assert '"state": "|++--++++-+++>"' in capsys.readouterr().out


@pytest.mark.parametrize("n", [3, 10])
def test_routing_reads_the_code_row_without_computing_a_bit(monkeypatch, n):
    """Every state of a permuted diagonal system on the identity form routes by
    its column of the stored diagonals: no unit vector is built and no Rayleigh
    quotient is formed or rounded."""
    system = permute_system(standard_system(n), np.random.default_rng(n).permutation(2 ** n))
    basis = standard_basis(n)
    want = [tuple(column.tolist()) for column in system.diagonals.T]

    def refuse(*args, **kwargs):
        raise AssertionError("an answer bit was computed, not read")

    monkeypatch.setattr(type(basis), "vector", refuse)  # the identity form's own method
    for module, name in ((linalg, "eigenvalue_bits"), (linalg, "quotient_bits"),
                         (bases, "eigenvalue_bits"), (bases, "quotient_bits"),
                         (systems, "quotient_bits")):
        monkeypatch.setattr(module, name, refuse)
    for k, bits in enumerate(want, start=1):
        assert route_basis_state(system, basis, k) == DetectorOutcome(bits, detector_for_bits(bits))
        assert answer_codes(system, basis, index=k).tolist() == [list(bits)]


def test_one_state_is_read_from_its_own_vector_alone():
    """Vector 5 is a common eigenvector of the standard projectors and vector 1 is
    not: routing state 5 and reading its code row never look at vector 1."""
    vectors = np.eye(8, dtype=complex)
    vectors[:2, :2] = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    basis = Basis(vectors, tuple("abcdefgh"))
    diagonal = standard_system(3)
    for system in (diagonal, PropositionSystem(3, diagonal.projectors)):
        row = standard_diagonals(3)[:, 4]
        assert answer_codes(system, basis, index=5).tolist() == [row.tolist()]
        assert route_basis_state(system, basis, 5) == route_basis_state(
            system, standard_basis(3), 5)
        for read in (lambda: answer_codes(system, basis),
                     lambda: answer_codes(system, basis, index=1),
                     lambda: route_basis_state(system, basis, 1)):
            with pytest.raises(EigenbasisError, match=r"\(projector 3, vector 1\)$") as e:
                read()
            assert (e.value.projector_index, e.value.vector_index) == (3, 1)
