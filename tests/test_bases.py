import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from statesieve import (Basis, PropositionSystem, ResourceLimitError, certify_system,
                        conjugate, equal_weight_basis, ghz_basis, gram_schmidt, is_projector,
                        is_unitary, named_basis, permute_system, route_basis_state, separates,
                        standard_basis, standard_system, systems, transformed_system, w_basis)
from statesieve.bases import NamedUnitary, basis_from_unitary, combo_label, ket_label

from conftest import haar_unitary

S2 = 1.0 / math.sqrt(2.0)
S3 = 1.0 / math.sqrt(3.0)
S6 = 1.0 / math.sqrt(6.0)

# The eight entangled pair states (|abc> +/- |a'b'c'>)/√2, frozen as coordinates
GHZ_VECTORS = np.array([
    [1, 0, 0, 0, 0, 0, 0, 1],
    [1, 0, 0, 0, 0, 0, 0, -1],
    [0, 1, 0, 0, 0, 0, 1, 0],
    [0, 1, 0, 0, 0, 0, -1, 0],
    [0, 0, 1, 0, 0, 1, 0, 0],
    [0, 0, 1, 0, 0, -1, 0, 0],
    [0, 0, 0, 1, 1, 0, 0, 0],
    [0, 0, 0, 1, -1, 0, 0, 0],
]) * S2

# Columns of the single-flip family transform, frozen as coordinates
W_VECTORS = np.array([
    [1, 0, 0, 0, 0, 0, 0, 0],
    [0, S3, S3, S3, 0, 0, 0, 0],
    [0, -S2, 0, S2, 0, 0, 0, 0],
    [0, -S6, 2 * S6, -S6, 0, 0, 0, 0],
    [0, 0, 0, 0, S3, S3, S3, 0],
    [0, 0, 0, 0, -S2, 0, S2, 0],
    [0, 0, 0, 0, -S6, 2 * S6, -S6, 0],
    [0, 0, 0, 0, 0, 0, 0, 1],
])

# Sign patterns of the four equally weighted states (columns 1-4)
RHO_SIGNS = np.array([
    [1, 1, 1, 1, 1, 1, 1, 1],
    [1, 1, 1, 1, -1, -1, -1, -1],
    [1, 1, -1, -1, 1, 1, -1, -1],
    [1, -1, 1, -1, 1, -1, 1, -1],
])


GOLDEN = Path(__file__).parent / "golden"

# each catalog unitary is its integer table over the square roots of these column norms
CATALOG_TABLES = {"ghz": ("_GHZ_INT", [2] * 8),
                  "w": ("_W_INT", [1, 3, 2, 6, 3, 2, 6, 1]),
                  "equal_weight": ("_EQUAL_WEIGHT_INT", [8] * 8)}
# a float sum over N = 8 terms, each off by a few ulps: far looser than any rounding seen
ROUNDING_BOUND = 64 * 8 * np.finfo(float).eps


def exact_carried_projectors(key):
    """The standard system carried into catalog basis `key`, in fractions: with
    U = T / sqrt(c), projector i is U diag(d_i) U^T = T diag(d_i / c) T^T."""
    from statesieve import bases
    name, norms = CATALOG_TABLES[key]
    t = getattr(bases, name).tolist()
    return [[[sum(Fraction(t[r][j] * t[s][j] * d[j], norms[j]) for j in range(8))
              for s in range(8)] for r in range(8)]
            for d in systems.standard_diagonals(3).tolist()]


class TestStandardBasis:
    def test_n3_endpoints(self):
        basis = standard_basis(3)
        assert np.array_equal(basis.vectors[0], np.eye(8)[0])
        assert basis.labels[0] == "|+++>"
        assert np.array_equal(basis.vectors[7], np.eye(8)[7])
        assert basis.labels[7] == "|--->"

    def test_n1(self):
        basis = standard_basis(1)
        assert np.array_equal(basis.vectors, np.eye(2))
        assert basis.labels == ("|+>", "|->")

    def test_label_order_descends(self):
        assert [ket_label(k, 2) for k in range(4)] == \
            ["|++>", "|+->", "|-+>", "|-->"]

    @pytest.mark.parametrize("bad", [0, 11])
    def test_range_guard(self, bad):
        with pytest.raises(ValueError):
            standard_basis(bad)

    def test_shares_the_system_size_guard(self, monkeypatch):
        monkeypatch.setattr(systems, "MAX_N", 2)
        with pytest.raises(ResourceLimitError, match="force"):
            standard_basis(3)
        assert standard_basis(3, force=True).size == 8
        with pytest.raises(ValueError, match="64-bit") as err:
            standard_basis(99, force=True)
        assert not isinstance(err.value, ResourceLimitError)


class TestGhzBasis:
    def test_all_eight_vectors(self):
        basis, _ = ghz_basis()
        assert np.allclose(basis.vectors, GHZ_VECTORS, atol=1e-14)

    def test_unitary_columns_are_the_vectors(self):
        basis, u = ghz_basis()
        for i in range(8):
            assert np.allclose(u.matrix[:, i], basis.vectors[i])

    def test_last_row(self):
        _, u = ghz_basis()
        assert np.allclose(u.matrix[7], np.array([1, -1, 0, 0, 0, 0, 0, 0]) * S2)

    def test_certified_unitary(self):
        _, u = ghz_basis()
        assert is_unitary(u.matrix, 1e-12)

    def test_gram_identity(self):
        basis, _ = ghz_basis()
        assert basis.gram_defect() <= 1e-12


class TestWBasis:
    def test_all_eight_vectors(self):
        basis, _ = w_basis()
        assert np.allclose(basis.vectors, W_VECTORS, atol=1e-14)

    def test_first_state_is_all_plus(self):
        basis, _ = w_basis()
        assert np.array_equal(basis.vectors[0], np.eye(8)[0])
        assert basis.labels[0] == "|+++>"

    def test_symmetric_single_flip_state(self):
        basis, _ = w_basis()
        assert np.allclose(basis.vectors[1],
                           np.array([0, 1, 1, 1, 0, 0, 0, 0]) * S3)

    def test_certified_unitary(self):
        _, u = w_basis()
        assert is_unitary(u.matrix, 1e-12)
        basis, _ = w_basis()
        assert basis.gram_defect() <= 1e-12


class TestEqualWeightBasis:
    def test_first_matrix_row(self):
        _, u = equal_weight_basis()
        assert np.allclose(u.matrix[0],
                           np.array([1, 1, 1, 1, 2, 0, 0, 0]) / (2 * math.sqrt(2)))

    def test_first_two_rows_orthogonal(self):
        _, u = equal_weight_basis()
        # oracle: 1 + 1 + 1 - 1 - 2 = 0 by direct dot product
        assert abs(np.dot(u.matrix[0], u.matrix[1])) < 1e-14

    def test_columns_normalized(self):
        _, u = equal_weight_basis()
        for k in range(8):
            assert abs(np.linalg.norm(u.matrix[:, k]) - 1.0) < 1e-12

    def test_four_equal_weight_columns(self):
        basis, _ = equal_weight_basis()
        for k in range(4):
            assert np.allclose(basis.vectors[k],
                               RHO_SIGNS[k] / (2 * math.sqrt(2)), atol=1e-14)

    def test_certified_unitary(self):
        _, u = equal_weight_basis()
        assert is_unitary(u.matrix, 1e-12)

    def test_corrupted_transcription_fails_loudly(self, monkeypatch):
        from statesieve import bases
        broken = bases._EQUAL_WEIGHT_INT.copy()
        broken[0, 0] = 2
        monkeypatch.setattr(bases, "_EQUAL_WEIGHT_INT", broken)
        with pytest.raises(ValueError, match="certification"):
            bases.equal_weight_unitary()

    def test_gram_schmidt_completes_the_four_states(self):
        basis, _ = equal_weight_basis()
        rho = [basis.vectors[k] for k in range(4)]
        # unit vectors 1, 2, 3, 5 keep the stack independent (rank checked
        # against numpy); hyperplane index sets like 1..4 would not
        extras = [np.eye(8)[k].astype(complex) for k in (0, 1, 2, 4)]
        assert np.linalg.matrix_rank(np.array(rho + extras)) == 8
        out = gram_schmidt(rho + extras)
        g = np.array(out)
        assert np.max(np.abs(np.conj(g) @ g.T - np.eye(8))) < 1e-10
        for r in rho:
            for v in out[4:]:
                assert abs(np.vdot(r, v)) < 1e-10


class TestNamedBasisLookup:
    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown basis"):
            named_basis("fourier")

    def test_fixed_bases_require_three_particles(self):
        with pytest.raises(ValueError, match="n = 3"):
            named_basis("ghz", n=2)

    def test_standard_passes_n_through(self):
        basis, unitary = named_basis("standard", n=2)
        assert basis.dim == 4 and unitary is None

    @pytest.mark.parametrize("key, table", [("ghz", "_GHZ_INT"), ("w", "_W_INT"),
                                            ("equal_weight", "_EQUAL_WEIGHT_INT")])
    def test_a_corrupted_table_is_refused_in_one_message(self, monkeypatch, key, table):
        from statesieve import bases
        broken = getattr(bases, table).copy()
        broken[0, 0] = 2
        monkeypatch.setattr(bases, table, broken)
        with pytest.raises(ValueError, match=rf"^matrix for basis '{key}' failed unitarity "
                                             rf"certification within 1e-10$"):
            named_basis(key)

    @pytest.mark.parametrize("key, table, norms", [
        ("ghz", "_GHZ_INT", [2] * 8), ("w", "_W_INT", [1, 3, 2, 6, 3, 2, 6, 1]),
        ("equal_weight", "_EQUAL_WEIGHT_INT", [8] * 8)])
    def test_each_unitary_is_its_table_over_its_column_norms(self, key, table, norms):
        from statesieve import bases
        ints = getattr(bases, table)
        assert ints.dtype.kind == "i" and (ints * ints).sum(axis=0).tolist() == norms
        _, u = named_basis(key)
        assert u.matrix.tobytes() == (ints / np.sqrt(norms)).astype(complex).tobytes()

    @pytest.mark.parametrize("key", ["ghz", "w", "equal_weight"])
    def test_each_basis_function_is_the_lookup(self, key):
        from statesieve import bases
        basis, u = getattr(bases, f"{key}_basis")(1e-12)
        same, v = named_basis(key, 3, 1e-12)
        assert basis.vectors.tobytes() == same.vectors.tobytes()
        assert basis.labels == same.labels and u.matrix.tobytes() == v.matrix.tobytes()

    @pytest.mark.parametrize("key", ["ghz", "w", "equal_weight"])
    def test_each_basis_function_certifies_its_unitary_once(self, monkeypatch, key):
        from statesieve import bases
        real, calls = bases.is_unitary, []

        def counted(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(bases, "is_unitary", counted)
        getattr(bases, f"{key}_basis")()
        assert len(calls) == 1


class TestExactCatalog:
    """Each catalog verdict has an exact rational value, read off the integer tables."""

    @pytest.mark.parametrize("key", CATALOG_TABLES)
    def test_each_table_is_orthogonal_with_its_column_norms(self, key):
        from statesieve import bases
        name, norms = CATALOG_TABLES[key]
        t = getattr(bases, name).tolist()
        gram = [[sum(Fraction(t[r][j]) * t[r][k] for r in range(8)) for k in range(8)]
                for j in range(8)]
        assert gram == [[norms[j] if j == k else 0 for k in range(8)] for j in range(8)]

    @pytest.mark.parametrize("key", CATALOG_TABLES)
    def test_each_carried_projector_has_trace_4_and_squares_to_itself(self, key):
        floats = transformed_system(named_basis(key)[1], standard_system(3)).projectors
        for p, near in zip(exact_carried_projectors(key), floats):
            assert sum(p[r][r] for r in range(8)) == 4
            square = [[sum(p[r][j] * p[j][s] for j in range(8)) for s in range(8)]
                      for r in range(8)]
            assert square == p
            assert np.abs(near - np.array(p, dtype=float)).max() <= ROUNDING_BOUND

    @pytest.mark.parametrize("path", sorted(GOLDEN.glob("verify_*_tol?e-16.out")),
                             ids=lambda path: path.stem)
    def test_the_tiny_tolerance_traces_are_rounding_misses(self, path):
        key = re.fullmatch(r"verify_(\w+)_tol\de-16", path.stem)[1]
        exact = exact_carried_projectors(key)
        misses = re.findall(r"projector (\d) has trace (\S+)\+0j", path.read_text())
        assert misses
        for i, printed in misses:
            trace = sum(exact[int(i) - 1][r][r] for r in range(8))
            assert trace == 4 and 0 < abs(float(printed) - trace) <= ROUNDING_BOUND


class TestBasisInputs:
    @pytest.mark.parametrize("vectors, labels, message", [
        (np.ones(4), ["a"] * 4, "basis vectors must form a 2-d array"),
        (np.ones((2, 2, 2)), ["a"] * 2, "basis vectors must form a 2-d array"),
        (np.eye(2), ["a"], "one label per basis vector required"),
    ])
    def test_refused(self, vectors, labels, message):
        with pytest.raises(ValueError, match=rf"^{message}$"):
            Basis(vectors, labels)


class TestTransformedSystem:
    def test_identity_is_a_no_op(self):
        system = standard_system(2)
        same = transformed_system(np.eye(4), system)
        for p, q in zip(system.projectors, same.projectors):
            assert np.allclose(p, q)

    def test_ghz_projectors_match_displays(self):
        _, u = ghz_basis()
        got = transformed_system(u, standard_system(3))
        assert np.allclose(got.projectors[0],
                           np.diag([1, 1, 0, 0, 0, 0, 1, 1]), atol=1e-10)
        assert np.allclose(got.projectors[1],
                           np.diag([1, 0, 1, 0, 0, 1, 0, 1]), atol=1e-10)
        expected_o3 = (np.eye(8) + np.fliplr(np.eye(8))) / 2.0
        assert np.allclose(got.projectors[2], expected_o3, atol=1e-10)

    def test_w_first_projector_diagonal(self):
        _, u = w_basis()
        got = transformed_system(u, standard_system(3))
        assert np.allclose(got.projectors[0],
                           np.diag([1, 1, 1, 1, 0, 0, 0, 0]), atol=1e-10)

    def test_w_other_projectors_by_direct_multiplication(self):
        _, u = w_basis()
        got = transformed_system(u, standard_system(3))
        for k, p in enumerate(standard_system(3).projectors):
            want = u.matrix @ p @ np.conj(u.matrix).T
            assert np.allclose(got.projectors[k], want, atol=1e-12)
            assert is_projector(got.projectors[k], 1e-12)

    @pytest.mark.parametrize("key", ["ghz", "w", "equal_weight"])
    def test_preserves_certification_and_separation(self, key):
        basis, u = named_basis(key)
        system = transformed_system(u, standard_system(3))
        assert certify_system(system) == []
        assert separates(system, basis)

    @pytest.mark.parametrize("key", ["ghz", "w", "equal_weight"])
    def test_eigencodes_survive_the_basis_change(self, key):
        basis, u = named_basis(key)
        original = standard_system(3)
        moved = transformed_system(u, original)
        std = standard_basis(3)
        for k in range(1, 9):
            before = route_basis_state(original, std, k)
            after = route_basis_state(moved, basis, k)
            assert before.answer_bits == after.answer_bits
            assert before.detector_index == after.detector_index

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            transformed_system(np.eye(4), standard_system(3))

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            transformed_system(np.diag([1.0, 2.0, 1.0, 1.0]), standard_system(2))

    def test_non_unitary_rejected_without_projectors(self):
        with pytest.raises(ValueError, match=r"^matrix u is not unitary within tolerance$"):
            transformed_system(np.diag([1.0, 2.0, 1.0, 1.0]), PropositionSystem(2, ()))

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_each_projector_is_conjugates_bytes(self, n, seed):
        system = permute_system(standard_system(n), np.random.default_rng(seed).permutation(2 ** n))
        u = haar_unitary(seed, 2 ** n)
        got = transformed_system(u, system).projectors
        assert [p.tobytes() for p in got] == [conjugate(u, p).tobytes() for p in system.projectors]


class TestLabels:
    def test_combo_renders_pair_state(self):
        v = np.zeros(8, dtype=complex)
        v[0] = S2
        v[7] = S2
        assert combo_label(v) == "(|+++>+|--->)/√2"

    def test_combo_renders_weighted_term(self):
        v = np.array([0, -S6, 2 * S6, -S6, 0, 0, 0, 0], dtype=complex)
        assert combo_label(v) == "(-|++->+2|+-+>-|+-->)/√6"

    def test_combo_gives_up_on_a_ratio_off_by_1e_3(self):
        # 2.001 is no integer multiple of the smallest amplitude, within 1e-6
        assert combo_label(np.array([1, 2.001]) / np.sqrt(5)) == ""

    def test_combo_gives_up_on_generic_vectors(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(8)
        v /= np.linalg.norm(v)
        assert combo_label(v) == ""

    @pytest.mark.parametrize("vec, label", [
        (np.full(4, 0.5), "(|++>+|+->+|-+>+|-->)/2"),
        (np.array([1j, 0]), ""),
        (np.zeros(4), ""),
        (np.array([1.0, 1.0]), ""),
    ], ids=["square-factor", "complex", "zero", "unnormalized"])
    def test_combo_edge_cases(self, vec, label):
        assert combo_label(vec) == label

    @pytest.mark.parametrize("length", [3, 5, 6, 12])
    def test_combo_gives_up_on_a_length_that_is_no_power_of_two(self, length):
        # no ket width fits, so no ket is drawn, not even for an equal superposition
        assert combo_label(np.ones(length) / np.sqrt(length)) == ""
        assert combo_label(np.eye(length)[0]) == ""

    def test_a_unitary_of_no_power_of_two_size_is_labelled_by_name(self):
        labels = basis_from_unitary(NamedUnitary("x", np.eye(3))).labels
        assert labels == ("x_1", "x_2", "x_3")

    @pytest.mark.parametrize("key", ["ghz", "w", "equal_weight"])
    def test_a_unitary_labels_its_basis_with_kets_as_wide_as_its_vectors(self, key):
        # the width comes from the 8-vectors: no n to pass, so none to get wrong
        basis, u = named_basis(key)
        labels = basis_from_unitary(u).labels
        assert labels == basis.labels
        kets = [k for label in labels for k in label.split("|")[1:]]
        assert kets and all(len(k.split(">")[0]) == 3 for k in kets)

    def test_basis_from_unitary_takes_its_tolerance_by_name(self):
        _, u = named_basis("ghz")
        with pytest.raises(TypeError):
            basis_from_unitary(u, 3)
        assert basis_from_unitary(u, tol=1e-12).labels == named_basis("ghz")[0].labels

    def test_every_catalog_label_is_nonempty(self):
        for key in ("ghz", "w", "equal_weight"):
            basis, _ = named_basis(key)
            assert all(basis.labels)
