import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statesieve import (EigenbasisError, LinearDependenceError, commutator_norm,
                        conjugate, eigenvalue_bit, gram_schmidt,
                        is_projector, is_unitary, tensor)

from conftest import dyadic_complex, haar_unitary, random_diag_projector, square_complex

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)


class TestTensor:
    def test_identity_times_identity(self):
        assert np.array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_first_bit_flip(self):
        # sigma_x on site 1 of three: ones exactly where the first bit flips
        got = tensor(SX, np.eye(4))
        expected = np.zeros((8, 8), dtype=complex)
        for i in range(8):
            expected[i, i ^ 4] = 1.0
        assert np.array_equal(got, expected)

    def test_single_entry_formula(self):
        # 1-based (s, t) = (3, 2) with m = 2 picks a[2,1] * b[1,2];
        # integer entries keep the scalar-path product exact
        rng = np.random.default_rng(3)
        a = (rng.integers(-9, 10, (2, 2)) + 1j * rng.integers(-9, 10, (2, 2)))
        b = (rng.integers(-9, 10, (2, 2)) + 1j * rng.integers(-9, 10, (2, 2)))
        assert tensor(a, b)[2, 1] == a[1, 0] * b[0, 1]

    @pytest.mark.parametrize("bad", [np.ones((2, 3)), np.ones(4), np.ones((1, 2))])
    def test_rejects_non_square(self, bad):
        with pytest.raises(ValueError):
            tensor(bad, np.eye(2))
        with pytest.raises(ValueError):
            tensor(np.eye(2), bad)

    @given(a=square_complex(), b=square_complex())
    @settings(max_examples=80, deadline=None)
    def test_matches_block_construction(self, a, b):
        got = tensor(a, b)
        want = np.kron(a, b)
        assert got.tobytes() == want.tobytes()

    @given(a=dyadic_complex(), b=dyadic_complex(), c=dyadic_complex())
    @settings(max_examples=60, deadline=None)
    def test_associative_exactly(self, a, b, c):
        # dyadic entries keep every product exact, so equality is bit level
        assert np.array_equal(tensor(tensor(a, b), c), tensor(a, tensor(b, c)))


class TestConjugate:
    def test_identity_transform(self):
        p = np.diag([1, 1, 0, 0]).astype(complex)
        assert np.allclose(conjugate(np.eye(4), p), p)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            conjugate(np.diag([1.0, 2.0]), np.eye(2))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            conjugate(np.eye(2), np.eye(4))

    @given(seed=st.integers(0, 10_000), dim=st.sampled_from([2, 4, 8]))
    @settings(max_examples=40, deadline=None)
    def test_preserves_trace_and_idempotence(self, seed, dim):
        u = haar_unitary(seed, dim)
        p = random_diag_projector(seed + 1, dim)
        q = conjugate(u, p)
        assert abs(np.trace(q) - np.trace(p)) < 1e-10
        assert is_projector(q)

    def test_spectrum_preserved(self):
        u = haar_unitary(7, 4)
        p = np.diag([1, 1, 0, 0]).astype(complex)
        got = np.sort(np.linalg.eigvalsh(conjugate(u, p)))
        assert np.allclose(got, [0, 0, 1, 1], atol=1e-10)


class TestPredicates:
    def test_diagonal_projector(self):
        assert is_projector(np.diag([1, 1, 1, 1, 0, 0, 0, 0]).astype(complex))

    def test_zero_matrix(self):
        assert is_projector(np.zeros((3, 3)))

    def test_half_identity_is_not(self):
        assert not is_projector(0.5 * np.eye(2))

    def test_idempotent_but_not_hermitian(self):
        assert not is_projector(np.array([[1, 1], [0, 0]], dtype=complex))

    def test_scaled_diagonal_is_not_unitary(self):
        assert not is_unitary(np.diag([1.0, 2.0]))

    @given(s1=st.integers(0, 5000), s2=st.integers(0, 5000))
    @settings(max_examples=30, deadline=None)
    def test_unitary_product_closed(self, s1, s2):
        u, v = haar_unitary(s1, 4), haar_unitary(s2, 4)
        assert is_unitary(u) and is_unitary(v) and is_unitary(u @ v)


class TestCommutator:
    def test_pauli_xy(self):
        # [sx, sy] = 2i sz by direct 2x2 multiplication, so the max entry is 2
        assert commutator_norm(SX, SY) == pytest.approx(2.0, abs=1e-14)

    def test_self_commutes(self):
        p = np.diag([1, 0, 1, 0]).astype(complex)
        assert commutator_norm(p, p) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            commutator_norm(np.eye(2), np.eye(4))


class TestEigenvalueBit:
    def test_reads_bits(self):
        p = np.diag([1, 0]).astype(complex)
        assert eigenvalue_bit(p, np.array([1, 0], dtype=complex)) == 1
        assert eigenvalue_bit(p, np.array([0, 1], dtype=complex)) == 0

    def test_rejects_superposition(self):
        p = np.diag([1, 0]).astype(complex)
        v = np.array([1, 1], dtype=complex) / np.sqrt(2)
        with pytest.raises(EigenbasisError):
            eigenvalue_bit(p, v)

    def test_error_carries_indices(self):
        p = np.diag([1, 0]).astype(complex)
        v = np.array([1, 1], dtype=complex) / np.sqrt(2)
        with pytest.raises(EigenbasisError) as err:
            eigenvalue_bit(p, v, projector_index=2, vector_index=5)
        assert err.value.projector_index == 2
        assert err.value.vector_index == 5


class TestGramSchmidt:
    def test_orthonormal_input_unchanged(self):
        vs = [np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)]
        out = gram_schmidt(vs)
        assert np.allclose(out[0], vs[0]) and np.allclose(out[1], vs[1])

    def test_textbook_two_dim(self):
        v1 = np.array([1, 1], dtype=complex) / np.sqrt(2)
        v2 = np.array([1, 0], dtype=complex)
        out = gram_schmidt([v1, v2])
        assert np.allclose(out[0], np.array([1, 1]) / np.sqrt(2))
        assert np.allclose(out[1], np.array([1, -1]) / np.sqrt(2))

    def test_first_output_is_normalized_first_input(self):
        rng = np.random.default_rng(11)
        v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        out = gram_schmidt([v, rng.standard_normal(5)])
        assert np.allclose(out[0], v / np.linalg.norm(v))

    def test_dependence_names_index(self):
        v1 = np.array([1, 0, 0], dtype=complex)
        v2 = np.array([0, 1, 0], dtype=complex)
        with pytest.raises(LinearDependenceError) as err:
            gram_schmidt([v1, v2, v1 + v2])
        assert err.value.index == 2

    def test_the_printed_residual_parses_back_to_the_refused_value(self):
        v1 = np.array([1, 1, 0], dtype=complex) / np.sqrt(2)
        v2 = np.array([1, 0, 0], dtype=complex)
        with pytest.raises(LinearDependenceError) as err:
            gram_schmidt([v1, v2, v1 + v2 + 1e-12 * np.array([0, 0, 1])])
        printed = re.fullmatch(r".*\(residual norm (\S+)\)", str(err.value)).group(1)
        assert err.value.index == 2 and float(printed) == err.value.residual > 0

    def test_empty_input_gives_empty_output(self):
        assert gram_schmidt([]) == []

    def test_matrix_input_rejected(self):
        with pytest.raises(ValueError) as err:
            gram_schmidt([np.eye(2)])
        assert str(err.value) == "expected a 1-d vector, got shape (2, 2)"

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            gram_schmidt([np.ones(2), np.ones(3)])

    @given(seed=st.integers(0, 10_000), dim=st.integers(2, 8))
    @settings(max_examples=50, deadline=None)
    def test_output_orthonormal_and_spanning(self, seed, dim):
        rng = np.random.default_rng(seed)
        # shifted by the identity to stay comfortably independent
        mat = (rng.standard_normal((dim, dim))
               + 1j * rng.standard_normal((dim, dim))) + 3 * np.eye(dim)
        out = gram_schmidt(list(mat))
        g = np.array(out)
        assert np.max(np.abs(np.conj(g) @ g.T - np.eye(dim))) < 1e-10
        # span preserved: projecting each input onto the output span recovers it
        for v in mat:
            proj = sum(np.vdot(u, v) * u for u in out)
            assert np.allclose(proj, v, atol=1e-8)
