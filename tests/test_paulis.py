import functools
import itertools
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statesieve import (CERECEDA_AXES, CERECEDA_PREIMAGE_DIAGONALS, Partition,
                        ResourceLimitError, cereceda_system, certify_system, commutator_norm,
                        conjugate, embed, ghz_basis, is_projector, pauli,
                        sigma_product_proposition, system_partitions)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


class TestPauli:
    @pytest.mark.parametrize("axis, expected", [("x", SX), ("y", SY), ("z", SZ)])
    def test_definitions(self, axis, expected):
        assert np.array_equal(pauli(axis), expected)

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_hermitian_unitary_traceless(self, axis):
        m = pauli(axis)
        assert np.array_equal(m, np.conj(m).T)
        assert np.array_equal(m @ np.conj(m).T, np.eye(2))
        assert np.trace(m) == 0

    def test_unknown_axis(self):
        with pytest.raises(ValueError, match="axis"):
            pauli("w")

    def test_returns_copy(self):
        m = pauli("x")
        m[0, 0] = 99
        assert pauli("x")[0, 0] == 0


class TestEmbed:
    def test_site_one_of_three(self):
        assert np.array_equal(embed("x", 1, 3), np.kron(SX, np.eye(4)))

    def test_site_three_of_three(self):
        assert np.array_equal(embed("x", 3, 3), np.kron(np.eye(4), SX))

    def test_site_two_of_three(self):
        assert np.array_equal(embed("y", 2, 3),
                              np.kron(np.kron(np.eye(2), SY), np.eye(2)))

    def test_single_site(self):
        assert np.array_equal(embed("z", 1, 1), np.diag([1, -1]).astype(complex))

    @pytest.mark.parametrize("site", [0, 4])
    def test_site_out_of_range(self, site):
        with pytest.raises(ValueError, match="site"):
            embed("x", site, 3)

    def test_shares_the_system_size_guard(self):
        with pytest.raises(ResourceLimitError) as err:
            embed("x", 1, 11)
        assert str(err.value) == "n = 11 exceeds the guard 10"  # embed takes no force

    @pytest.mark.parametrize("a", ["x", "y", "z"])
    @pytest.mark.parametrize("b", ["x", "y", "z"])
    def test_disjoint_sites_commute(self, a, b):
        for i, j in [(1, 2), (1, 3), (2, 3)]:
            assert commutator_norm(embed(a, i, 3), embed(b, j, 3)) < 1e-14


class TestSigmaProduct:
    def test_xxx_is_the_half_coupling_matrix(self):
        # (identity + flip-all-bits)/2: ones pairing positions (k, 9-k)
        expected = (np.eye(8) + np.fliplr(np.eye(8))) / 2.0
        assert np.allclose(sigma_product_proposition("xxx"), expected, atol=1e-14)

    def test_single_z(self):
        assert np.allclose(sigma_product_proposition("z"),
                           np.diag([1, 0]), atol=1e-14)

    def test_xyy_matches_conjugated_diagonal(self):
        _, u = ghz_basis()
        d = np.diag(np.array(CERECEDA_PREIMAGE_DIAGONALS[0], dtype=complex))
        assert np.allclose(sigma_product_proposition("xyy"),
                           conjugate(u.matrix, d), atol=1e-10)

    def test_shares_the_system_size_guard(self):
        with pytest.raises(ResourceLimitError) as err:
            sigma_product_proposition("x" * 11)
        assert str(err.value) == "n = 11 exceeds the guard 10"  # it takes no force

    def test_rejects_bad_assignments(self):
        with pytest.raises(ValueError):
            sigma_product_proposition("")
        with pytest.raises(ValueError):
            sigma_product_proposition("xq")

    @pytest.mark.parametrize("axes", [
        *("".join(t) for n in range(1, 6) for t in itertools.product("xyz", repeat=n)),
        "xyyxyyx"])
    def test_kronecker_product_equals_the_embed_product(self, axes):
        n = len(axes)
        product = functools.reduce(operator.matmul, (embed(a, site, n)
                                                     for site, a in enumerate(axes, start=1)))
        expected = (np.eye(2 ** n) + product) / 2.0
        assert sigma_product_proposition(axes).tobytes() == expected.tobytes()

    @given(axes=st.text(alphabet="xyz", min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_always_a_half_trace_projector(self, axes):
        p = sigma_product_proposition(axes)
        assert is_projector(p, 1e-12)
        assert abs(np.trace(p) - 2 ** (len(axes) - 1)) < 1e-12

    def test_even_parity_eigenspace_is_the_plus_phase_states(self):
        basis, _ = ghz_basis()
        p = sigma_product_proposition("xxx")
        for k in range(8):
            v = basis.vectors[k]
            expected = v if k % 2 == 0 else np.zeros(8)
            assert np.allclose(p @ v, expected, atol=1e-12)


class TestCerecedaSystem:
    def test_matches_conjugated_preimages(self):
        _, u = ghz_basis()
        system = cereceda_system()
        for t, diag in zip(system.projectors, CERECEDA_PREIMAGE_DIAGONALS):
            want = conjugate(u.matrix, np.diag(np.array(diag, dtype=complex)))
            assert np.allclose(t, want, atol=1e-10)

    def test_mutually_commuting_projectors(self):
        assert certify_system(cereceda_system()) == []

    def test_partitions_of_the_entangled_basis(self):
        basis, _ = ghz_basis()
        parts = system_partitions(cereceda_system(), basis)
        assert parts[0] == Partition(8, ((1, 4, 6, 7), (2, 3, 5, 8)))
        assert parts[1] == Partition(8, ((1, 4, 5, 8), (2, 3, 6, 7)))
        assert parts[2] == Partition(8, ((1, 3, 6, 8), (2, 4, 5, 7)))

    def test_axis_strings(self):
        assert CERECEDA_AXES == ("xyy", "yxy", "yyx")


class TestGeneralizedConstruction:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_relative_spins_plus_parity_separate(self, n):
        # n-1 propositions "spins 1 and k agree in z" plus the all-x parity
        # proposition: commuting projectors whose joint filters all have
        # rank one, i.e. the cascade is atomic
        dim = 2 ** n
        props = [0.5 * (np.eye(dim) + embed("z", 1, n) @ embed("z", k, n))
                 for k in range(2, n + 1)]
        props.append(sigma_product_proposition("x" * n))
        for p in props:
            assert is_projector(p, 1e-12)
        for i in range(len(props)):
            for j in range(i + 1, len(props)):
                assert commutator_norm(props[i], props[j]) < 1e-12
        for code in range(dim):
            joint = np.eye(dim, dtype=complex)
            for bit_pos, p in enumerate(props):
                take = (code >> (n - 1 - bit_pos)) & 1
                joint = joint @ (p if take else np.eye(dim) - p)
            assert abs(np.trace(joint) - 1.0) < 1e-10
