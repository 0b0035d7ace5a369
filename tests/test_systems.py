import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statesieve import (CERECEDA_PREIMAGE_DIAGONALS, EigenbasisError, PropositionSystem,
                        ResourceLimitError, answer_codes, certify_system,
                        count_systems, eigenvalue_bit,
                        enumerate_systems, ghz_basis, minimality_certificate,
                        named_basis, permute_system, question_count_stats,
                        separates, standard_basis, standard_system,
                        system_from_diagonals, transformed_system,
                        verify_requirements, verify_system)
from statesieve import jsonio, systems
from statesieve.bases import BASIS_KEYS
from statesieve.systems import standard_subset_meets_nonatomic


GOLDEN = Path(__file__).parent / "golden"

# diagonals (1, 1, 1, 0) and (1, 0, 1, 0): projector 1 has trace 3 and splits
# the basis 3:1, so requirements (ii) and (iii) and separation all fail
UNEVEN_N2 = PropositionSystem(2, [np.diag([1.0, 1, 1, 0]), np.diag([1.0, 0, 1, 0])])
UNEVEN_N2_FAILURES = [
    "projector 1 has trace 3+0j, expected 2.0",
    "(ii) projector 1 splits sizes [1, 3], expected [2, 2]",
    "(iii) propositions 1,2 meet has block sizes [1, 1, 2], expected all 1",
    "system does not separate the basis"]


def diagonals_of(system):
    return tuple(tuple(int(round(x.real)) for x in np.diag(p))
                 for p in system.projectors)


def permutations_of(n):
    return st.permutations(list(range(n)))


class TestStandardSystem:
    def test_n1_base_case(self):
        (p,) = standard_system(1).projectors
        assert np.array_equal(p, np.diag([1, 0]).astype(complex))

    def test_n2_block_rule(self):
        system = standard_system(2)
        assert diagonals_of(system) == ((1, 1, 0, 0), (1, 0, 1, 0))
        # brute-force separation oracle: the four 2-bit columns are distinct
        codes = {tuple(d[k] for d in diagonals_of(system)) for k in range(4)}
        assert len(codes) == 4

    def test_n3_explicit_display(self):
        assert diagonals_of(standard_system(3)) == (
            (1, 1, 1, 1, 0, 0, 0, 0),
            (1, 1, 0, 0, 1, 1, 0, 0),
            (1, 0, 1, 0, 1, 0, 1, 0),
        )

    @pytest.mark.parametrize("bad", [0, -1, 11])
    def test_out_of_range(self, bad):
        with pytest.raises(ValueError):
            standard_system(bad)

    def test_rejects_a_projector_of_the_wrong_shape(self):
        with pytest.raises(ValueError) as err:
            PropositionSystem(2, [np.eye(3)])
        assert str(err.value) == "projector 1 has shape (3, 3), expected (4, 4)"

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_certifies(self, n):
        assert certify_system(standard_system(n)) == []

    def test_force_stops_at_the_structured_ceiling(self, monkeypatch):
        # both limits lowered, so that nothing near the real ceiling is built
        monkeypatch.setattr(systems, "MAX_N", 2)
        monkeypatch.setattr(systems, "STRUCTURED_MAX_N", 3)
        assert standard_system(3, force=True).n == 3
        for build in (lambda: standard_system(4, force=True),
                      lambda: next(enumerate_systems(4, limit=1, force=True))):
            with pytest.raises(ValueError) as err:
                build()
            assert str(err.value) == ("n = 4 exceeds STRUCTURED_MAX_N = 3, the largest n "
                                      "whose (n, 2^n) arrays are built, even with force")
            assert not isinstance(err.value, ResourceLimitError)


class TestSizeGuard:
    """A size refusal offers force exactly where force lifts it.  MAX_N and
    STRUCTURED_MAX_N are lowered to 2 and 3, so n = 3 and 4 are refused
    without force and nothing large is built."""

    @pytest.fixture(autouse=True)
    def low_limits(self, monkeypatch):
        monkeypatch.setattr(systems, "MAX_N", 2)
        monkeypatch.setattr(systems, "STRUCTURED_MAX_N", 3)

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("call", [
        standard_system, standard_basis,
        lambda n, force=False: question_count_stats(n, 1, 0, force=force),
        lambda n, force=False: next(enumerate_systems(n, 1, force)),
        lambda n, force=False: count_systems(n, 1, force),
        lambda n, force=False: count_systems(n, None, force),
    ], ids=["standard_system", "standard_basis", "question_count_stats",
            "enumerate_systems", "count_systems", "count_systems_unlimited"])
    def test_force_lifts_what_the_hint_offers(self, call, n):
        with pytest.raises(ValueError) as err:
            call(n)
        if "override with force" in str(err.value):
            call(n, force=True)
        else:
            with pytest.raises(ValueError) as forced:
                call(n, force=True)
            assert not isinstance(forced.value, ResourceLimitError)


class TestRequirements:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_standard_passes(self, n):
        report = verify_requirements(standard_system(n), standard_basis(n))
        assert report.ok and report.failures == ()

    def test_duplicate_projector_fails_pair_refinement(self):
        o1 = standard_system(3).projectors[0]
        system = PropositionSystem(3, (o1, o1))
        report = verify_requirements(system, standard_basis(3))
        assert report.co_measurable and report.balanced_halves
        assert not report.pairwise_quarters
        assert any("(iii)" in f for f in report.failures)

    def test_ghz_transformed_passes(self):
        from statesieve import transformed_system
        basis, u = ghz_basis()
        report = verify_requirements(transformed_system(u, standard_system(3)), basis)
        assert report.ok

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            verify_requirements(standard_system(2), standard_basis(3))

    def test_non_eigenbasis_error_names_the_projector(self):
        with pytest.raises(EigenbasisError, match=r"\(projector 1, vector 1\)") as err:
            verify_requirements(standard_system(3), ghz_basis()[0])
        assert (err.value.projector_index, err.value.vector_index) == (1, 1)


class TestVerifySystem:
    @staticmethod
    def assert_prints(verdict, printed):
        failures, report, separating = verdict
        assert failures == printed["failures"]
        assert (separating, not failures) == (printed["separates"], printed["certified"])
        fields = ("co_measurable", "balanced_halves", "pairwise_quarters", "ok")
        assert report is not None and {f: printed[f] for f in fields} == {
            f: getattr(report, f) for f in fields}

    @pytest.mark.parametrize("golden, tol", [("verify_ghz", 1e-10),
                                             ("verify_ghz_tol5e-16", 5e-16)])
    def test_ghz_verdict_is_what_verify_prints(self, golden, tol):
        basis, u = named_basis("ghz", 3, tol)
        system = transformed_system(u, standard_system(3), tol)
        printed = json.loads((GOLDEN / f"{golden}.out").read_text())
        self.assert_prints(verify_system(system, basis, tol), printed)

    def test_file_verdict_is_what_verify_prints(self):
        system = jsonio.system_from_json(json.loads((GOLDEN / "parity_n3.json").read_text()))
        printed = json.loads((GOLDEN / "verify_parity_n3.out").read_text())
        self.assert_prints(verify_system(system, standard_basis(3)), printed)

    def test_uneven_verdict(self):
        failures, report, separating = verify_system(UNEVEN_N2, standard_basis(2))
        assert failures == UNEVEN_N2_FAILURES and not separating
        assert report.co_measurable and not report.balanced_halves
        assert not report.pairwise_quarters and report.failures == tuple(UNEVEN_N2_FAILURES[1:3])

    def test_off_the_eigenbasis_the_report_is_none(self):
        failures, report, separating = verify_system(standard_system(3), ghz_basis()[0])
        assert report is None and not separating
        assert failures == ["requirement checks aborted: vector is not a 0/1 eigenvector: "
                            "Rayleigh quotient 0.49999999999999989 (projector 1, vector 1)"]


class TestPermute:
    def test_identity_fixes(self):
        system = standard_system(3)
        assert diagonals_of(permute_system(system, range(8))) == diagonals_of(system)

    def test_swap_first_two_columns(self):
        # the first two columns differ only in the last bit, so only the
        # last diagonal changes: 10101010 -> 01101010
        got = permute_system(standard_system(3), [1, 0, 2, 3, 4, 5, 6, 7])
        assert diagonals_of(got) == (
            (1, 1, 1, 1, 0, 0, 0, 0),
            (1, 1, 0, 0, 1, 1, 0, 0),
            (0, 1, 1, 0, 1, 0, 1, 0),
        )

    def test_full_reversal(self):
        got = permute_system(standard_system(3), [7 - k for k in range(8)])
        assert diagonals_of(got) == (
            (0, 0, 0, 0, 1, 1, 1, 1),
            (0, 0, 1, 1, 0, 0, 1, 1),
            (0, 1, 0, 1, 0, 1, 0, 1),
        )

    def test_rejects_a_diagonal_that_is_not_0_1(self):
        with pytest.raises(ValueError) as err:
            permute_system(PropositionSystem(1, [np.diag([0.5, 0.5])]), range(2))
        assert str(err.value) == "projector 1 diagonal is not 0/1"

    def test_rejects_non_diagonal(self):
        from statesieve import transformed_system
        _, u = ghz_basis()
        system = transformed_system(u, standard_system(3))
        with pytest.raises(ValueError, match="diagonal"):
            permute_system(system, range(8))

    def test_rejects_bad_permutations(self):
        with pytest.raises(ValueError, match="length"):
            permute_system(standard_system(2), [0, 1, 2])
        with pytest.raises(ValueError, match="bijection"):
            permute_system(standard_system(2), [0, 0, 1, 2])

    @pytest.mark.parametrize("perm, dtype", [([1.9, 0.2], "float64"), ([True, False], "bool"),
                                             (["1", "0"], "<U1")])
    def test_rejects_entries_that_are_not_integers(self, perm, dtype):
        # a float used to truncate to a position: [1.9, 0.2] read as the swap [1, 0]
        with pytest.raises(ValueError) as err:
            permute_system(standard_system(1), perm)
        assert str(err.value) == f"permutation entries must be integers, got dtype {dtype}"

    @given(p=permutations_of(4), q=permutations_of(4))
    @settings(max_examples=60, deadline=None)
    def test_group_action(self, p, q):
        system = standard_system(2)
        compose = [q[p[k]] for k in range(4)]
        lhs = permute_system(permute_system(system, p), q)
        rhs = permute_system(system, compose)
        assert diagonals_of(lhs) == diagonals_of(rhs)


class TestEnumerate:
    def test_n1_both_systems(self):
        got = [diagonals_of(s) for s in enumerate_systems(1)]
        assert got == [((0, 1),), ((1, 0),)] or got == [((1, 0),), ((0, 1),)]
        assert len(got) == 2

    def test_n2_exhausts_to_24_distinct(self):
        seen = {diagonals_of(s) for s in enumerate_systems(2)}
        assert len(seen) == 24

    def test_first_yield_is_standard(self):
        first = next(enumerate_systems(3))
        assert diagonals_of(first) == diagonals_of(standard_system(3))

    def test_limit(self):
        assert sum(1 for _ in enumerate_systems(2, limit=5)) == 5

    def test_guard_refuses_full_n4(self):
        with pytest.raises(ResourceLimitError):
            list(enumerate_systems(4))

    def test_force_streams_n4(self):
        got = list(itertools.islice(enumerate_systems(4, force=True), 3))
        assert len(got) == 3 and got[0].dim == 16

    def test_force_overrides_the_dimension_guard(self, monkeypatch):
        monkeypatch.setattr(systems, "MAX_N", 2)
        with pytest.raises(ResourceLimitError):
            next(enumerate_systems(3, limit=1))
        assert [s.n for s in enumerate_systems(3, limit=1, force=True)] == [3]

    @pytest.mark.parametrize("n", [1, 2])
    def test_every_system_certified_and_separating(self, n):
        from statesieve import route_basis_state
        basis = standard_basis(n)
        for system in enumerate_systems(n):
            assert certify_system(system) == []
            assert separates(system, basis)
            # the sieve asks exactly n questions whichever variant is used
            outcome = route_basis_state(system, basis, 1)
            assert len(outcome.answer_bits) == n

    def test_n3_cheap_sweep(self):
        # diagonal-level invariants for all 40320 systems: traces preserved,
        # the column words distinct (that is exactly separation), and no
        # two permutations producing the same system
        std = diagonals_of(standard_system(3))
        row_sums = tuple(sum(d) for d in std)
        seen = set()
        for system in enumerate_systems(3):
            diags = diagonals_of(system)
            assert tuple(sum(d) for d in diags) == row_sums
            assert len({tuple(d[k] for d in diags) for k in range(8)}) == 8
            seen.add(diags)
        assert len(seen) == 40320


class TestAnswerCodes:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.sampled_from(BASIS_KEYS), st.data())
    def test_matches_scalar_eigenvalue_bit(self, n, key, data):
        if key != "standard":
            n = 3  # the entangled catalog bases are three-particle bases
        basis, u = named_basis(key, n)
        system = permute_system(standard_system(n), data.draw(permutations_of(2 ** n)))
        if u is not None:
            system = transformed_system(u, system)
        want = [[eigenvalue_bit(p, v) for p in system.projectors] for v in basis.vectors]
        assert answer_codes(system, basis).tolist() == want

    def test_standard_reads_down_from_n_minus_1(self):
        codes = answer_codes(standard_system(3), standard_basis(3))
        assert codes.tolist() == [[int(b) for b in f"{v:03b}"] for v in range(7, -1, -1)]

    def test_permuted_triple_preimage(self):
        system = system_from_diagonals(np.array(CERECEDA_PREIMAGE_DIAGONALS))
        assert answer_codes(system, standard_basis(3))[1].tolist() == [1, 1, 1]


class TestSeparates:
    def test_standard_separates(self):
        assert separates(standard_system(3), standard_basis(3))

    def test_single_projector_cannot_separate_four(self):
        system = PropositionSystem(2, (np.diag([1, 1, 0, 0]).astype(complex),))
        assert not separates(system, standard_basis(2))

    def test_non_eigenbasis_is_an_error_not_false(self):
        basis, _ = ghz_basis()
        with pytest.raises(EigenbasisError) as err:
            separates(standard_system(3), basis)
        assert err.value.projector_index is not None

    def test_ghz_system_separates_ghz_basis(self):
        from statesieve import transformed_system
        basis, u = ghz_basis()
        assert separates(transformed_system(u, standard_system(3)), basis)


class TestMinimality:
    def test_n1_bound(self):
        report = minimality_certificate(1)
        assert report.max_classes == 1 and report.num_states == 2
        assert report.analytic_bound_holds and report.ok
        assert report.exhaustive_scanned == 1
        assert report.exhaustive_separating_found is False

    def test_n2_exhaustive_scan(self):
        report = minimality_certificate(2)
        assert report.exhaustive_scanned == 16
        assert report.exhaustive_separating_found is False
        # independent oracle: no single 0/1 diagonal gives 4 distinct 1-bit codes
        for mask in range(16):
            codes = {(mask >> k) & 1 for k in range(4)}
            assert len(codes) < 4

    def test_size_guard_offers_no_override(self):
        # minimality_certificate takes no force
        with pytest.raises(ResourceLimitError) as err:
            minimality_certificate(11)
        assert str(err.value) == "n = 11 exceeds the guard 10"

    def test_n3_analytic_only(self):
        report = minimality_certificate(3)
        assert report.exhaustive_scanned is None
        assert report.max_classes == 4 and report.num_states == 8
        assert report.ok

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_dropping_any_projector_leaves_blocks(self, n):
        assert standard_subset_meets_nonatomic(n, standard_basis(n))
