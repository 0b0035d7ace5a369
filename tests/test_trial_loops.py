"""The seeded trial loops against reference loops and recorded digests, the
closed-form enumeration count, and the work each command does once."""

import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import statesieve._trials as _trials
import statesieve.sieve as sieve
import statesieve.systems as systems
from cascade_cases import cases, digest
from conftest import every_branch_weights
from statesieve import (PropositionSystem, ResourceLimitError, answer_codes, count_systems,
                        enumerate_systems, ghz_basis, jsonio, measure_and_sample,
                        measure_state, naive_search, permute_system, question_count_stats,
                        sample_detections, standard_system, transformed_system)
from statesieve.cli import main
from statesieve.linalg import EigenbasisError, eigenvalue_bits

GOLDEN = Path(__file__).parent / "golden"


def reference_stats(n, trials, seed, infer_last):
    """question_count_stats as a loop of naive_search calls, one per trial."""
    dim = 2 ** n
    asked = []
    for t in range(trials):
        rng = np.random.default_rng(seed + t)
        target = int(rng.integers(1, dim + 1))
        order = rng.permutation(dim) + 1
        asked.append(naive_search(n, target, order.tolist(), infer_last).questions_asked)
    return sum(asked) / trials, max(asked)


def reference_walk(weights, trials, seed):
    """_trials.walk with a fresh np.random.default_rng(seed + t) per trial."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = [(below[0::2] / above).tolist() for above, below in zip(weights, weights[1:])]
    counts = [0] * len(weights[-1])
    for t in range(trials):
        j = 0
        for r, yes in zip(np.random.default_rng(seed + t).random(len(ratios)).tolist(), ratios):
            j = 2 * j + (not r < yes[j])
        counts[j] += 1
    return counts


@st.composite
def diagonal_cases(draw):
    """(diagonal system, state, whether its rows separate): n = 1-6 and 0 to n + 2
    0/1 rows, either random or a permuted standard system with up to two random rows
    among its own; a random complex, real, sparse or tiny-perturbed basis state."""
    n = draw(st.integers(1, 6))
    dim = 2 ** n
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    if draw(st.booleans()):
        extra = rng.integers(0, 2, (draw(st.integers(0, 2)), dim))
        rows = np.vstack([systems.standard_diagonals(n)[:, rng.permutation(dim)], extra])
        rows = rows[rng.permutation(len(rows))]
    else:
        rows = rng.integers(0, 2, (draw(st.integers(0, n + 2)), dim))
    system = systems.system_from_diagonals(rows)
    kind = draw(st.sampled_from(["complex", "real", "sparse", "tiny"]))
    state = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    if kind == "real":
        state = state.real
    elif kind == "sparse":
        state[rng.random(dim) < 0.75] = 0
    if kind == "tiny":  # squares near 1e-340 underflow to 0.0
        state = np.eye(dim)[rng.integers(dim)] + 1e-170 * state
    elif state.any():
        state /= np.linalg.norm(state)
    return system, sieve._as_state(system, state), systems._distinct_rows(rows.T)


# past one chunk of seeds, and from a 1-word to a 2-word seed
CHUNK_CROSSING_SEEDS = [3, 2 ** 32 - 1000]


def breadth_first_weights(system, state):
    """The branch-weight tree level by level, holding every vector of a level."""
    branches = {0: state}
    weights = [np.array([np.real(np.vdot(state, state))])]
    for i in range(system.size):
        level = np.zeros(2 * len(weights[-1]))
        nxt = {}
        for j, v in branches.items():
            yes = system.apply(i, v)
            for k, b in ((2 * j, yes), (2 * j + 1, v - yes)):
                level[k] = np.real(np.vdot(b, b))
                if i + 1 < system.size and (level[k] or b.any()):
                    nxt[k] = b
        branches = nxt
        weights.append(level)
    return weights


class TestQuestionCounts:
    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    @pytest.mark.parametrize("seed", [0, 7, 123])
    @pytest.mark.parametrize("infer_last", [False, True])
    def test_equals_the_naive_search_loop(self, n, seed, infer_last):
        naive = question_count_stats(n, 300, seed, infer_last=infer_last).naive
        assert (naive.mean, naive.max) == reference_stats(n, 300, seed, infer_last)

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("seed", CHUNK_CROSSING_SEEDS)
    def test_equals_the_naive_search_loop_across_seed_chunks(self, n, seed):
        naive = question_count_stats(n, 2100, seed).naive
        assert (naive.mean, naive.max) == reference_stats(n, 2100, seed, False)

    def test_memory_stays_within_one_chunk_of_seeds(self):
        question_count_stats(3, 1, 5)  # numpy's one-time allocations are not the loop's
        tracemalloc.start()
        try:
            question_count_stats(3, 50000, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6  # the states of all 50000 seeds at once peak near 18 MB

    @pytest.mark.parametrize("n", [1, 3, 10, 16])
    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_one_draw_of_n_uniforms_equals_n_draws(self, n, seed):
        one = np.random.default_rng(seed).random(n)
        rng = np.random.default_rng(seed)
        assert one.tobytes() == np.array([rng.random() for _ in range(n)]).tobytes()


class TestCascade:
    def test_counts_and_probabilities_match_the_recorded_digests(self):
        recorded = json.loads((GOLDEN / "cascade_digests.json").read_text())
        got = {name: digest(system, state) for name, system, state in cases()}
        assert got.keys() == recorded.keys()
        assert [name for name in got if got[name] != recorded[name]] == []

    @pytest.mark.parametrize("seed", CHUNK_CROSSING_SEEDS)
    @pytest.mark.parametrize("permuted", [False, True])
    def test_counts_equal_the_reference_walk_across_seed_chunks(self, seed, permuted):
        rng = np.random.default_rng(6)
        system = standard_system(6)
        if permuted:
            system = permute_system(system, rng.permutation(64))
        state = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        state /= np.linalg.norm(state)
        expected = reference_walk(system._branch_weights(state), 2100, seed)
        assert sample_detections(system, state, 2100, seed) == expected

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("dense", [False, True])
    def test_every_read_has_one_detector_per_answer_word(self, n, dense):
        # k propositions end in 2^k detectors, whether k is below, at or above n;
        # at n = 2 the four stacked rows broke the walk's counts
        rows = np.vstack([systems.standard_diagonals(n)] * 2)
        rng = np.random.default_rng(n)
        state = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
        state /= np.linalg.norm(state)
        for k in (0, 1, n - 1, n, n + 2):
            system = systems.system_from_diagonals(rows[:k])
            if dense:
                system = PropositionSystem(n, system.projectors)
            assert system.size == k
            probabilities = measure_state(system, state).probabilities
            counts = sample_detections(system, state, 300, 11)
            dist, both = measure_and_sample(system, state, 300, 11)
            assert len(probabilities) == len(counts) == 2 ** k, k
            assert len(dist.probabilities) == len(both) == 2 ** k, k
            assert sum(counts) == 300, k
            assert counts == both == reference_walk(system._branch_weights(state),
                                                    300, 11), k

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_zero_state_sends_every_trial_to_the_last_detector(self, n):
        dim = 2 ** n
        permuted = permute_system(standard_system(n), np.random.default_rng(n).permutation(dim))
        for system in (standard_system(n), permuted, PropositionSystem(n, permuted.projectors)):
            assert sample_detections(system, np.zeros(dim), 40, 5) == [0] * (dim - 1) + [40]

    @pytest.mark.parametrize("permuted", [False, True])
    def test_depth_first_tree_holds_one_path_of_vectors(self, permuted):
        rng = np.random.default_rng(10)
        system = standard_system(10)
        if permuted:
            system = permute_system(system, rng.permutation(1024))
        state = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        state /= np.linalg.norm(state)
        tracemalloc.start()
        try:  # the dense form's tree over the diagonal form's O(N) apply: no N x N matrix
            weights = PropositionSystem._branch_weights(system, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6  # a whole level of the tree is 512 vectors, 8 MB
        reference = breadth_first_weights(system, state)
        assert [w.tobytes() for w in weights] == [w.tobytes() for w in reference]

    def test_tiny_amplitudes_give_the_weights_of_every_branch(self):
        # amplitudes near 1e-170 square to 0.0: the walk leaves their branches, and
        # every branch below one weighs 0.0 when walked as well
        basis, unitary = ghz_basis()
        found = [(transformed_system(unitary, standard_system(3)), basis.vectors)]
        for n in (1, 3, 6):
            dim, rng = 2 ** n, np.random.default_rng(n)
            permuted = permute_system(standard_system(n), rng.permutation(dim))
            found += [(system, np.eye(dim)) for system in
                      (standard_system(n), permuted, PropositionSystem(n, permuted.projectors))]
        rng = np.random.default_rng(170)
        for system, eigenstates in found:
            for eigenstate in eigenstates[[0, -1]]:
                tiny = rng.standard_normal(system.dim) + 1j * rng.standard_normal(system.dim)
                state = eigenstate + 1e-170 * tiny
                reference = every_branch_weights(system, state)
                weights = system._branch_weights(state)
                assert [w.tobytes() for w in weights] == [w.tobytes() for w in reference]
                assert measure_state(system, state).probabilities == tuple(
                    reference[-1].tolist())

    def test_a_branch_of_weight_zero_has_a_subtree_of_zeros(self):
        # the last four amplitudes square to 0.0 one by one, but projecting them onto
        # u = (cos t, sin t / sqrt3 (x3)) with t = pi / 6 gathers 1.5 times one into
        # one entry, whose square is the subnormal 5e-324: the tree reads it as 0.0
        u = np.array([np.sqrt(3) / 2, 0.5 / np.sqrt(3), 0.5 / np.sqrt(3), 0.5 / np.sqrt(3)])
        second = np.zeros((8, 8))
        second[:4, :4] = np.diag([1.0, 1.0, 0.0, 0.0])
        second[4:, 4:] = np.outer(u, u)
        system = PropositionSystem(3, [np.diag([1.0] * 4 + [0.0] * 4), second,
                                       np.diag([1.0, 0.0] * 4)])
        state = np.array([1.0, 0, 0, 0] + [1.55e-162] * 4, dtype=complex)
        reference = every_branch_weights(system, state)
        assert reference[1][1] == 0.0 and reference[2][2] == 5e-324
        weights = system._branch_weights(state)
        assert [w.tolist() for w in weights[1:]] == [[1.0, 0.0], [1.0, 0.0, 0.0, 0.0],
                                                     [1.0] + [0.0] * 7]

    def test_measure_and_sample_equals_the_two_calls(self):
        for name, system, state in cases():
            if system.n <= 8:
                dist, counts = measure_and_sample(system, state, 100, 3)
                assert dist == measure_state(system, state), name
                assert counts == sample_detections(system, state, 100, 3), name

    def test_measure_and_sample_checks_in_the_order_of_the_two_calls(self):
        system = standard_system(2)
        with pytest.raises(ValueError, match="normalized"):
            measure_and_sample(system, np.ones(4), 0, 1)
        with pytest.raises(ValueError, match="trials"):
            measure_and_sample(system, np.eye(4)[0], 0, 1)

    def test_an_eigenstate_applies_projectors_only_along_its_path(self, monkeypatch):
        # the dense twin of the standard system: only a dense form walks the tree
        applied, system = [], PropositionSystem(8, standard_system(8).projectors)
        apply = type(system).apply  # the method of the system's stored form
        monkeypatch.setattr(type(system), "apply",
                            lambda self, i, v: applied.append(i) or apply(self, i, v))
        measure_state(system, np.eye(256)[37])
        assert applied == list(range(8))

    def test_simulate_state_with_samples_applies_no_projector(self, monkeypatch, capsys):
        # the diagonal form reads its cascade from code prefixes, never through apply
        applied = []
        for form in (PropositionSystem, systems.DiagonalSystem):
            monkeypatch.setattr(form, "apply", lambda self, i, v: applied.append(i))
        state = GOLDEN / "state.json"
        assert main(["simulate", "--n", "2", "--state", str(state),
                     "--sample", "1000", "--seed", "7"]) == 0
        assert capsys.readouterr().out == (GOLDEN / "simulate_state.out").read_text()
        assert applied == []

    @settings(max_examples=300, deadline=None)
    @given(diagonal_cases(), st.integers(0, 2 ** 40))
    def test_the_diagonal_form_reads_the_trees_weights(self, case, seed):
        system, state, separating = case
        weights = system._branch_weights(state)
        tree = PropositionSystem._branch_weights(system, state)
        assert [w.shape for w in weights] == [w.shape for w in tree]
        assert weights[0].tobytes() == tree[0].tobytes()
        if separating:  # each leaf holds one position's |amplitude|^2
            assert weights[-1].tobytes() == tree[-1].tobytes()
        # otherwise each weight is a sum of at most N of the same squares, summed in
        # index order here and in BLAS's order there: N rounding steps of at most
        # eps/2 of the root each, on either side
        bound = system.dim * np.finfo(float).eps * weights[0][0]
        for level, reference in zip(weights, tree):
            assert np.abs(level - reference).max() <= bound
        # below the root, a branch sums a subset of its parent's squares in the same order
        for above, below in zip(weights[1:], weights[2:]):
            assert (below.reshape(-1, 2) <= above[:, np.newaxis]).all()
        # the root is BLAS's sum, so a first-level branch may pass it by rounding alone
        for first in weights[1:2]:
            assert (first <= weights[0][0] + bound).all()
        assert _trials.walk(weights, 200, seed) == _trials.walk(tree, 200, seed)

    def test_the_diagonal_form_measures_and_samples_without_apply(self, monkeypatch):
        def refuse(self, i, v):
            raise AssertionError("projector applied")

        monkeypatch.setattr(systems.DiagonalSystem, "apply", refuse)
        for name, system, state in cases():
            if isinstance(system, systems.DiagonalSystem):
                assert len(measure_state(system, state).probabilities) == system.dim, name
                assert sum(sample_detections(system, state, 50, 1)) == 50, name


class TestBranchSumFloor:
    def test_exact_state_at_tol_zero(self, capsys):
        state = GOLDEN / "state.json"
        assert main(["simulate", "--n", "2", "--state", str(state), "--tol", "0"]) == 0
        assert json.loads(capsys.readouterr().out) == {"detectors": [0.25, 0.25, 0.25, 0.25]}

    def test_default_n_does_not_fit_the_state_file(self, capsys):
        code = main(["simulate", "--state", str(GOLDEN / "state.json"), "--tol", "0"])
        assert code == 3
        assert "dimension mismatch: state 4, system 8" in capsys.readouterr().err

    def test_the_floor_absorbs_rounding_of_the_branch_sum(self, capsys, monkeypatch, tmp_path):
        # a state of norm exactly 1.0 whose eight branch weights sum to 1 + 2^-52
        rng = np.random.default_rng(3)
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        v /= np.linalg.norm(v)
        assert np.linalg.norm(v) == 1.0
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"rows": 8, "cols": 1,
                                    "data": [[z.real, z.imag] for z in v.tolist()]}))
        argv = ["simulate", "--n", "3", "--state", str(path), "--tol", "0"]
        assert main(argv) == 0
        capsys.readouterr()
        monkeypatch.setattr(sieve, "BRANCH_SUM_FLOOR", 0.0)
        assert main(argv) == 3
        assert "system is not certified" in capsys.readouterr().err

    def test_a_branch_sum_off_by_1e_7_is_refused_at_the_default_tol(self):
        # the state is exactly normalized, so the branch sum alone is tested: it is
        # 1 - 1e-7, which the floor, sized for rounding only, does not absorb
        with pytest.raises(ValueError, match="system is not certified"):
            measure_state(PropositionSystem(1, [np.diag([1, 1e-7])]), np.array([1, 1]) / np.sqrt(2))

    def test_the_refused_branch_sum_is_printed_in_full(self):
        system, state = PropositionSystem(1, [np.diag([1, 1e-7])]), np.array([1, 1]) / np.sqrt(2)
        total = float(system._branch_weights(sieve._as_state(system, state))[-1].sum())
        with pytest.raises(ValueError) as refused:
            measure_state(system, state)
        printed = re.fullmatch(r"branch weights sum to (\S+); system is not certified",
                               str(refused.value))
        assert float(printed.group(1)) == total != 1.0

    def test_the_refused_norm_is_printed_in_full(self, capsys, tmp_path):
        v = np.array([math.sqrt(1 + 1e-7), 0, 0, 0])
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"rows": 4, "cols": 1, "data": [[x, 0.0] for x in v.tolist()]}))
        assert main(["simulate", "--n", "2", "--state", str(path)]) == 3
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        printed = re.fullmatch(r"state is not normalized \(norm (\S+)\)", message)
        assert float(printed.group(1)) == float(np.linalg.norm(v)) != 1.0


LIMITS = [None, 0, 1, 5, 24, 25, 40320, 40321]


class TestCountSystems:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("limit", LIMITS)
    def test_equals_the_generator(self, n, limit):
        assert count_systems(n, limit) == sum(1 for _ in enumerate_systems(n, limit))

    @pytest.mark.parametrize("n, limit, force", [(0, None, False), (63, 1, True),
                                                 (11, 5, False), (4, None, False)])
    def test_guards_match_the_generator(self, n, limit, force):
        with pytest.raises(ValueError) as generator:
            next(enumerate_systems(n, limit, force))
        with pytest.raises(ValueError) as counter:
            count_systems(n, limit, force)
        assert type(counter.value) is type(generator.value)
        assert str(counter.value) == str(generator.value)

    @pytest.mark.parametrize("limit", [-1, -10 ** 30, True, False, 2.5, "3"])
    def test_refuses_a_limit_that_is_not_a_count(self, limit):
        with pytest.raises(ValueError, match="limit must be None or an integer >= 0") as generator:
            next(enumerate_systems(3, limit))
        with pytest.raises(ValueError) as counter:
            count_systems(3, limit)
        assert str(counter.value) == str(generator.value)

    @pytest.mark.parametrize("limit", [0, 5, np.int64(5), np.uint8(200), 10 ** 30])
    def test_counts_are_python_ints(self, limit):
        count = count_systems(3, limit)
        assert type(count) is int and count == min(int(limit), math.factorial(8))

    def test_builds_no_system(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a system was built")

        monkeypatch.setattr(systems, "standard_diagonals", refuse)
        monkeypatch.setattr(systems, "system_from_diagonals", refuse)
        assert count_systems(62, limit=1, force=True) == 1
        assert count_systems(62, limit=10 ** 30, force=True) == 10 ** 30
        assert count_systems(4, force=True) == math.factorial(16)

    def test_all_systems_past_the_guard_need_a_limit(self):
        assert count_systems(10, force=True) == math.factorial(1024)
        with pytest.raises(ValueError, match="needs a limit") as e:
            count_systems(11, force=True)
        assert not isinstance(e.value, ResourceLimitError)

    def test_cli_prints_the_limit_at_n_62(self, capsys):
        assert main(["enumerate", "--n", "62", "--force", "--limit", "1", "--count-only"]) == 0
        assert json.loads(capsys.readouterr().out) == {"n": 62, "count": 1}

    def test_cli_refuses_the_unlimited_count_past_the_guard(self, capsys):
        assert main(["enumerate", "--n", "11", "--force", "--count-only"]) == 3
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == {"type": "ValueError",
                         "message": "n = 11: counting all 2048! systems needs a limit"}


class TestDoneOnce:
    @pytest.mark.parametrize("argv, golden", [
        (["verify", "--n", "3", "--basis", "ghz"], "verify_ghz.out"),
        (["verify", "--file", str(GOLDEN / "parity_n3.json")], "verify_parity_n3.out")])
    def test_verify_scans_the_commutators_once(self, monkeypatch, capsys, argv, golden):
        calls = []
        norm = systems.commutator_norm
        monkeypatch.setattr(systems, "commutator_norm",
                            lambda a, b: calls.append(1) or norm(a, b))
        main(argv)
        assert capsys.readouterr().out == (GOLDEN / golden).read_text()
        assert len(calls) == 3  # the three pairs of three projectors

    def test_verify_reports_noncommuting_pairs_in_both_places(self, capsys, tmp_path):
        # the off-diagonal 1e-6 leaves every Rayleigh quotient of the standard basis at 0 or 1
        first = np.diag([1.0, 1.0, 0.0, 0.0])
        first[0, 1] = first[1, 0] = 1e-6
        system = PropositionSystem(2, [first, np.diag([1.0, 0.0, 1.0, 0.0])])
        path = tmp_path / "noncommuting.json"
        path.write_text(json.dumps(jsonio.system_to_json(system)))
        assert main(["verify", "--file", str(path)]) == 1
        assert json.loads(capsys.readouterr().out)["failures"] == [
            "projector 1 is not a projector within 1e-10",
            "projectors 1 and 2 do not commute (norm 9.9999999999999995e-07)",
            "(i) projectors 1,2 do not commute (norm 9.9999999999999995e-07)"]

    def test_diagonal_codes_raise_the_per_projector_error(self):
        basis, _ = ghz_basis()
        system = standard_system(3)
        with pytest.raises(EigenbasisError) as reference:
            for i in range(3):
                eigenvalue_bits(system.diagonals[i], basis.vectors, projector_index=i + 1)
        with pytest.raises(EigenbasisError) as got:
            answer_codes(system, basis)
        assert str(got.value) == str(reference.value) == (
            "vector is not a 0/1 eigenvector: "
            "Rayleigh quotient 0.49999999999999989 (projector 1, vector 1)")
