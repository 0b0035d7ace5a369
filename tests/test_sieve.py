import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statesieve import (EigenbasisError, PropositionSystem, ResourceLimitError,
                        detector_for_bits, ghz_basis, measure_state,
                        naive_search, question_count_stats, route_basis_state,
                        sample_detections, standard_basis, standard_system,
                        transformed_system)
from statesieve import _trials, systems


class TestDetectorIndexing:
    def test_all_yes_hits_the_first_detector(self):
        assert detector_for_bits((1, 1, 1)) == 1

    def test_all_no_hits_the_last(self):
        assert detector_for_bits((0, 0, 0)) == 8

    def test_mixed_word(self):
        # 101 as a binary number is 5, so the detector is 8 - 5 = 3
        assert detector_for_bits((1, 0, 1)) == 3

    def test_bools_and_numpy_integers_count_as_bits(self):
        assert detector_for_bits((True, False, np.int64(1), np.bool_(False))) == 16 - 10

    @pytest.mark.parametrize("bit", [2, -1, 0.5, "1", None])
    def test_an_entry_other_than_0_or_1_is_refused_naming_it(self, bit):
        # [2] used to give detector 0, which does not exist, and [-1] detector 3
        with pytest.raises(ValueError) as refused:
            detector_for_bits([1, bit])
        assert str(refused.value) == f"answer bits must be 0 or 1, got {bit!r}"


class TestRouting:
    def test_first_and_last_states(self):
        system, basis = standard_system(3), standard_basis(3)
        first = route_basis_state(system, basis, 1)
        assert first.answer_bits == (1, 1, 1) and first.detector_index == 1
        last = route_basis_state(system, basis, 8)
        assert last.answer_bits == (0, 0, 0) and last.detector_index == 8

    def test_third_state(self):
        # diagonal entries at position 3 read (1, 0, 1), so detector 3
        out = route_basis_state(standard_system(3), standard_basis(3), 3)
        assert out.answer_bits == (1, 0, 1) and out.detector_index == 3

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_state_k_reaches_detector_k(self, n):
        system, basis = standard_system(n), standard_basis(n)
        for k in range(1, 2 ** n + 1):
            assert route_basis_state(system, basis, k).detector_index == k

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="index"):
            route_basis_state(standard_system(2), standard_basis(2), 5)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            route_basis_state(standard_system(2), standard_basis(3), 1)

    def test_entangled_state_is_not_routable_by_the_plain_system(self):
        basis, _ = ghz_basis()
        with pytest.raises(EigenbasisError):
            route_basis_state(standard_system(3), basis, 1)


class TestMeasure:
    def test_point_mass_on_eigenstate(self):
        dist = measure_state(standard_system(3), np.eye(8)[0])
        assert dist.probabilities[0] == pytest.approx(1.0, abs=1e-12)
        assert dist.point_mass() == 1

    def test_two_state_superposition(self):
        v = (np.eye(8)[0] + np.eye(8)[1]) / np.sqrt(2)
        dist = measure_state(standard_system(3), v)
        assert dist.probabilities[0] == pytest.approx(0.5, abs=1e-12)
        assert dist.probabilities[1] == pytest.approx(0.5, abs=1e-12)
        assert sum(dist.probabilities[2:]) < 1e-12

    def test_entangled_pair_state_splits_between_end_detectors(self):
        basis, _ = ghz_basis()
        dist = measure_state(standard_system(3), basis.vectors[0])
        assert dist.probabilities[0] == pytest.approx(0.5, abs=1e-12)
        assert dist.probabilities[7] == pytest.approx(0.5, abs=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            measure_state(standard_system(2), np.ones(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
    def test_rejects_non_finite_amplitudes(self, bad):
        state = np.array([bad, 0, 0, 0], dtype=complex)
        with pytest.raises(ValueError, match="non-finite"):
            measure_state(standard_system(2), state)
        with pytest.raises(ValueError, match="non-finite"):
            sample_detections(standard_system(2), state, 10, seed=0)

    def test_agrees_with_routing_on_every_eigenvector(self):
        basis, u = ghz_basis()
        system = transformed_system(u, standard_system(3))
        for k in range(1, 9):
            outcome = route_basis_state(system, basis, k)
            dist = measure_state(system, basis.vectors[k - 1])
            assert dist.point_mass() == outcome.detector_index

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_probabilities_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        v /= np.linalg.norm(v)
        dist = measure_state(standard_system(3), v)
        assert sum(dist.probabilities) == pytest.approx(1.0, abs=1e-10)
        assert all(p >= -1e-12 for p in dist.probabilities)

    @given(perm=st.permutations([0, 1, 2]), seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_projector_order_never_matters(self, perm, seed):
        system = standard_system(3)
        reordered = PropositionSystem(3, tuple(system.projectors[i] for i in perm))
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        v /= np.linalg.norm(v)
        base = measure_state(system, v)
        # the answer word follows the new order, but the detector weights
        # are a relabeling: compare as multisets over the same projectors
        got = measure_state(reordered, v)
        assert sorted(base.probabilities) == pytest.approx(sorted(got.probabilities))
        # and detector-by-detector after undoing the relabeling
        for code in range(8):
            bits = [(7 - code) >> (2 - i) & 1 for i in range(3)]
            permuted_bits = tuple(bits[perm[i]] for i in range(3))
            k_base = detector_for_bits(tuple(bits))
            k_got = detector_for_bits(permuted_bits)
            assert base.probabilities[k_base - 1] == \
                pytest.approx(got.probabilities[k_got - 1], abs=1e-10)


class TestSampling:
    def test_seeded_counts_are_frozen(self):
        basis, _ = ghz_basis()
        counts = sample_detections(standard_system(3), basis.vectors[0], 200, seed=5)
        assert counts == [82, 0, 0, 0, 0, 0, 0, 118]

    def test_reproducible(self):
        basis, _ = ghz_basis()
        a = sample_detections(standard_system(3), basis.vectors[0], 50, seed=1)
        b = sample_detections(standard_system(3), basis.vectors[0], 50, seed=1)
        assert a == b

    def test_trials_guard(self):
        with pytest.raises(ValueError, match="trials"):
            sample_detections(standard_system(2), np.eye(4)[0], 0, seed=0)

    @pytest.mark.parametrize("seed", [0, 5, 99])
    @pytest.mark.parametrize("dense", [False, True])
    def test_counts_equal_a_per_trial_projector_walk(self, seed, dense):
        # The reference collapses the state through every projector on every
        # trial; the tree walk must reproduce its counts exactly.
        system = standard_system(4)
        if dense:
            system = PropositionSystem(4, system.projectors)
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        v /= np.linalg.norm(v)
        expected = [0] * 16
        for t in range(300):
            trial_rng = np.random.default_rng(seed + t)
            w, bits = v, []
            for p in system.projectors:
                yes = p @ w
                p_yes = float(np.real(np.vdot(yes, yes)) / np.real(np.vdot(w, w)))
                bits.append(int(trial_rng.random() < p_yes))
                w = yes if bits[-1] else w - yes
            expected[detector_for_bits(bits) - 1] += 1
        assert sample_detections(system, v, 300, seed) == expected


class TestNaiveSearch:
    def test_first_guess_correct(self):
        assert naive_search(3, 1, range(1, 9)).questions_asked == 1

    def test_worst_case_uses_all_questions(self):
        assert naive_search(3, 8, range(1, 9)).questions_asked == 8

    def test_order_is_respected(self):
        assert naive_search(3, 8, [8, 1, 2, 3, 4, 5, 6, 7]).questions_asked == 1

    def test_forced_final_question_can_be_inferred(self):
        record = naive_search(3, 8, range(1, 9), infer_last=True)
        assert record.questions_asked == 7

    def test_strategy_tagged(self):
        assert naive_search(1, 1, [1, 2]).strategy == "naive"

    def test_bad_target(self):
        with pytest.raises(ValueError, match="target_index"):
            naive_search(2, 5, range(1, 5))

    def test_bad_order(self):
        with pytest.raises(ValueError, match="permutation"):
            naive_search(2, 1, [1, 1, 2, 3])

    def test_order_length_is_checked_before_anything_of_size_2_to_the_n(self):
        with pytest.raises(ValueError, match="permutation of 1..2\\^n"):
            naive_search(62, 1, [1])
        with pytest.raises(ValueError, match="target_index must be in 1..4611686018427387904"):
            naive_search(62, 2 ** 62 + 1, [1])

    @pytest.mark.parametrize("n, message", [(0, "n must be positive, got 0"),
                                            (-1, "n must be positive, got -1"),
                                            (63, "n = 63 is too large")])
    def test_n_must_be_in_1_to_62(self, n, message):
        with pytest.raises(ValueError, match=message):
            naive_search(n, 1, [1])


class TestQuestionCountStats:
    def test_sieve_is_always_n(self):
        summary = question_count_stats(3, trials=50, seed=9)
        assert summary.sieve.mean == 3.0 and summary.sieve.max == 3

    def test_exhaustive_small_case_mean(self):
        # all four targets against the fixed order 1..4: counts 1, 2, 3, 4
        counts = [naive_search(2, t, range(1, 5)).questions_asked
                  for t in range(1, 5)]
        assert counts == [1, 2, 3, 4]
        assert sum(counts) / 4 == 2.5

    def test_sampled_mean_near_the_exact_expectation(self):
        # uniform target in a uniform order sits at position (N+1)/2 = 4.5
        summary = question_count_stats(3, trials=4000, seed=3)
        assert abs(summary.naive.mean - 4.5) < 0.2

    def test_reproducible_and_seed_recorded(self):
        a = question_count_stats(2, trials=500, seed=11)
        b = question_count_stats(2, trials=500, seed=11)
        assert a.naive.mean == b.naive.mean
        assert a.naive.seed == 11 and a.sieve.seed == 11
        assert a.naive.trials == 500

    def test_resource_guard(self):
        with pytest.raises(ResourceLimitError):
            question_count_stats(11, trials=1, seed=0)
        assert question_count_stats(11, trials=1, seed=0, force=True).sieve.mean == 11.0

    def test_force_stops_at_the_structured_ceiling(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("trials drawn")

        monkeypatch.setattr(systems, "STRUCTURED_MAX_N", 10)
        monkeypatch.setattr(_trials, "question_counts", refuse)
        with pytest.raises(ValueError, match="n = 11 exceeds STRUCTURED_MAX_N = 10") as err:
            question_count_stats(11, trials=1, seed=0, force=True)
        assert not isinstance(err.value, ResourceLimitError)

    def test_trials_guard(self):
        with pytest.raises(ValueError, match="trials"):
            question_count_stats(2, trials=0, seed=0)
