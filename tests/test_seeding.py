"""_trials.trial_generators against np.random.default_rng(seed + t), trial by trial."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from statesieve import _trials, question_count_stats, sample_detections, standard_system

# seed ranges where the entropy gains a 32-bit word: at 2^128 it outgrows
# SeedSequence's pool of four words, whose later words are mixed in another loop
WORD_BOUNDARIES = [0, 2 ** 32, 2 ** 64, 2 ** 128, 2 ** 160]


def yielded_states(seed, trials):
    return [rng.bit_generator.state for rng in _trials.trial_generators(seed, trials)]


def default_rng_states(seed, trials):
    return [np.random.default_rng(seed + t).bit_generator.state for t in range(trials)]


class TestStates:
    @settings(max_examples=40, deadline=None)
    @given(base=st.sampled_from(WORD_BOUNDARIES), offset=st.integers(-3000, 3000),
           trials=st.sampled_from([1, 1023, 1024, 1025, 2047, 2048, 2049, 3000]))
    @example(base=2 ** 32, offset=-1000, trials=3000)
    @example(base=0, offset=3, trials=2049)
    @example(base=2 ** 128, offset=-1, trials=1025)
    @example(base=2 ** 160, offset=-1024, trials=1025)
    def test_every_state_is_default_rngs(self, base, offset, trials):
        seed = max(0, base + offset)
        assert yielded_states(seed, trials) == default_rng_states(seed, trials)

    @pytest.mark.parametrize("seed", [np.int64(7), np.uint64(2 ** 40), True])
    def test_numpy_and_bool_seeds(self, seed):
        assert yielded_states(seed, 4) == default_rng_states(seed, 4)


class TestBadSeeds:
    @pytest.mark.parametrize("seed", [-1, 1.5, "3"])
    def test_errors_are_default_rngs(self, seed):
        with pytest.raises((TypeError, ValueError)) as expected:
            np.random.default_rng(seed)
        calls = [lambda: list(_trials.trial_generators(seed, 3)),
                 lambda: question_count_stats(2, 3, seed),
                 lambda: sample_detections(standard_system(2), np.eye(4)[0], 3, seed)]
        for call in calls:
            with pytest.raises(expected.type) as got:
                call()
            assert str(got.value) == str(expected.value)
