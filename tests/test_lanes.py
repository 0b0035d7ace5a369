"""The lane kernel of statesieve._trials against numpy: PCG64 outputs, Lemire targets and
Fisher-Yates shuffles recomputed for a batch of seeds at once."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from statesieve import _trials, question_count_stats, standard_system
from test_seeding import WORD_BOUNDARIES
from test_trial_loops import CHUNK_CROSSING_SEEDS, reference_stats, reference_walk

GOLDEN = Path(__file__).parent / "golden"
LANE_MAX_N = _trials.LANE_STATS_MAX_DIM.bit_length() - 1


def lane_outputs(seed, trials, draws):
    """The first `draws` 64-bit outputs of each trial's stream, stepped in lanes."""
    rows = []
    for first, count in _trials.seed_batches(seed, trials):
        lanes = _trials.Lanes(first, count)
        rows.extend(np.stack([lanes.next64() for _ in range(draws)], axis=1).tolist())
    return rows


class TestOutputs:
    @settings(max_examples=30, deadline=None)
    @given(base=st.sampled_from(WORD_BOUNDARIES), offset=st.integers(-3000, 3000),
           trials=st.sampled_from([1, 1024, 1025, 2047, 2048, 2049, 2100]),
           draws=st.integers(1, 5))
    @example(base=2 ** 32, offset=-1000, trials=2100, draws=3)
    @example(base=0, offset=3, trials=2049, draws=2)
    @example(base=2 ** 128, offset=-1, trials=1025, draws=2)
    def test_every_output_is_default_rngs(self, base, offset, trials, draws):
        seed = max(0, base + offset)
        expected = [np.random.default_rng(seed + t).bit_generator.random_raw(draws).tolist()
                    for t in range(trials)]
        assert lane_outputs(seed, trials, draws) == expected

    def test_uniforms_are_numpys_doubles(self):
        outputs = np.array(lane_outputs(11, 50, 4), dtype=np.uint64)
        uniforms = (outputs >> _trials.DOUBLE_SHIFT) * _trials.DOUBLE_SCALE
        expected = np.array([np.random.default_rng(11 + t).random(4) for t in range(50)])
        assert uniforms.tobytes() == expected.tobytes()


class TestLaneStats:
    @pytest.mark.parametrize("n", [LANE_MAX_N, LANE_MAX_N + 1])
    @pytest.mark.parametrize("seed", CHUNK_CROSSING_SEEDS)
    @pytest.mark.parametrize("infer_last", [False, True])
    def test_at_and_past_the_crossover(self, n, seed, infer_last):
        naive = question_count_stats(n, 2100, seed, infer_last=infer_last).naive
        assert (naive.mean, naive.max) == reference_stats(n, 2100, seed, infer_last)

    def test_the_crossover_picks_the_loop(self, monkeypatch):
        calls = []
        for name in ("lane_question_counts", "generator_question_counts"):
            count = getattr(_trials, name)
            monkeypatch.setattr(_trials, name,
                                lambda *args, _name=name, _count=count:
                                calls.append(_name) or _count(*args))
        question_count_stats(LANE_MAX_N, 3, 0)
        question_count_stats(LANE_MAX_N + 1, 3, 0)
        assert calls == ["lane_question_counts", "generator_question_counts"]


class TestLaneWalk:
    @pytest.mark.parametrize("seed", CHUNK_CROSSING_SEEDS)
    def test_zero_branches_equal_the_reference_walk(self, seed):
        # amplitude only on states 1, 2 and 6 of 16: most branches weigh exactly 0,
        # and every ratio below one is 0/0 = NaN
        state = np.zeros(16, dtype=complex)
        state[[0, 1, 5]] = [0.6, 0.48j, 0.64]
        weights = standard_system(4)._branch_weights(state)
        assert any((level == 0).any() for level in weights)
        expected = reference_walk(weights, 2100, seed)
        assert _trials.walk(weights, 2100, seed) == expected
        assert sum(expected[k] for k in (0, 1, 5)) == 2100


def modules_after(argv):
    """Which of numpy.random and statesieve._trials cli.main(argv) leaves imported,
    and whether `import numpy` alone imported numpy.random."""
    script = (
        "import contextlib, io, json, sys\n"
        "import numpy\n"
        "before = 'numpy.random' in sys.modules\n"
        "from statesieve.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        "print(json.dumps([code, before, 'numpy.random' in sys.modules,\n"
        "                  'statesieve._trials' in sys.modules]))\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True)
    return json.loads(out.stdout)


@pytest.mark.parametrize("argv", [
    ["stats", "--n", "3", "--trials", "2000"],
    ["simulate", "--n", "2", "--state", str(GOLDEN / "state.json"), "--sample", "100"]])
def test_a_valid_seed_imports_no_numpy_random(argv):
    code, by_numpy, after, trials_loaded = modules_after(argv)
    assert code == 0 and trials_loaded
    if by_numpy:
        pytest.skip("this numpy imports numpy.random itself")
    assert not after


def test_commands_that_draw_nothing_do_not_load_the_trial_loops():
    code, _, _, trials_loaded = modules_after(["verify", "--n", "3"])
    assert code == 0 and not trials_loaded
