"""Seeded trial loops: trial t draws what np.random.default_rng(seed + t) would.

The draws of many trials are made at once, as uint32/uint64 array
arithmetic that recomputes numpy's algorithms: SeedSequence hashing and
PCG64 seeding, the PCG64 XSL-RR generator, and the random, integers and
permutation draws built on it.  The reference tests compare each with
default_rng.  `sieve` imports this module on first use, so commands that
draw nothing never load it.
"""

from __future__ import annotations

import itertools
import operator
from typing import Iterator

import numpy as np

from .linalg import _whole

# numpy's SeedSequence hash constants and PCG64's 128-bit multiplier as (high, low) words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924, 4865540595714422341)
_POOL_WORDS = 4
_M32 = 0xFFFFFFFF
# seeds whose PCG64 states are computed at once: holds a stats call's traced peak near 0.5 MB
_TRIAL_CHUNK = 2048
# the largest N drawn in lanes; a batch takes about N rounds however few trials it holds,
# so numpy's loop is the faster from N = 512 at 10,000 trials, 256 at 1,000 and 32 at 100
LANE_STATS_MAX_DIM = 64
_LOW32, _S32 = np.uint64(_M32), np.uint64(32)
_ROT_SHIFT, _ROT_MASK = np.uint64(58), np.uint64(63)
# numpy's next_double: the top 53 bits of a 64-bit output times 2^-53
DOUBLE_SHIFT, DOUBLE_SCALE = np.uint64(11), 1.0 / 9007199254740992.0


def _hash_constants(value: int, mult: int) -> Iterator[tuple[np.uint32, np.uint32]]:
    """SeedSequence's running hash constant: the (xor, multiply) pair of each hash call."""
    while True:
        nxt = value * mult & _M32
        yield np.uint32(value), np.uint32(nxt)
        value = nxt


def _hashmix(words: np.ndarray, constants: Iterator[tuple[np.uint32, np.uint32]]) -> np.ndarray:
    xor, mult = next(constants)
    words = (words ^ xor) * mult
    return words ^ (words >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return out ^ (out >> np.uint32(16))


def _add128(a: tuple[np.ndarray, np.ndarray], b: tuple[np.ndarray, np.ndarray]):
    """a + b mod 2^128, for (high, low) pairs of uint64 words."""
    low = a[1] + b[1]
    return a[0] + b[0] + (low < b[1]), low


def _mul128(a: tuple[np.ndarray, np.ndarray], b: tuple[int, int]):
    """a * b mod 2^128, for a (high, low) pair of uint64 words and a constant (high, low)."""
    a0, a1 = a[1] & _LOW32, a[1] >> _S32
    b0, b1 = np.uint64(b[1] & _M32), np.uint64(b[1] >> 32)
    low, mid = a0 * b0, a1 * b0
    cross = (low >> _S32) + (mid & _LOW32) + a0 * b1
    # the high word of the 128-bit product of the low words, plus the cross terms mod 2^64
    high = a1 * b1 + (mid >> _S32) + (cross >> _S32)
    return (high + a[0] * np.uint64(b[1]) + a[1] * np.uint64(b[0]),
            (cross << _S32) | (low & _LOW32))


def pcg64_seedings(first: int, count: int) -> tuple[np.ndarray, ...]:
    """PCG64 state and inc of default_rng(s) for s = first .. first + count - 1.

    They come as four uint64 arrays: the state's high and low words, then
    the increment's.

    The seeds must share every 32-bit word but the lowest, so that their
    entropy has one word count.  SeedSequence hashes the words (least
    significant first) into a pool of four, and generate_state(4, uint64)
    hashes the pool into a 128-bit seed s and stream i; PCG64 then sets
    inc = 2i + 1 and state = (inc + s) * MULT + inc, all mod 2^128.
    """
    words = [np.arange(first & _M32, (first & _M32) + count, dtype=np.uint64).astype(np.uint32)]
    upper = first >> 32
    while upper:
        words.append(np.full(count, upper & _M32, dtype=np.uint32))
        upper >>= 32

    hashes = _hash_constants(_INIT_A, _MULT_A)
    pool = [_hashmix(words[i] if i < len(words) else np.zeros(count, np.uint32), hashes)
            for i in range(_POOL_WORDS)]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], hashes))
    for word in words[_POOL_WORDS:]:
        for dst in range(_POOL_WORDS):
            pool[dst] = _mix(pool[dst], _hashmix(word, hashes))

    hashes = _hash_constants(_INIT_B, _MULT_B)
    halves = [_hashmix(pool[i % _POOL_WORDS], hashes).astype(np.uint64) for i in range(8)]
    s_hi, s_lo, i_hi, i_lo = (halves[2 * k] | (halves[2 * k + 1] << np.uint64(32))
                              for k in range(4))
    one = np.uint64(1)
    inc = (i_hi << one) | (i_lo >> np.uint64(63)), (i_lo << one) | one
    state = _add128(_mul128(_add128(inc, (s_hi, s_lo)), _PCG_MULT), inc)
    return state[0], state[1], inc[0], inc[1]


def seed_batches(seed: int, trials: int) -> Iterator[tuple[int, int]]:
    """(first, count) batches of the trial seeds seed .. seed + trials - 1.

    A batch holds at most _TRIAL_CHUNK seeds, which differ only in their
    lowest 32-bit word.  A seed that default_rng rejects raises its error;
    a valid one never imports numpy.random.
    """
    if not (_whole(seed) and seed >= 0):
        np.random.SeedSequence(seed)  # raises default_rng's error for a bad seed
    first = operator.index(seed)
    stop = first + trials
    while first < stop:
        count = min(stop - first, _TRIAL_CHUNK, (1 << 32) - (first & _M32))
        yield first, count
        first += count


def trial_generators(seed: int, trials: int) -> Iterator[np.random.Generator]:
    """One generator per trial t, in the state of np.random.default_rng(seed + t).

    Only the seeding is computed in batches (`pcg64_seedings`); every draw
    stays numpy's own.  The same Generator is yielded each time, its state
    reset, so a trial must finish its draws before the next one starts.
    """
    rng = np.random.default_rng(0)
    bit_generator = rng.bit_generator
    for first, count in seed_batches(seed, trials):
        for state_hi, state_lo, inc_hi, inc_lo in zip(
                *(words.tolist() for words in pcg64_seedings(first, count))):
            bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state_hi << 64 | state_lo, "inc": inc_hi << 64 | inc_lo},
                "has_uint32": 0, "uinteger": 0}
            yield rng


class Lanes:
    """The PCG64 streams of default_rng(s) for one batch of seeds, stepped together.

    Lane k holds the 128-bit state and increment of seed first + k as
    (high, low) uint64 words.  A step sets state = state * MULT + inc mod
    2^128 and outputs the XSL-RR word rotr(high ^ low, high >> 58), as
    numpy's PCG64 does (O'Neill 2014).
    """

    def __init__(self, first: int, count: int):
        state_hi, state_lo, inc_hi, inc_lo = pcg64_seedings(first, count)
        self.state = state_hi, state_lo
        self.inc = inc_hi, inc_lo

    def next64(self) -> np.ndarray:
        """Step every lane and return its output, numpy's next_uint64."""
        self.state = _add128(_mul128(self.state, _PCG_MULT), self.inc)
        return _xsl_rr(*self.state)

    def keep(self, lanes: np.ndarray) -> None:
        """Drop every lane but these."""
        self.state = self.state[0][lanes], self.state[1][lanes]
        self.inc = self.inc[0][lanes], self.inc[1][lanes]


def _xsl_rr(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """PCG64's output of each state: (high ^ low) rotated right by high >> 58."""
    word, rot = hi ^ lo, hi >> _ROT_SHIFT
    return (word >> rot) | (word << (-rot & _ROT_MASK))


def walk(weights: list[np.ndarray], trials: int, seed: int) -> list[int]:
    """Detector counts of `trials` walks down the branch-weight tree: 2^size, one per leaf.

    At level i the walk at branch j says yes with probability
    weights[i + 1][2j] / weights[i][j].  Trial t draws its size uniforms, in
    order, as default_rng(seed + t).random(size) would; the trials of one seed
    batch walk together, one `Lanes` step per level.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = [below[0::2] / above for above, below in zip(weights, weights[1:])]
    counts = np.zeros(len(weights[-1]), dtype=np.int64)
    for first, count in seed_batches(seed, trials):
        lanes = Lanes(first, count)
        j = np.zeros(count, dtype=np.intp)
        for yes in ratios:
            r = (lanes.next64() >> DOUBLE_SHIFT) * DOUBLE_SCALE
            # `~(r < yes[j])` rather than `r >= yes[j]`: a NaN ratio (0/0, below a
            # zero branch) says no
            j = 2 * j + ~(r < yes[j])
        counts += np.bincount(j, minlength=counts.size)
    return counts.tolist()


def lane_question_counts(n: int, trials: int, seed: int,
                         infer_last: bool) -> tuple[int, int]:
    """Total and largest naive question count, the trials of one seed batch at once.

    Trial t draws as default_rng(seed + t) would: the target with
    integers(1, N + 1), then the question order with permutation(N).  Both
    draw uint32s, the low half of a 64-bit output and then its buffered
    high half (numpy's has_uint32).  Lemire's bounded integers
    (arXiv:1805.10941) never reject a power-of-two range, so the target is
    1 + the top n bits of the first uint32.  permutation shuffles arange(N)
    by Fisher-Yates: for i = N - 1 .. 1 it swaps positions i and j, drawing
    j from uint32s by masked rejection (numpy's random_interval).  Every
    lane takes one uint32 per round, so all lanes share one buffer parity,
    and a lane whose draw was rejected stays at its i.  Only the target's
    position is tracked.  It is final once the shuffle has passed it, and
    its lane then stops drawing.
    """
    dim = 2 ** n
    # random_interval's mask for each i: the smallest 2^k - 1 >= i
    masks = np.array([(1 << i.bit_length()) - 1 for i in range(dim)], dtype=np.uint64)
    total = worst = 0
    for first, count in seed_batches(seed, trials):
        lanes = Lanes(first, count)
        out = lanes.next64()
        # target - 1, which is also its position in arange(N) before the shuffle
        pos = (out & _LOW32) >> np.uint64(32 - n)
        i = np.full(count, dim - 1, dtype=np.uint64)
        for buffered in itertools.cycle((True, False)):
            if buffered:  # the high half of the last output
                u = out >> _S32
            else:
                out = lanes.next64()
                u = out & _LOW32
            j = u & masks[i]
            take = j <= i
            pos = np.where(take & (pos == i), j, np.where(take & (pos == j), i, pos))
            i -= take
            final = (pos > i) | (i == 0)
            if final.any():
                asked = pos[final] + np.uint64(1)
                if infer_last:
                    asked = np.minimum(asked, np.uint64(dim - 1))
                total += int(asked.sum())
                worst = max(worst, int(asked.max()))
                live = np.flatnonzero(~final)
                if not len(live):
                    break
                lanes.keep(live)
                out, pos, i = out[live], pos[live], i[live]
    return total, worst


def generator_question_counts(n: int, trials: int, seed: int,
                              infer_last: bool) -> tuple[int, int]:
    """lane_question_counts with numpy's own integers and permutation calls: the
    loop past LANE_STATS_MAX_DIM, where numpy's C shuffle runs along N."""
    dim = 2 ** n
    total = worst = 0
    for rng in trial_generators(seed, trials):
        target = int(rng.integers(1, dim + 1))
        # the naive search asks about the states in this order and stops at the target
        asked = int((rng.permutation(dim) == target - 1).argmax()) + 1
        if infer_last and asked == dim:
            asked = dim - 1
        total += asked
        worst = max(worst, asked)
    return total, worst


def question_counts(n: int, trials: int, seed: int, infer_last: bool) -> tuple[int, int]:
    """Total and largest naive question count of the trials, drawn in lanes up to
    N = LANE_STATS_MAX_DIM and by numpy past it."""
    counts = (lane_question_counts if 2 ** n <= LANE_STATS_MAX_DIM
              else generator_question_counts)
    return counts(n, trials, seed, infer_last)
