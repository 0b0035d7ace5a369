"""Measurement cascade: route eigenstates to detectors, Born-rule distributions,
and question-count benchmarks for the naive per-state strategy.

Detector indexing follows the strictly-decreasing code convention: the
all-ones answer word hits detector 1 and the all-zeros word detector N,
so with the standard system basis state k always fires detector k.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from .linalg import DEFAULT_TOL, as_vector, eigenvalue_bit
from .systems import PropositionSystem, _check_n

if TYPE_CHECKING:
    from .bases import Basis


@dataclass(frozen=True)
class DetectorOutcome:
    """Answer bits of the n propositions and the detector they select."""

    answer_bits: tuple[int, ...]
    detector_index: int


@dataclass(frozen=True)
class MeasurementDistribution:
    """Probabilities over detectors 1..N (sum to 1 for a certified system)."""

    probabilities: tuple[float, ...]

    def point_mass(self, tol: float = DEFAULT_TOL) -> int | None:
        """Detector index if one probability is 1 within tol, else None."""
        for k, p in enumerate(self.probabilities, start=1):
            if abs(p - 1.0) <= tol:
                return k
        return None


@dataclass(frozen=True)
class QuestionCountRecord:
    state_index: int
    questions_asked: int
    strategy: str


@dataclass(frozen=True)
class StrategyStats:
    strategy: str
    n: int
    trials: int
    seed: int
    mean: float
    max: int


@dataclass(frozen=True)
class StatsSummary:
    naive: StrategyStats
    sieve: StrategyStats


def detector_for_bits(bits: Sequence[int]) -> int:
    """Detector index N - value(bits), bits most significant first."""
    value = 0
    for b in bits:
        value = (value << 1) | int(b)
    return 2 ** len(bits) - value


def route_basis_state(system: PropositionSystem, basis: "Basis", index: int,
                      tol: float = DEFAULT_TOL) -> DetectorOutcome:
    """Deterministic detector for basis vector `index` (1-based).

    The vector must be a common eigenvector of every projector; answer
    bit i is the eigenvalue of projector i on it.
    """
    if system.dim != basis.dim:
        raise ValueError(
            f"dimension mismatch: system {system.dim}, basis {basis.dim}")
    v = basis.vector(index)
    bits = tuple(
        eigenvalue_bit(system.operator(i), v, tol, projector_index=i + 1, vector_index=index)
        for i in range(system.size))
    return DetectorOutcome(bits, detector_for_bits(bits))


def _as_state(system: PropositionSystem, state) -> np.ndarray:
    """The state as a complex vector of the system's dimension with finite amplitudes."""
    v = as_vector(state)
    if v.shape[0] != system.dim:
        raise ValueError(
            f"dimension mismatch: state {v.shape[0]}, system {system.dim}")
    if not np.isfinite(v).all():
        raise ValueError("state has non-finite amplitudes")
    return v


# measure_state accepts branch weights summing to 1 within max(tol, BRANCH_SUM_FLOOR):
# N rounded squared norms do not sum to 1 more closely than that, however small tol is.
BRANCH_SUM_FLOOR = 1e-9


def _branch_weights(system: PropositionSystem, state: np.ndarray) -> list[np.ndarray]:
    """Squared norms of the filter cascade's branch vectors, one array per level.

    Level i + 1 splits branch j of level i, vector v, into P_i v (branch 2j)
    and v - P_i v (branch 2j + 1), so after n levels the leaf of answer word
    b sits at detector(b) - 1.  The tree is walked depth-first, so at most
    n + 1 vectors are held at once: the current one and, per level, the
    siblings still to visit.  None is kept of the last level (only its
    weights are read) or that is exactly zero (off an eigenstate's path):
    every branch below one weighs 0.0, which is what its vdot would give.
    """
    levels = system.size
    weights = [np.zeros(2 ** i) for i in range(levels + 1)]
    weights[0][0] = np.real(np.vdot(state, state))
    stack = [(0, 0, state)] if levels else []
    while stack:
        i, j, v = stack.pop()
        yes = system.apply(i, v)
        for k, b in ((2 * j, yes), (2 * j + 1, v - yes)):
            weights[i + 1][k] = np.real(np.vdot(b, b))
            if i + 1 < levels and (weights[i + 1][k] or b.any()):
                stack.append((i + 1, k, b))
    return weights


def _measured_weights(system: PropositionSystem, state, tol: float) -> list[np.ndarray]:
    """The branch weights of a normalized state, checked to sum to 1."""
    v = _as_state(system, state)
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > tol:
        raise ValueError(f"state is not normalized (norm {norm:.6g})")
    weights = _branch_weights(system, v)
    total = float(weights[-1].sum())
    if abs(total - 1.0) > max(tol, BRANCH_SUM_FLOOR):
        raise ValueError(
            f"branch weights sum to {total:.6g}; system is not certified")
    return weights


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise ValueError("trials must be >= 1")


# numpy's SeedSequence hash constants and PCG64's 128-bit multiplier as (high, low) words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924, 4865540595714422341)
_POOL_WORDS = 4
_M32 = 0xFFFFFFFF
# seeds whose PCG64 states are computed at once: bounds the kernel's memory
_TRIAL_CHUNK = 1024


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
    m32, s32 = np.uint64(_M32), np.uint64(32)
    a0, a1 = a[1] & m32, a[1] >> s32
    b0, b1 = np.uint64(b[1] & _M32), np.uint64(b[1] >> 32)
    low, mid = a0 * b0, a1 * b0
    cross = (low >> s32) + (mid & m32) + a0 * b1
    # the high word of the 128-bit product of the low words, plus the cross terms mod 2^64
    high = a1 * b1 + (mid >> s32) + (cross >> s32)
    return (high + a[0] * np.uint64(b[1]) + a[1] * np.uint64(b[0]),
            (cross << s32) | (low & m32))


def _pcg64_seedings(first: int, count: int) -> tuple[list[int], ...]:
    """PCG64 state and inc of default_rng(s) for s = first .. first + count - 1.

    They come as four lists of 64-bit words: the state's high and low
    words, then the increment's.

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
    return state[0].tolist(), state[1].tolist(), inc[0].tolist(), inc[1].tolist()


def _trial_generators(seed: int, trials: int) -> Iterator[np.random.Generator]:
    """One generator per trial t, in the state of np.random.default_rng(seed + t).

    Only the seeding is computed in batches, as uint32/uint64 array
    arithmetic over at most _TRIAL_CHUNK seeds; every draw stays numpy's
    own.  The same Generator is yielded each time, its state reset, so a
    trial must finish its draws before the next one starts.  A seed that
    default_rng rejects raises its error.
    """
    np.random.SeedSequence(seed)  # raises default_rng's error for a bad seed
    first = operator.index(seed)
    stop = first + trials
    rng = np.random.default_rng(0)
    bit_generator = rng.bit_generator
    while first < stop:
        # the seeds of one batch differ only in their lowest 32-bit word
        count = min(stop - first, _TRIAL_CHUNK, (1 << 32) - (first & _M32))
        for state_hi, state_lo, inc_hi, inc_lo in zip(*_pcg64_seedings(first, count)):
            bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state_hi << 64 | state_lo, "inc": inc_hi << 64 | inc_lo},
                "has_uint32": 0, "uinteger": 0}
            yield rng
        first += count


def _walk(weights: list[np.ndarray], dim: int, trials: int, seed: int) -> list[int]:
    """Detector counts of `trials` walks down the branch-weight tree.

    At level i the walk at branch j says yes with probability
    weights[i + 1][2j] / weights[i][j].  Trial t draws its n uniforms, in
    order, with one random(n) call on a generator in the state of
    default_rng(seed + t); only that seeding is computed in batches
    (`_trial_generators`), so the counts equal a fresh default_rng per trial.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = [(below[0::2] / above).tolist() for above, below in zip(weights, weights[1:])]
    counts = [0] * dim
    for rng in _trial_generators(seed, trials):
        j = 0
        for r, yes in zip(rng.random(len(ratios)).tolist(), ratios):
            # `not r < yes[j]` rather than `r >= yes[j]`: a NaN ratio (0/0, below a
            # zero branch) says no
            j = 2 * j + (not r < yes[j])
        counts[j] += 1
    return counts


def measure_state(system: PropositionSystem, state,
                  tol: float = DEFAULT_TOL) -> MeasurementDistribution:
    """Detector distribution for an arbitrary normalized state.

    Probability of detector k is the squared norm of the state filtered
    through the k-th branch of commuting projectors/complements; for a
    common eigenvector this is a point mass on the routed detector.
    """
    return MeasurementDistribution(tuple(_measured_weights(system, state, tol)[-1].tolist()))


def sample_detections(system: PropositionSystem, state, trials: int,
                      seed: int, tol: float = DEFAULT_TOL) -> list[int]:
    """Monte-Carlo detector counts from sequential projective measurement.

    Each trial walks the branch-weight tree: at step i the yes-branch fires
    with probability |P_i v|^2 / |v|^2 and the state collapses onto it.
    Reproducible for a fixed seed: trial t draws from a generator in the
    state of default_rng(seed + t).
    """
    v = _as_state(system, state)
    _check_trials(trials)
    return _walk(_branch_weights(system, v), system.dim, trials, seed)


def measure_and_sample(system: PropositionSystem, state, trials: int, seed: int,
                       tol: float = DEFAULT_TOL) -> tuple[MeasurementDistribution, list[int]]:
    """measure_state and sample_detections of one state from one branch-weight tree."""
    weights = _measured_weights(system, state, tol)
    _check_trials(trials)
    return (MeasurementDistribution(tuple(weights[-1].tolist())),
            _walk(weights, system.dim, trials, seed))


def naive_search(n: int, target_index: int, question_order: Sequence[int],
                 infer_last: bool = False) -> QuestionCountRecord:
    """Ask "is it state i?" in the given order until the target says yes.

    question_order is a permutation of 1..2^n.  By default the final
    question is counted even when its answer is forced after 2^n - 1
    noes; infer_last drops that forced question.
    """
    dim = 2 ** n
    if not 1 <= target_index <= dim:
        raise ValueError(f"target_index must be in 1..{dim}, got {target_index}")
    order = list(question_order)
    if sorted(order) != list(range(1, dim + 1)):
        raise ValueError("question_order must be a permutation of 1..2^n")
    asked = 0
    for q in order:
        asked += 1
        if q == target_index:
            break
    if infer_last and asked == dim:
        asked = dim - 1
    return QuestionCountRecord(target_index, asked, "naive")


def question_count_stats(n: int, trials: int, seed: int,
                         infer_last: bool = False, force: bool = False) -> StatsSummary:
    """Mean/max question counts: sampled naive strategy vs. the n-step sieve.

    Naive trials draw a uniform target and a uniform question order.
    Trial t draws from a generator in the state of default_rng(seed + t),
    so results do not depend on execution order across threads; only the
    seeding is computed in batches (`_trial_generators`), and both draws
    are numpy's own integers and permutation calls.  The questions asked
    are the target's 1-based position in the order (naive_search's count,
    without its checks).  The sieve side is exact: every search takes n
    questions.  Past the dense-size guard it needs force, as standard_system does.
    """
    dim = _check_n(n, force)
    _check_trials(trials)
    total = 0
    worst = 0
    for rng in _trial_generators(seed, trials):
        target = int(rng.integers(1, dim + 1))
        # the naive search asks about the states in this order and stops at the target
        asked = int((rng.permutation(dim) == target - 1).argmax()) + 1
        if infer_last and asked == dim:
            asked = dim - 1
        total += asked
        worst = max(worst, asked)
    naive = StrategyStats("naive", n, trials, seed, total / trials, worst)
    sieve = StrategyStats("sieve", n, trials, seed, float(n), n)
    return StatsSummary(naive, sieve)
