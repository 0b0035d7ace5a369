"""Measurement cascade: route eigenstates to detectors, Born-rule distributions,
and question-count benchmarks for the naive per-state strategy.

Detectors 1..2^size of a size-proposition system follow the strictly-decreasing
code convention: the all-ones answer word hits detector 1 and the all-zeros word
detector 2^size, so with the standard system basis state k always fires detector k.
The branch weights of the cascade are a read of the system's stored form
(`_branch_weights`): a diagonal system sums its code prefixes in O(nN), and a
dense one walks the depth-first tree of sequential projections.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .linalg import DEFAULT_TOL, _whole, _within, as_vector
from .systems import PropositionSystem, _check_n, answer_codes

if TYPE_CHECKING:
    from .bases import Basis


class DetectorOutcome(NamedTuple):
    """Answer bits of the n propositions and the detector they select."""

    answer_bits: tuple[int, ...]
    detector_index: int


class MeasurementDistribution(NamedTuple):
    """Probabilities over detectors 1..2^size (sum to 1 for a certified system)."""

    probabilities: tuple[float, ...]

    def point_mass(self, tol: float = DEFAULT_TOL) -> int | None:
        """Detector index of the probability nearest 1 if it is within tol, else None."""
        gaps = np.abs(np.asarray(self.probabilities) - 1.0)
        k = int(np.argmin(gaps))
        return k + 1 if _within(gaps[k], tol) else None


class QuestionCountRecord(NamedTuple):
    state_index: int
    questions_asked: int
    strategy: str


class StrategyStats(NamedTuple):
    strategy: str
    n: int
    trials: int
    seed: int
    mean: float
    max: int


class StatsSummary(NamedTuple):
    naive: StrategyStats
    sieve: StrategyStats


def detector_for_bits(bits: Sequence[int]) -> int:
    """Detector index 2^len(bits) - value(bits), bits most significant first, each
    equal to 0 or 1 (a bool counts as its int)."""
    value = 0
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"answer bits must be 0 or 1, got {b!r}")
        value = (value << 1) | int(b)
    return 2 ** len(bits) - value


def route_basis_state(system: PropositionSystem, basis: "Basis", index: int,
                      tol: float = DEFAULT_TOL) -> DetectorOutcome:
    """Deterministic detector for basis vector `index` (1-based).

    The vector must be a common eigenvector of every projector; its answer
    bits are its row of the answer-code matrix.
    """
    bits = tuple(answer_codes(system, basis, tol, index)[0].tolist())
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


def _check_trials(trials: int) -> None:
    if not _whole(trials):
        raise ValueError(f"trials must be an integer, got {trials!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")


def measure_state(system: PropositionSystem, state,
                  tol: float = DEFAULT_TOL) -> MeasurementDistribution:
    """Detector distribution for an arbitrary normalized state.

    Probability of detector k is the squared norm of the state filtered
    through the k-th branch of commuting projectors/complements; for a
    common eigenvector this is a point mass on the routed detector.
    """
    v = _as_state(system, state)
    norm = float(np.linalg.norm(v))
    if not _within(abs(norm - 1.0), tol):
        raise ValueError(f"state is not normalized (norm {norm:.17g})")
    leaves = system._branch_weights(v)[-1]
    total = float(leaves.sum())
    if not _within(abs(total - 1.0), max(tol, BRANCH_SUM_FLOOR)):
        raise ValueError(f"branch weights sum to {total:.17g}; system is not certified")
    return MeasurementDistribution(tuple(leaves.tolist()))


def sample_detections(system: PropositionSystem, state, trials: int, seed: int) -> list[int]:
    """Monte-Carlo counts of the 2^size detectors from sequential projective measurement.

    Each trial walks the branch weights: at step i the yes-branch fires
    with probability |P_i v|^2 / |v|^2 and the state collapses onto it.
    Reproducible for a fixed seed: trial t draws its size uniforms as
    default_rng(seed + t).random(size) would (`_trials.walk`).
    """
    v = _as_state(system, state)
    _check_trials(trials)
    from . import _trials  # on first use: commands that draw nothing never load it
    return _trials.walk(system._branch_weights(v), trials, seed)


def measure_and_sample(system: PropositionSystem, state, trials: int, seed: int,
                       tol: float = DEFAULT_TOL) -> tuple[MeasurementDistribution, list[int]]:
    """measure_state and sample_detections of one state, checked in that order."""
    return measure_state(system, state, tol), sample_detections(system, state, trials, seed)


def naive_search(n: int, target_index: int, question_order: Sequence[int],
                 infer_last: bool = False) -> QuestionCountRecord:
    """Ask "is it state i?" in the given order until the target says yes.

    question_order is a permutation of 1..2^n, for n in 1..62; it is
    checked for its length before it is sorted.  By default the final
    question is counted even when its answer is forced after 2^n - 1
    noes; infer_last drops that forced question.
    """
    dim = _check_n(n, force=True)
    if not (_whole(target_index) and 1 <= target_index <= dim):
        raise ValueError(f"target_index must be in 1..{dim}, got {target_index}")
    order = list(question_order)
    if len(order) != dim or sorted(order) != list(range(1, dim + 1)):
        raise ValueError("question_order must be a permutation of 1..2^n")
    asked = order.index(target_index) + 1  # the target's 1-based place in the order
    if infer_last and asked == dim:
        asked = dim - 1
    return QuestionCountRecord(int(target_index), asked, "naive")


def question_count_stats(n: int, trials: int, seed: int,
                         infer_last: bool = False, force: bool = False) -> StatsSummary:
    """Mean/max question counts: sampled naive strategy vs. the n-step sieve.

    Naive trials draw a uniform target and a uniform question order.
    Trial t draws what default_rng(seed + t).integers and .permutation
    would (`_trials.question_counts`), so results do not depend on
    execution order across threads.  The questions asked are the target's
    1-based position in the order (naive_search's count, without its
    checks).  The sieve side is exact: every search takes n questions.
    Past the dense-size guard it needs force, as standard_system does, and
    no force lifts n past STRUCTURED_MAX_N.
    """
    _check_n(n, force, "STRUCTURED_MAX_N")
    _check_trials(trials)
    from . import _trials
    total, worst = _trials.question_counts(n, trials, seed, infer_last)
    n, trials, seed = int(n), int(trials), int(seed)  # the records hold Python ints
    return StatsSummary(StrategyStats("naive", n, trials, seed, total / trials, worst),
                        StrategyStats("sieve", n, trials, seed, float(n), n))
