"""Systems of n commuting yes-no propositions over a 2^n-dimensional space.

The standard system implements a binary search over basis positions: the
i-th projector keeps the first half of each remaining block.  Reading the
stacked diagonals column-wise gives each basis position a distinct n-bit
code word, and permuting the columns generates all N! = 2^n! equivalent
diagonal systems.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from .linalg import (DEFAULT_TOL, EigenbasisError, commutator_norm, is_projector, max_abs,
                     quotient_bits)
from .partitions import Partition

if TYPE_CHECKING:
    from .bases import Basis

MAX_N = 10          # dense 2^n x 2^n matrices stay cheap up to here
INDEX_MAX_N = 62    # 2^n positions fit a 64-bit numpy index up to here, force or not
FULL_ENUM_MAX_N = 3  # 8! = 40320 streams fine; 16! does not


class ResourceLimitError(ValueError):
    """A size guard tripped; pass force=True (CLI: --force) to override."""


class PropositionSystem:
    """Ordered list of n commuting projectors on a 2^n-dimensional space.

    `PropositionSystem(n, projectors)` holds dense matrices.  A system built
    by `system_from_diagonals`, and every standard, permuted and enumerated
    system, keeps its (n, N) 0/1 `diagonals` instead and builds the dense
    `projectors` only when something asks for them.  `diagonals` is None
    for a dense system.
    """

    __slots__ = ("n", "diagonals", "_projectors")

    def __init__(self, n: int, projectors: Sequence[np.ndarray]):
        projs = tuple(np.asarray(p, dtype=complex) for p in projectors)
        dim = 2 ** n
        for i, p in enumerate(projs):
            if p.shape != (dim, dim):
                raise ValueError(
                    f"projector {i + 1} has shape {p.shape}, expected {(dim, dim)}")
        self.n = n
        self.diagonals: np.ndarray | None = None
        self._projectors: tuple[np.ndarray, ...] | None = projs

    @property
    def projectors(self) -> tuple[np.ndarray, ...]:
        """The dense complex N x N matrices, built once from the diagonals if needed."""
        if self._projectors is None:
            self._projectors = tuple(np.diag(row.astype(complex)) for row in self.diagonals)
        return self._projectors

    @property
    def dim(self) -> int:
        return 2 ** self.n

    @property
    def size(self) -> int:
        return len(self.diagonals if self.diagonals is not None else self._projectors)

    def operator(self, i: int) -> np.ndarray:
        """Projector i (0-based) as stored: a 1-D 0/1 diagonal or a dense matrix."""
        return self.diagonals[i] if self.diagonals is not None else self.projectors[i]

    def apply(self, i: int, v: np.ndarray) -> np.ndarray:
        """Projector i (0-based) applied to v: d * v or P @ v."""
        p = self.operator(i)
        return p * v if p.ndim == 1 else p @ v


@dataclass(frozen=True)
class ColumnCode:
    """Bit column read down the stacked diagonals at one basis position."""

    position: int                # 1-based basis position
    bits: tuple[int, ...]        # one bit per proposition, first proposition first

    @property
    def value(self) -> int:
        """The bits as a binary number, most significant bit first."""
        v = 0
        for b in self.bits:
            v = (v << 1) | b
        return v


@dataclass(frozen=True)
class RequirementReport:
    """Outcome of the three structural requirements on a proposition system.

    co_measurable:     all pairs of projectors commute,
    balanced_halves:   every projector splits the basis 50:50,
    pairwise_quarters: any two distinct propositions jointly cut block
                       sizes by another factor of two.
    """

    co_measurable: bool
    balanced_halves: bool
    pairwise_quarters: bool
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.co_measurable and self.balanced_halves and self.pairwise_quarters


@dataclass(frozen=True)
class MinimalityReport:
    """Why n-1 binary propositions cannot separate 2^n basis states.

    The counting bound always applies: k propositions induce at most 2^k
    answer classes.  For n <= 2 an exhaustive scan over all 0/1-diagonal
    projector subsets of size n-1 double-checks the bound by brute force.
    """

    n: int
    num_states: int
    max_classes: int             # 2^(n-1), best case for n-1 propositions
    analytic_bound_holds: bool   # max_classes < num_states
    exhaustive_scanned: int | None = None
    exhaustive_separating_found: bool | None = None

    @property
    def ok(self) -> bool:
        if not self.analytic_bound_holds:
            return False
        return self.exhaustive_separating_found is not True


def _check_n(n: int, force: bool = False) -> int:
    """N = 2^n after the one size guard: n > MAX_N needs force, and no
    force lifts n past INDEX_MAX_N."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n > INDEX_MAX_N:
        raise ValueError(f"n = {n} is too large: 2^n positions do not fit a 64-bit index")
    if n > MAX_N and not force:
        raise ResourceLimitError(
            f"n = {n} exceeds the guard {MAX_N}; override with force")
    return 2 ** n


def standard_diagonals(n: int, force: bool = False) -> np.ndarray:
    """0/1 diagonals of the standard system as an (n, 2^n) integer array.

    Row i holds 2^i alternating blocks of ones then zeros of length
    2^(n-1-i), so column k reads the binary digits of N-1-k: the codes
    run from N-1 down to 0 across positions.
    """
    dim = _check_n(n, force)
    codes = dim - 1 - np.arange(dim)
    shifts = np.arange(n - 1, -1, -1)
    return (codes[np.newaxis, :] >> shifts[:, np.newaxis]) & 1


def system_from_diagonals(diagonals: np.ndarray) -> PropositionSystem:
    """The system whose projectors are diagonal with the 0/1 rows of `diagonals`.

    It stores a read-only integer copy of the rows; the dense projectors are
    built only on first access to `projectors`.
    """
    d = np.asarray(diagonals)
    dim = d.shape[-1] if d.ndim == 2 else 0
    n = dim.bit_length() - 1
    if n < 1 or dim != 2 ** n:
        raise ValueError(f"diagonals must be an array of shape (k, 2^n), got {d.shape}")
    if not np.all((d == 0) | (d == 1)):
        raise ValueError("diagonals must hold only 0 and 1")
    return _diagonal_system(d.astype(int))


def _diagonal_system(diagonals: np.ndarray) -> PropositionSystem:
    """The system on a (k, 2^n) 0/1 integer array that its caller built and
    hands over: stored read-only as it is, without the checks and the copy
    system_from_diagonals makes of an outside array."""
    system = PropositionSystem.__new__(PropositionSystem)
    system.n, system._projectors = diagonals.shape[1].bit_length() - 1, None
    system.diagonals = diagonals
    diagonals.flags.writeable = False
    return system


def standard_system(n: int, force: bool = False) -> PropositionSystem:
    """The binary-search system: projector i asks "is particle i in state +"."""
    return _diagonal_system(standard_diagonals(n, force))


def _noncommuting_pairs(system: PropositionSystem,
                        tol: float) -> Iterator[tuple[int, int, float]]:
    """(i, j, commutator norm) for each 1-based pair i < j that fails to commute."""
    if system.diagonals is not None:
        return  # diagonal matrices commute exactly
    for i, j in itertools.combinations(range(system.size), 2):
        c = commutator_norm(system.projectors[i], system.projectors[j])
        if c > tol:
            yield i + 1, j + 1, c


def certify_system(system: PropositionSystem,
                   tol: float = DEFAULT_TOL) -> list[str]:
    """Check projector property, pairwise commutation, and trace = N/2.

    Returns a list of human-readable failure descriptions (empty = certified).
    """
    return _certification_failures(system, tol, list(_noncommuting_pairs(system, tol)))


def _certification_failures(system: PropositionSystem, tol: float,
                            noncommuting: list[tuple[int, int, float]]) -> list[str]:
    """certify_system's failures, given the result of _noncommuting_pairs."""
    failures = []
    half = system.dim / 2
    for i in range(1, system.size + 1):
        p = system.operator(i - 1)
        if p.ndim == 2 and not is_projector(p, tol):  # a 0/1 diagonal always is one
            failures.append(f"projector {i} is not a projector within {tol}")
        trace = complex(np.sum(p) if p.ndim == 1 else np.trace(p))
        if abs(trace - half) > tol:
            failures.append(f"projector {i} has trace {trace:.6g}, expected {half}")
    failures.extend(f"projectors {i} and {j} do not commute (norm {c:.3e})"
                    for i, j, c in noncommuting)
    return failures


def answer_codes(system: PropositionSystem, basis: "Basis",
                 tol: float = DEFAULT_TOL) -> np.ndarray:
    """The (N, n) 0/1 answer-code matrix: row k holds the eigenvalues of the
    projectors on basis vector k + 1.  A basis vector that is not a common
    eigenvector raises EigenbasisError naming the projector and the vector.
    """
    if system.dim != basis.dim:
        raise ValueError(
            f"dimension mismatch: system {system.dim}, basis {basis.dim}")
    codes = np.zeros((basis.size, system.size), dtype=int)
    for i in range(system.size):
        codes[:, i] = basis.eigenvalue_bits(system.operator(i), tol, projector_index=i + 1)
    return codes


def system_partitions(system: PropositionSystem, basis: "Basis",
                      tol: float = DEFAULT_TOL) -> list[Partition]:
    return [Partition.from_codes(column) for column in answer_codes(system, basis, tol).T]


def verify_requirements(system: PropositionSystem, basis: "Basis",
                        tol: float = DEFAULT_TOL) -> RequirementReport:
    """Verify the three defining requirements against a basis."""
    codes = answer_codes(system, basis, tol)
    return _requirement_report(codes, list(_noncommuting_pairs(system, tol)))


def _requirement_report(codes: np.ndarray,
                        noncommuting: list[tuple[int, int, float]]) -> RequirementReport:
    """The three requirements: (i) from the result of _noncommuting_pairs, (ii) and
    (iii) counted on the (N, k) 0/1 answer codes.  Column i, with c_i ones, splits the
    basis into [N - c_i, c_i]; columns i and j, with b_ij ones in common, split it into
    [N - c_i - c_j + b_ij, c_i - b_ij, c_j - b_ij, b_ij]."""
    failures = [f"(i) projectors {i},{j} do not commute (norm {c:.3e})"
                for i, j, c in noncommuting]

    size, ones = len(codes), codes.sum(0).tolist()
    bits = codes.astype(float)  # BLAS counts 0/1 products exactly below 2^53
    both = (bits.T @ bits).astype(int).tolist()
    half, quarter = size // 2, size // 4
    balanced = True
    for i, c in enumerate(ones, start=1):
        sizes = sorted(s for s in (size - c, c) if s)
        if sizes != [half, half]:
            balanced = False
            failures.append(f"(ii) projector {i} splits sizes {sizes}, "
                            f"expected [{half}, {half}]")

    refining = True
    for i, j in itertools.combinations(range(len(ones)), 2):
        ci, cj, b = ones[i], ones[j], both[i][j]
        sizes = sorted(s for s in (size - ci - cj + b, ci - b, cj - b, b) if s)
        if any(s != quarter for s in sizes):
            refining = False
            failures.append(f"(iii) propositions {i + 1},{j + 1} meet has "
                            f"block sizes {sizes}, expected all {quarter}")

    return RequirementReport(not noncommuting, balanced, refining, tuple(failures))


def _distinct_rows(codes) -> bool:
    """True iff the rows of a 0/1 code matrix of any width are pairwise distinct."""
    rows = np.packbits(np.asarray(codes, dtype=bool), axis=1)
    if rows.shape[1]:  # sorted, equal rows are neighbours; with no columns all rows are equal
        rows = rows[np.lexsort(rows.T)]
    return not np.any(np.all(rows[1:] == rows[:-1], axis=1))


def verify_system(system: PropositionSystem, basis: "Basis", tol: float = DEFAULT_TOL
                  ) -> tuple[list[str], RequirementReport | None, bool]:
    """(failures, requirement report or None off a common eigenbasis, separates) from one pass."""
    noncommuting = list(_noncommuting_pairs(system, tol))  # one scan for both reports
    failures = _certification_failures(system, tol, noncommuting)
    try:
        codes = answer_codes(system, basis, tol)
    except EigenbasisError as e:
        return failures + [f"requirement checks aborted: {e}"], None, False
    report = _requirement_report(codes, noncommuting)
    separating = _distinct_rows(codes)
    failures.extend(report.failures)
    if not separating:
        failures.append("system does not separate the basis")
    return failures, report, separating


def _diagonals_of(system: PropositionSystem, tol: float) -> np.ndarray:
    """The 0/1 diagonals: stored ones as they are, dense ones extracted after
    rejecting non-diagonal or non-0/1 projectors."""
    if system.diagonals is not None:
        return system.diagonals
    rows = []
    for i, p in enumerate(system.projectors, start=1):
        d = np.diag(p)
        if max_abs(p - np.diag(d)) > tol:
            raise ValueError(f"projector {i} is not diagonal")
        try:
            rows.append(quotient_bits(d, tol))
        except EigenbasisError:
            raise ValueError(f"projector {i} diagonal is not 0/1") from None
    return np.array(rows)


def column_codes(system: PropositionSystem,
                 tol: float = DEFAULT_TOL) -> list[ColumnCode]:
    """The n-bit word at each basis position of a diagonal 0/1 system."""
    diags = _diagonals_of(system, tol)
    return [ColumnCode(k + 1, tuple(int(b) for b in diags[:, k]))
            for k in range(diags.shape[1])]


def permute_system(system: PropositionSystem,
                   perm: Sequence[int],
                   tol: float = DEFAULT_TOL) -> PropositionSystem:
    """Rearrange the diagonal columns of a 0/1-diagonal system.

    `perm` maps (0-based) source position k to target position perm[k],
    applied identically across all n diagonals, so that composing
    permutations composes the maps: permute(permute(S, p), q) equals
    permute(S, q o p).
    """
    diags = _diagonals_of(system, tol)
    p, size = np.asarray(perm, dtype=int), diags.shape[1]
    if p.shape != (size,):
        raise ValueError(f"permutation must have length {size}, got {p.shape}")
    if sorted(p.tolist()) != list(range(size)):
        raise ValueError("permutation is not a bijection on 0..N-1")
    out = np.empty_like(diags)
    out[:, p] = diags
    return _diagonal_system(out)


def _check_enumeration(n: int, limit: int | None, force: bool) -> int:
    """N = 2^n after the size guard and the full-enumeration guard: all N!
    systems are refused for n > 3 unless a limit or force is given."""
    dim = _check_n(n, force)
    if limit is None and n > FULL_ENUM_MAX_N and not force:
        raise ResourceLimitError(
            f"full enumeration for n = {n} means {dim}! systems; "
            "pass a limit or force")
    return dim


def count_systems(n: int, limit: int | None = None, force: bool = False) -> int:
    """How many systems enumerate_systems(n, limit, force) yields: min(limit, N!).

    Builds no system.  With a limit the product 1 * 2 * ... stops as soon as
    it reaches the limit, so any n the guards allow is counted at once.
    Without one, n > MAX_N is refused even under force: 2048! alone has
    more digits than Python converts to a string.
    """
    dim = _check_enumeration(n, limit, force)
    if limit is None:
        if n > MAX_N:
            raise ValueError(f"n = {n}: counting all {dim}! systems needs a limit")
        return math.factorial(dim)
    product = 1
    for k in range(2, dim + 1):
        if product >= limit:
            break
        product *= k
    return min(limit, product)


def enumerate_systems(n: int, limit: int | None = None,
                      force: bool = False) -> Iterator[PropositionSystem]:
    """Stream the N! equivalent diagonal systems in lexicographic perm order.

    Yields one system per permutation of the N column codes.  Full
    enumeration is refused for n > 3 unless force is given; any n up to
    the dimension guard is allowed with an explicit limit.  count_systems
    gives the number of systems without building them.
    """
    dim = _check_enumeration(n, limit, force)
    std = standard_diagonals(n, force)
    for perm in itertools.islice(itertools.permutations(range(dim)), limit):
        out = np.empty_like(std)
        out[:, perm] = std
        yield _diagonal_system(out)


def separates(system: PropositionSystem, basis: "Basis",
              tol: float = DEFAULT_TOL) -> bool:
    """True iff the eigenvalue bit-codes distinguish every basis vector.

    Every basis vector must be a common eigenvector of all projectors;
    a vector that is not raises EigenbasisError (that situation is a
    usage error, not a 'no').
    """
    return _distinct_rows(answer_codes(system, basis, tol))


def minimality_certificate(n: int) -> MinimalityReport:
    """Certify that fewer than n binary propositions cannot separate 2^n states."""
    dim = _check_n(n)
    max_classes = 2 ** (n - 1)
    scanned = found = None
    if n <= 2:
        # each subset holds n-1 diagonals as bitmasks over the positions
        scanned, found = 0, False
        for subset in itertools.combinations(range(2 ** dim), n - 1):
            scanned += 1
            if _distinct_rows([[(mask >> k) & 1 for mask in subset] for k in range(dim)]):
                found = True
                break
    return MinimalityReport(
        n=n, num_states=dim, max_classes=max_classes,
        analytic_bound_holds=max_classes < dim,
        exhaustive_scanned=scanned, exhaustive_separating_found=found)


def standard_subset_meets_nonatomic(n: int, basis: "Basis",
                                    tol: float = DEFAULT_TOL) -> bool:
    """True iff dropping any one standard projector leaves a non-atomic meet."""
    codes = answer_codes(standard_system(n), basis, tol)
    return not any(_distinct_rows(np.delete(codes, skip, axis=1)) for skip in range(n))
