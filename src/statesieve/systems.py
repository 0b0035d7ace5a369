"""Systems of n commuting yes-no propositions over a 2^n-dimensional space.

The standard system implements a binary search over basis positions: the
i-th projector keeps the first half of each remaining block.  Reading the
stacked diagonals column-wise gives each basis position a distinct n-bit
code word, and permuting the columns generates all N! = 2^n! equivalent
diagonal systems.  Each form reads the cascade's branch weights its own way:
a diagonal system sums its code prefixes, a dense one projects branch by branch.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

import numpy as np

from .linalg import (DEFAULT_TOL, EigenbasisError, _whole, _within, commutator_norm,
                     is_projector, max_abs, quotient_bits)

if TYPE_CHECKING:
    from .bases import Basis
    from .partitions import Partition

MAX_N = 10          # dense 2^n x 2^n matrices stay cheap up to here
INDEX_MAX_N = 62    # 2^n positions fit a 64-bit numpy index up to here, force or not
FULL_ENUM_MAX_N = 3  # 8! = 40320 streams fine; 16! does not
STRUCTURED_MAX_N = 20  # (n, 2^n) arrays, force or not: verify --n 20 peaks near 480 MB
_CEILINGS = {"MAX_N": "N x N arrays", "STRUCTURED_MAX_N": "(n, 2^n) arrays"}  # what each bounds


class ResourceLimitError(ValueError):
    """A guard tripped without force: n past MAX_N, or a full enumeration past
    FULL_ENUM_MAX_N.  Its message offers force only where force=True (CLI: --force)
    lifts it; under force, a size no force lifts is refused as a plain ValueError."""


class PropositionSystem:
    """Ordered list of n commuting projectors on a 2^n-dimensional space.

    `PropositionSystem(n, projectors)` holds dense matrices.  Every standard, permuted,
    enumerated or `system_from_diagonals` system is a `DiagonalSystem`, which keeps its
    (n, N) 0/1 `diagonals` and builds its own `projectors` only when asked.
    """

    __slots__ = ("n", "_projectors")

    def __init__(self, n: int, projectors: Sequence[np.ndarray]):
        dim = _check_n(n, force=True)
        projs = tuple(np.asarray(p, dtype=complex) for p in projectors)
        for i, p in enumerate(projs):
            if p.shape != (dim, dim):
                raise ValueError(
                    f"projector {i + 1} has shape {p.shape}, expected {(dim, dim)}")
        self.n, self._projectors = int(n), projs

    @property
    def projectors(self) -> tuple[np.ndarray, ...]:
        """The dense complex N x N matrices."""
        return self._projectors

    @property
    def dim(self) -> int:
        return 2 ** self.n

    @property
    def size(self) -> int:
        return len(self._projectors)

    def apply(self, i: int, v: np.ndarray) -> np.ndarray:
        """Projector i (0-based) applied to v."""
        return self.projectors[i] @ v

    def _branch_weights(self, state: np.ndarray) -> list[np.ndarray]:
        """Squared norms of the filter cascade's branch vectors, one array per level.

        Level i + 1 splits branch j of level i, vector v, into P_i v (branch 2j)
        and v - P_i v (branch 2j + 1), so after n levels the leaf of answer word
        b sits at detector(b) - 1.  The tree is walked depth-first, so at most
        n + 1 vectors are held at once: the current one and, per level, the
        siblings still to visit.  None is kept of the last level (only its
        weights are read) or that weighs 0.0 (off an eigenstate's path, or
        underflowed): every branch below one reads 0.0, so no child outweighs it.
        """
        levels = self.size
        weights = [np.zeros(2 ** i) for i in range(levels + 1)]
        weights[0][0] = np.real(np.vdot(state, state))
        stack = [(0, 0, state)] if levels else []
        while stack:
            i, j, v = stack.pop()
            yes = self.apply(i, v)
            for k, b in ((2 * j, yes), (2 * j + 1, v - yes)):
                weights[i + 1][k] = np.real(np.vdot(b, b))
                if i + 1 < levels and weights[i + 1][k]:
                    stack.append((i + 1, k, b))
        return weights

    def _noncommuting_pairs(self, tol: float) -> list[tuple[int, int, float]]:
        """(i, j, commutator norm) for each 1-based pair i < j that fails to commute."""
        norms = ((i + 1, j + 1, commutator_norm(self.projectors[i], self.projectors[j]))
                 for i, j in itertools.combinations(range(self.size), 2))
        return [(i, j, c) for i, j, c in norms if not _within(c, tol)]

    def _projector_traces(self, tol: float) -> list[tuple[bool, complex]]:
        """(is a projector within tol, trace) of each projector."""
        return [(is_projector(p, tol), complex(np.trace(p))) for p in self.projectors]

    def _answer_codes(self, basis: "Basis", tol: float, index: int | None) -> np.ndarray:
        return basis._operator_codes(self.projectors, tol, index)

    def _diagonal_rows(self, tol: float) -> np.ndarray:
        """The (k, N) 0/1 diagonals, refused unless each projector is diagonal and 0/1."""
        rows = []
        for i, proj in enumerate(self.projectors, start=1):
            d = np.diag(proj)
            if not _within(max_abs(proj - np.diag(d)), tol):
                raise ValueError(f"projector {i} is not diagonal")
            try:
                rows.append(quotient_bits(d, tol))
            except EigenbasisError:
                raise ValueError(f"projector {i} diagonal is not 0/1") from None
        return np.array(rows)


class DiagonalSystem(PropositionSystem):
    """The diagonal form: a (k, 2^n) 0/1 integer array its caller built, stored read-only
    as it is, without system_from_diagonals' checks and copy.  Its rows are projectors
    that commute exactly, and each entry is its projector's answer on that unit vector."""

    __slots__ = ("diagonals",)

    def __init__(self, diagonals: np.ndarray):
        self.n, self._projectors = diagonals.shape[1].bit_length() - 1, None
        self.diagonals = diagonals
        diagonals.flags.writeable = False

    @property
    def projectors(self) -> tuple[np.ndarray, ...]:
        """The dense N x N matrices, built once from the diagonals (n <= MAX_N, force or not)."""
        if self._projectors is None:
            _check_n(self.n, force=True, ceiling="MAX_N")
            self._projectors = tuple(np.diag(row.astype(complex)) for row in self.diagonals)
        return self._projectors

    @property
    def size(self) -> int:
        return len(self.diagonals)

    def apply(self, i: int, v: np.ndarray) -> np.ndarray:
        return self.diagonals[i] * v

    def _branch_weights(self, state: np.ndarray) -> list[np.ndarray]:
        """The tree's weights read from the code prefixes: branch j of level i + 1
        holds the |amplitude|^2 of the positions whose first i + 1 answers spell j,
        yes as 0, each level one bincount."""
        mass = state.real ** 2 + state.imag ** 2
        weights = [np.array([np.real(np.vdot(state, state))])]
        prefix = np.zeros(len(state), dtype=np.intp)
        for i, row in enumerate(self.diagonals):
            prefix = 2 * prefix + 1 - row
            weights.append(np.bincount(prefix, mass, minlength=2 ** (i + 1)))
        return weights

    def _noncommuting_pairs(self, tol: float) -> list[tuple[int, int, float]]:
        return []

    def _projector_traces(self, tol: float) -> list[tuple[bool, complex]]:
        return [(True, complex(np.sum(d))) for d in self.diagonals]

    def _answer_codes(self, basis: "Basis", tol: float, index: int | None) -> np.ndarray:
        return basis._diagonal_codes(self.diagonals, tol, index)

    def _diagonal_rows(self, tol: float) -> np.ndarray:
        return self.diagonals


class RequirementReport(NamedTuple):
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


class MinimalityReport(NamedTuple):
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


def _check_n(n: int, force: bool = False, ceiling: str = "INDEX_MAX_N") -> int:
    """N = 2^n, a Python int, after the one size guard: a whole 1 <= n <= INDEX_MAX_N,
    n <= MAX_N unless forced, and n <= the ceiling, the name of a constant read at call
    time, even if forced.  The refusal without force offers force only where force lifts it."""
    limit = globals()[ceiling]
    if not _whole(n):
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n > INDEX_MAX_N:
        raise ValueError(f"n = {n} is too large: 2^n positions do not fit a 64-bit index")
    if n > MAX_N and not force:
        hint = "; override with force" if n <= limit else ""
        raise ResourceLimitError(f"n = {n} exceeds the guard {MAX_N}{hint}")
    if n > limit:
        raise ValueError(f"n = {n} exceeds {ceiling} = {limit}, the largest n whose "
                         f"{_CEILINGS[ceiling]} are built, even with force")
    return 2 ** int(n)


def standard_diagonals(n: int, force: bool = False) -> np.ndarray:
    """0/1 diagonals of the standard system as an (n, 2^n) integer array.

    Row i holds 2^i alternating blocks of ones then zeros of length
    2^(n-1-i), so column k reads the binary digits of N-1-k: the codes
    run from N-1 down to 0 across positions.
    """
    dim = _check_n(n, force, "STRUCTURED_MAX_N")
    codes = dim - 1 - np.arange(dim)
    shifts = np.arange(n - 1, -1, -1)
    return (codes[np.newaxis, :] >> shifts[:, np.newaxis]) & 1


def system_from_diagonals(diagonals: np.ndarray) -> PropositionSystem:
    """The DiagonalSystem on a read-only integer copy of the 0/1 rows of `diagonals`."""
    d = np.asarray(diagonals)
    dim = d.shape[-1] if d.ndim == 2 else 0
    n = dim.bit_length() - 1
    if n < 1 or dim != 2 ** n:
        raise ValueError(f"diagonals must be an array of shape (k, 2^n), got {d.shape}")
    if not np.all((d == 0) | (d == 1)):
        raise ValueError("diagonals must hold only 0 and 1")
    return DiagonalSystem(d.astype(int))


def standard_system(n: int, force: bool = False) -> PropositionSystem:
    """The binary-search system: projector i asks "is particle i in state +"."""
    return DiagonalSystem(standard_diagonals(n, force))


def certify_system(system: PropositionSystem,
                   tol: float = DEFAULT_TOL) -> list[str]:
    """Check projector property, pairwise commutation, and trace = N/2.

    Returns a list of human-readable failure descriptions (empty = certified).
    """
    return _certification_failures(system, tol, system._noncommuting_pairs(tol))


def _certification_failures(system: PropositionSystem, tol: float,
                            noncommuting: list[tuple[int, int, float]]) -> list[str]:
    """certify_system's failures, given the result of _noncommuting_pairs."""
    failures = []
    half = system.dim / 2
    for i, (projector, trace) in enumerate(system._projector_traces(tol), start=1):
        if not projector:
            failures.append(f"projector {i} is not a projector within {tol}")
        if not _within(abs(trace - half), tol):
            failures.append(f"projector {i} has trace {trace:.17g}, expected {half}")
    failures.extend(f"projectors {i} and {j} do not commute (norm {c:.17g})"
                    for i, j, c in noncommuting)
    return failures


def answer_codes(system: PropositionSystem, basis: "Basis", tol: float = DEFAULT_TOL,
                 index: int | None = None) -> np.ndarray:
    """The (N, n) 0/1 answer-code matrix: row k holds the eigenvalues of the
    projectors on basis vector k + 1; with a 1-based index, the (1, n) row
    read from that vector alone.  A vector that is not a common eigenvector
    raises EigenbasisError naming the projector and the vector.
    """
    if system.dim != basis.dim:
        raise ValueError(
            f"dimension mismatch: system {system.dim}, basis {basis.dim}")
    basis.rows(index)  # the range check, before any form is read
    return system._answer_codes(basis, tol, index)


def system_partitions(system: PropositionSystem, basis: "Basis",
                      tol: float = DEFAULT_TOL) -> list[Partition]:
    from .partitions import Partition
    return [Partition.from_codes(column) for column in answer_codes(system, basis, tol).T]


def verify_requirements(system: PropositionSystem, basis: "Basis",
                        tol: float = DEFAULT_TOL) -> RequirementReport:
    """Verify the three defining requirements against a basis."""
    codes = answer_codes(system, basis, tol)
    return _requirement_report(codes, system._noncommuting_pairs(tol))


def _requirement_report(codes: np.ndarray,
                        noncommuting: list[tuple[int, int, float]]) -> RequirementReport:
    """The three requirements: (i) from the result of _noncommuting_pairs, (ii) and
    (iii) counted on the (N, k) 0/1 answer codes.  Column i, with c_i ones, splits the
    basis into [N - c_i, c_i]; columns i and j, with b_ij ones in common, split it into
    [N - c_i - c_j + b_ij, c_i - b_ij, c_j - b_ij, b_ij]."""
    failures = [f"(i) projectors {i},{j} do not commute (norm {c:.17g})"
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


def _code_blocks(codes) -> list[list[int]]:
    """1-based positions grouped by code row (1-D: by bit), ascending, by first position."""
    codes = np.asarray(codes)
    rows = codes if codes.ndim == 2 else codes[:, np.newaxis]
    groups: dict[tuple, list[int]] = {}
    for k, row in enumerate(rows.tolist(), start=1):
        groups.setdefault(tuple(row), []).append(k)
    return list(groups.values())


def _distinct_rows(codes) -> bool:
    """True iff the rows of a 0/1 code matrix of any width are pairwise distinct."""
    rows = np.packbits(np.asarray(codes, dtype=bool), axis=1)
    if rows.shape[1]:  # sorted, equal rows are neighbours; with no columns all rows are equal
        rows = rows[np.lexsort(rows.T)]
    return not np.any(np.all(rows[1:] == rows[:-1], axis=1))


def verify_system(system: PropositionSystem, basis: "Basis", tol: float = DEFAULT_TOL
                  ) -> tuple[list[str], RequirementReport | None, bool]:
    """(failures, requirement report or None off a common eigenbasis, separates) from one pass."""
    noncommuting = system._noncommuting_pairs(tol)  # one scan for both reports
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


def permute_system(system: PropositionSystem,
                   perm: Sequence[int],
                   tol: float = DEFAULT_TOL) -> PropositionSystem:
    """Rearrange the diagonal columns of a 0/1-diagonal system.

    `perm` maps (0-based) source position k to target position perm[k],
    applied identically across all n diagonals, so that composing
    permutations composes the maps: permute(permute(S, p), q) equals
    permute(S, q o p).
    """
    diags = system._diagonal_rows(tol)
    p, size = np.asarray(perm), diags.shape[1]
    if p.shape != (size,):
        raise ValueError(f"permutation must have length {size}, got {p.shape}")
    if p.dtype.kind not in "iu":  # a bool, float or string entry is no position
        raise ValueError(f"permutation entries must be integers, got dtype {p.dtype}")
    if sorted(p.tolist()) != list(range(size)):
        raise ValueError("permutation is not a bijection on 0..N-1")
    out = np.empty_like(diags)
    out[:, p] = diags
    return DiagonalSystem(out)


def _check_enumeration(n: int, limit: int | None, force: bool,
                       ceiling: str = "INDEX_MAX_N") -> int:
    """N = 2^n after the size guard, the limit check and the full-enumeration
    guard: all N! systems are refused for n > 3 unless a limit or force is given."""
    dim = _check_n(n, force, ceiling)
    if limit is not None and not (_whole(limit) and limit >= 0):
        raise ValueError(f"limit must be None or an integer >= 0, got {limit!r}")
    if limit is None and n > FULL_ENUM_MAX_N and not force:
        raise ResourceLimitError(
            f"full enumeration for n = {n} means {dim}! systems; "
            "pass a limit or force")
    return dim


def count_systems(n: int, limit: int | None = None, force: bool = False) -> int:
    """How many systems enumerate_systems(n, limit, force) yields: min(limit, N!).

    Builds no system.  With a limit the product 1 * 2 * ... stops as soon as
    it reaches the limit, so any n the guards allow is counted at once.
    Without one, n > MAX_N is refused with or without force: 2048! alone
    has more digits than Python converts to a string.
    """
    if limit is None and _whole(n) and MAX_N < n <= INDEX_MAX_N:
        raise ValueError(f"n = {n}: counting all {2 ** n}! systems needs a limit")
    dim = _check_enumeration(n, limit, force)
    if limit is None:
        return math.factorial(dim)
    product = 1
    for k in range(2, dim + 1):
        if product >= limit:
            break
        product *= k
    return int(min(limit, product))


def enumerate_systems(n: int, limit: int | None = None,
                      force: bool = False) -> Iterator[PropositionSystem]:
    """Stream the N! equivalent diagonal systems in lexicographic perm order.

    Yields one system per permutation of the N column codes.  Full
    enumeration is refused for n > 3 unless force is given; any n up to
    the dimension guard is allowed with an explicit limit.  count_systems
    gives the number of systems without building them.
    """
    dim = _check_enumeration(n, limit, force, "STRUCTURED_MAX_N")
    std = standard_diagonals(n, force)
    for perm in itertools.islice(itertools.permutations(range(dim)), limit):
        out = np.empty_like(std)
        out[:, perm] = std
        yield DiagonalSystem(out)


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
    dim = _check_n(n, ceiling="MAX_N")
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
