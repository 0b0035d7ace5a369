"""Catalog of named orthonormal bases and their defining unitaries.

Each named basis comes as (Basis, NamedUnitary) where the unitary's columns
are the basis vectors, i.e. |b_i> = U |e_i|.  The standard basis orders the
product states |+..+> first, descending lexicographically to |-..->, with
'+' mapping to the 0 bit.  A catalog unitary is an integer table divided by
the square roots of its columns' sums of squares, certified once in `named_basis`
by `_certified`: "matrix for basis '<key>' failed unitarity certification
within <tol>" is its one refusal.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ._catalog import BASIS_KEYS
from .linalg import (DEFAULT_TOL, as_matrix, dagger, eigenvalue_bits, is_unitary, max_abs,
                     quotient_bits, _rayleigh_quotients, _whole)
from .systems import PropositionSystem, _check_n

_ZERO_TOL, _RATIO_TOL = 1e-9, 1e-6  # combo_label's zero amplitude and its ratio tolerance


class Basis:
    """Ordered orthonormal basis: row k of `vectors` is the (k + 1)-th state.

    `Basis(vectors, labels)` holds the dense (size, dim) array.  The standard basis is an
    `IdentityBasis`, which builds its own `vectors`, and `labels` from `label`, only when
    read.
    """

    __slots__ = ("_shape", "_vectors", "_labels")

    def __init__(self, vectors, labels: Sequence[str]):
        v = np.asarray(vectors, dtype=complex)
        if v.ndim != 2:
            raise ValueError("basis vectors must form a 2-d array")
        if len(labels) != v.shape[0]:
            raise ValueError("one label per basis vector required")
        self._shape, self._vectors, self._labels = v.shape, v, labels

    @property
    def vectors(self) -> np.ndarray:
        """The dense complex (size, dim) array."""
        return self._vectors

    @property
    def labels(self) -> Sequence[str]:
        return self._labels

    def label(self, k: int) -> str:
        """Label of basis state k (1-based)."""
        return self.labels[self.rows(k).start]

    @property
    def size(self) -> int:
        return self._shape[0]

    @property
    def dim(self) -> int:
        return self._shape[1]

    def rows(self, k: int | None = None) -> slice:
        """Rows of basis state k (1-based), or of all for None, after the one range check."""
        if k is not None and not (_whole(k) and 1 <= k <= self.size):
            raise ValueError(f"index must be in 1..{self.size}, got {k}")
        return slice(None) if k is None else slice(k - 1, k)

    def vector(self, k: int) -> np.ndarray:
        """Basis state k (1-based) as a complex vector of length dim."""
        return self.vectors[self.rows(k).start]

    def eigenvalue_bits(self, p: np.ndarray, tol: float = DEFAULT_TOL,
                        projector_index: int | None = None,
                        index: int | None = None) -> np.ndarray:
        """0/1 eigenvalues of projector p (dense, or a 1-D diagonal) on every
        basis vector, or on vector `index` (1-based) alone, as
        linalg.eigenvalue_bits gives them on those rows of `vectors`."""
        return eigenvalue_bits(p, self.vectors[self.rows(index)], tol, projector_index, index or 1)

    def _operator_codes(self, operators, tol: float, index: int | None) -> np.ndarray:
        """The (size or 1, k) answer codes of k stored operators, column i from operator i."""
        codes = np.zeros((self.size if index is None else 1, len(operators)), dtype=int)
        for i, p in enumerate(operators):
            codes[:, i] = self.eigenvalue_bits(p, tol, i + 1, index)
        return codes

    _diagonal_codes = _operator_codes  # a diagonal system's (k, N) 0/1 rows, read as operators

    def gram_defect(self) -> float:
        """Max deviation of the Gram matrix from the identity."""
        return max_abs(np.conj(self.vectors) @ self.vectors.T - np.eye(self.size))


class IdentityBasis(Basis):
    """The standard basis in identity form: `vector(k)` builds one unit vector, `label(k)`
    one ket label, and `eigenvalue_bits` reads the Rayleigh quotients off a projector's
    diagonal, as the dense products give them: each unit-vector factor is exactly 0 or 1."""

    __slots__ = ()

    def __init__(self, dim: int):
        self._shape, self._vectors, self._labels = (dim, dim), None, None

    @property
    def vectors(self) -> np.ndarray:
        """The N unit vectors as the dense identity, built once (n <= MAX_N, force or not)."""
        if self._vectors is None:
            _check_n(self.dim.bit_length() - 1, force=True, ceiling="MAX_N")
            self._vectors = np.eye(self.dim, dtype=complex)
        return self._vectors

    @property
    def labels(self) -> Sequence[str]:  # built once, from `label`
        self._labels = self._labels or tuple(self.label(k) for k in range(1, self.size + 1))
        return self._labels

    def label(self, k: int) -> str:
        return ket_label(self.rows(k).start, self.dim.bit_length() - 1)

    def vector(self, k: int) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[self.rows(k).start] = 1
        return v

    def eigenvalue_bits(self, p, tol=DEFAULT_TOL, projector_index=None, index=None):
        q = _rayleigh_quotients(p)[self.rows(index)]
        return quotient_bits(q, tol, projector_index, index or 1)

    def _diagonal_codes(self, rows, tol, index):
        # each 0/1 diagonal entry is its own answer: column i is diagonal i
        return np.array(rows[:, self.rows(index)].T, dtype=int, order="C")

    def gram_defect(self) -> float:
        return 0.0  # unit vectors are exactly orthonormal


class NamedUnitary:
    __slots__ = ("name", "matrix")

    def __init__(self, name: str, matrix):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "matrix", as_matrix(matrix))

    def __setattr__(self, attr, *_):
        raise AttributeError(f"NamedUnitary field {attr!r} is read-only")

    __delattr__ = __setattr__

    def __reduce__(self):  # copy and pickle through __init__, not __setattr__
        return type(self), (self.name, self.matrix)

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(name={self.name!r})"


def ket_label(index: int, n: int) -> str:
    """Product-state label for 0-based position `index` in 0..2^n - 1: 0 bit -> '+'."""
    if not (_whole(n) and n >= 0):
        raise ValueError(f"ket_label n must be an integer >= 0, got {n!r}")
    if not (_whole(index) and index >= 0 and int(index).bit_length() <= n):
        raise ValueError(f"ket_label index must be in 0..2^{n} - 1, got {index!r}")
    bits = format(index, f"0{n}b") if n else ""
    return "|" + bits.replace("0", "+").replace("1", "-") + ">"


def _sqrt_string(d: int) -> str:
    """Render sqrt(d) as 'a√r' with r squarefree ('' when d == 1)."""
    a = 1
    for k in range(2, int(math.isqrt(d)) + 1):
        while d % (k * k) == 0:
            a *= k
            d //= k * k
    if d == 1:
        return str(a) if a > 1 else ""
    root = f"√{d}"
    return f"{a}{root}" if a > 1 else root


def combo_label(vec: np.ndarray) -> str:
    """Render a vector as a signed integer combination of product kets, each
    log2(len(vec)) signs wide.

    Works for vectors of power-of-two length whose nonzero amplitudes are
    small integer multiples of a common 1/sqrt(d) factor (all catalog
    bases).  Falls back to an empty string when the pattern does not apply.
    """
    v = np.asarray(vec, dtype=complex)
    if v.size & (v.size - 1) or max_abs(np.imag(v)) > _ZERO_TOL:
        return ""
    r = np.real(v)
    nonzero = [k for k in range(r.size) if abs(r[k]) > _ZERO_TOL]
    if not nonzero:
        return ""
    base = min(abs(r[k]) for k in nonzero)
    coeffs = {}
    for k in nonzero:
        c = r[k] / base
        ci = round(c)
        if abs(c - ci) > _RATIO_TOL or ci == 0:
            return ""
        coeffs[k] = ci
    d = sum(c * c for c in coeffs.values())
    if abs(base - 1.0 / math.sqrt(d)) > _RATIO_TOL:
        return ""
    terms = ""
    for k in nonzero:
        c = coeffs[k]
        sign = "-" if c < 0 else ("+" if terms else "")
        mag = "" if abs(c) == 1 else str(abs(c))
        terms += f"{sign}{mag}{ket_label(k, len(v).bit_length() - 1)}"
    if d == 1:
        return terms
    return f"({terms})/{_sqrt_string(d)}"


def standard_basis(n: int, force: bool = False) -> Basis:
    """The N = 2^n canonical unit vectors labeled |+..+> down to |-..->, an IdentityBasis.
    Every command that uses it also builds (n, 2^n) arrays, so no force lifts n past
    STRUCTURED_MAX_N."""
    return IdentityBasis(_check_n(n, force, "STRUCTURED_MAX_N"))


def basis_from_unitary(u: NamedUnitary, *, tol: float = DEFAULT_TOL) -> Basis:
    """Basis whose k-th vector is column k of the (certified) unitary."""
    vectors = _certified(u, tol).matrix.T.copy()
    labels = tuple(combo_label(v) or f"{u.name}_{k}" for k, v in enumerate(vectors, start=1))
    return Basis(vectors, labels)


def _certified(u: NamedUnitary, tol: float) -> NamedUnitary:
    """u, once its matrix is unitary within tol; the one refusal of a catalog unitary."""
    if not is_unitary(u.matrix, tol):
        raise ValueError(f"matrix for basis '{u.name}' failed unitarity certification within {tol}")
    return u


_GHZ_INT = np.array([
    [1,  1,  0,  0,  0,  0,  0,  0],
    [0,  0,  1,  1,  0,  0,  0,  0],
    [0,  0,  0,  0,  1,  1,  0,  0],
    [0,  0,  0,  0,  0,  0,  1,  1],
    [0,  0,  0,  0,  0,  0,  1, -1],
    [0,  0,  0,  0,  1, -1,  0,  0],
    [0,  0,  1, -1,  0,  0,  0,  0],
    [1, -1,  0,  0,  0,  0,  0,  0],
])


def ghz_unitary() -> NamedUnitary:
    """The 8x8 unitary sending the standard basis to the GHZ basis."""
    return NamedUnitary("ghz", _GHZ_INT / np.sqrt(2))


def ghz_basis(tol: float = DEFAULT_TOL) -> tuple[Basis, NamedUnitary]:
    """Eight maximally entangled three-particle states (|abc> +/- |a'b'c'>)/√2."""
    return named_basis("ghz", 3, tol)


_W_INT = np.array([
    [1,  0,  0,  0,  0,  0,  0,  0],
    [0,  1, -1, -1,  0,  0,  0,  0],
    [0,  1,  0,  2,  0,  0,  0,  0],
    [0,  1,  1, -1,  0,  0,  0,  0],
    [0,  0,  0,  0,  1, -1, -1,  0],
    [0,  0,  0,  0,  1,  0,  2,  0],
    [0,  0,  0,  0,  1,  1, -1,  0],
    [0,  0,  0,  0,  0,  0,  0,  1],
])


def w_unitary() -> NamedUnitary:
    """Block-diagonal: fixes |+++> and |--->; on positions 2-4 (|++->, |+-+>, |+-->) and
    on 5-7 (|-++>, |-+->, |--+>) its columns are (1, 1, 1)/√3, (-1, 0, 1)/√2 and
    (-1, 2, -1)/√6.  So the single-flip W state (|++->+|+-+>+|-++>)/√3 is not one."""
    return NamedUnitary("w", _W_INT / np.sqrt([1, 3, 2, 6, 3, 2, 6, 1]))


def w_basis(tol: float = DEFAULT_TOL) -> tuple[Basis, NamedUnitary]:
    return named_basis("w", 3, tol)


_EQUAL_WEIGHT_INT = np.array([
    [1,  1,  1,  1,  2,  0,  0,  0],
    [1,  1,  1, -1, -1,  1, -1, -1],
    [1,  1, -1,  1, -1, -1,  1, -1],
    [1,  1, -1, -1,  0,  0,  0,  2],
    [1, -1,  1,  1, -1, -1, -1,  1],
    [1, -1,  1, -1,  0,  0,  2,  0],
    [1, -1, -1,  1,  0,  2,  0,  0],
    [1, -1, -1, -1,  1, -1, -1, -1],
])


def _equal_weight() -> NamedUnitary:
    return NamedUnitary("equal_weight", _EQUAL_WEIGHT_INT / np.sqrt(8))


def equal_weight_unitary(tol: float = DEFAULT_TOL) -> NamedUnitary:
    """The all-(+/-1, +/-2)/(2√2) orthogonal matrix; certified at construction."""
    return _certified(_equal_weight(), tol)


def equal_weight_basis(tol: float = DEFAULT_TOL) -> tuple[Basis, NamedUnitary]:
    """Basis in which the first four states weight every product state equally."""
    return named_basis("equal_weight", 3, tol)


def named_basis(key: str, n: int = 3, tol: float = DEFAULT_TOL,
                force: bool = False) -> tuple[Basis, NamedUnitary | None]:
    """Look up a catalog basis by key; the fixed 8-state bases require n = 3."""
    if key == "standard":
        return standard_basis(n, force=force), None
    makers = {"ghz": ghz_unitary, "w": w_unitary, "equal_weight": _equal_weight}
    if key not in makers:
        raise ValueError(f"unknown basis key {key!r}; expected one of {BASIS_KEYS}")
    if not (_whole(n) and n == 3):
        raise ValueError(f"basis {key!r} is defined for n = 3, got n = {n!r}")
    u = makers[key]()
    return basis_from_unitary(u, tol=tol), u


def transformed_system(u: NamedUnitary | np.ndarray, system: PropositionSystem,
                       tol: float = DEFAULT_TOL) -> PropositionSystem:
    """Each projector P of a system as U P U^dag, linalg.conjugate's product; u certified once."""
    mat = u.matrix if isinstance(u, NamedUnitary) else as_matrix(u)
    if mat.shape[0] != system.dim:
        raise ValueError(f"dimension mismatch: unitary {mat.shape[0]}, system {system.dim}")
    if not is_unitary(mat, tol):
        raise ValueError("matrix u is not unitary within tolerance")
    return PropositionSystem(system.n, tuple(mat @ p @ dagger(mat) for p in system.projectors))
