"""Dense complex matrix primitives sized for n two-state systems (dim N = 2^n).

Everything here is a pure function on numpy arrays of dtype complex128.
Matrices are row-major square arrays; state vectors are 1-d arrays.  The
only spectral machinery provided is 0/1-eigenvalue certification for
projectors, which is all the sieve constructions need.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ._catalog import DEFAULT_TOL


class LinearDependenceError(ValueError):
    """Raised when an input vector is (numerically) dependent on its predecessors."""

    def __init__(self, index: int, residual: float):
        self.index = index
        self.residual = residual
        super().__init__(
            f"vector {index} is linearly dependent on the previous ones "
            f"(residual norm {residual:.3e})"
        )


class EigenbasisError(ValueError):
    """Raised when a vector is not a 0/1 eigenvector of a projector."""

    def __init__(self, message: str, projector_index: int | None = None,
                 vector_index: int | None = None):
        self.projector_index = projector_index
        self.vector_index = vector_index
        super().__init__(message)


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-d complex array, rejecting anything non-square."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def as_vector(v) -> np.ndarray:
    a = np.asarray(v, dtype=complex)
    if a.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {a.shape}")
    return a


def max_abs(m: np.ndarray) -> float:
    """Largest entry magnitude (max norm); 0.0 for an empty array."""
    return float(np.max(np.abs(m))) if m.size else 0.0


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(np.asarray(m)).T


def tensor(a, b) -> np.ndarray:
    """Tensor product of two square matrices via the explicit index formula.

    For a of size n x n and b of size m x m, the result is the nm x nm
    matrix with entries (1-based s, t = 1..nm)

        (a (x) b)[s, t] = a[ceil(s/m), ceil(t/m)]
                          * b[s - floor((s-1)/m)*m, t - floor((t-1)/m)*m]

    which coincides entry-for-entry with the block (Kronecker)
    construction.  Internal storage stays 0-based; the 1-based convention
    lives only in this formula.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    n, m = a.shape[0], b.shape[0]
    s = np.arange(1, n * m + 1)
    a_idx = (s + m - 1) // m          # ceil(s/m), 1-based
    b_idx = s - ((s - 1) // m) * m    # s - floor((s-1)/m)*m, 1-based
    return a[np.ix_(a_idx - 1, a_idx - 1)] * b[np.ix_(b_idx - 1, b_idx - 1)]


def is_unitary(u, tol: float = DEFAULT_TOL) -> bool:
    """True iff ||U^dag U - I||_max <= tol."""
    u = as_matrix(u)
    return max_abs(dagger(u) @ u - np.eye(u.shape[0])) <= tol


def is_projector(p, tol: float = DEFAULT_TOL) -> bool:
    """True iff P is Hermitian and idempotent within tol (max norm)."""
    p = as_matrix(p)
    return max_abs(p @ p - p) <= tol and max_abs(p - dagger(p)) <= tol


def commutator_norm(a, b) -> float:
    """Max-entry magnitude of AB - BA; 0 certifies co-measurability."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return max_abs(a @ b - b @ a)


def conjugate(u, p, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Transport a proposition to the basis defined by u: returns U P U^dag.

    The inverse of a unitary is always taken as the conjugate transpose,
    never computed numerically.  The spectrum of the result equals the
    spectrum of p.
    """
    u = as_matrix(u)
    p = as_matrix(p)
    if u.shape != p.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {p.shape}")
    if not is_unitary(u, tol):
        raise ValueError("matrix u is not unitary within tolerance")
    return u @ p @ dagger(u)


def eigenvalue_bits(p: np.ndarray, vectors: np.ndarray, tol: float = DEFAULT_TOL,
                    projector_index: int | None = None,
                    first_vector_index: int | None = 1) -> np.ndarray:
    """0/1 eigenvalues of projector p on the normalized rows of `vectors`.

    p is a dense matrix or, for a diagonal projector, the 1-D diagonal.
    Rounds each Rayleigh quotient <v|P|v> as quotient_bits does.
    """
    v = np.asarray(vectors)
    p = np.asarray(p)
    if p.ndim == 1:
        q = np.abs(v) ** 2 @ p
    else:
        q = np.real(np.einsum("kd,kd->k", np.conj(v), v @ p.T))
    return quotient_bits(q, tol, projector_index, first_vector_index)


def quotient_bits(q: np.ndarray, tol: float = DEFAULT_TOL,
                  projector_index: int | None = None,
                  first_vector_index: int | None = 1) -> np.ndarray:
    """Rayleigh quotients read as the nearer of 0 and 1 (a tie reads 0).

    The first quotient farther than tol from that value (NaN and inf
    included) raises EigenbasisError, which names entry k (0-based) as
    vector first_vector_index + k, or no vector for None.
    """
    ones = np.abs(q - 1.0) < np.abs(q)
    bad = np.flatnonzero(~(np.abs(q - ones) <= tol))
    if bad.size:
        k = int(bad[0])
        vector_index = None if first_vector_index is None else first_vector_index + k
        names = [f"{what} {index}" for what, index in
                 (("projector", projector_index), ("vector", vector_index))
                 if index is not None]
        where = f" ({', '.join(names)})" if names else ""
        raise EigenbasisError(
            f"vector is not a 0/1 eigenvector: Rayleigh quotient {q[k]:.17g}{where}",
            projector_index=projector_index, vector_index=vector_index)
    return ones.astype(int)


def eigenvalue_bit(p: np.ndarray, v: np.ndarray, tol: float = DEFAULT_TOL,
                   projector_index: int | None = None,
                   vector_index: int | None = None) -> int:
    """0/1 eigenvalue of projector p on normalized v: eigenvalue_bits' scalar reference."""
    return int(eigenvalue_bits(p, [v], tol, projector_index, vector_index)[0])


def gram_schmidt(vectors: Sequence[np.ndarray],
                 tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """Orthonormalize a linearly independent sequence of vectors.

    Modified (sequential re-orthogonalization) Gram-Schmidt.  The first
    output is the normalized first input, and the span is preserved.  A
    vector whose residual after projection falls below tol times its
    input norm triggers LinearDependenceError naming its index.
    """
    vs = [as_vector(v) for v in vectors]
    if not vs:
        return []
    dim = vs[0].shape[0]
    for i, v in enumerate(vs):
        if v.shape[0] != dim:
            raise ValueError(f"vector {i} has dimension {v.shape[0]}, expected {dim}")
    out: list[np.ndarray] = []
    for i, v in enumerate(vs):
        input_norm = float(np.linalg.norm(v))
        w = v.copy()
        for u in out:
            w = w - np.vdot(u, w) * u
        residual = float(np.linalg.norm(w))
        if residual <= tol * input_norm or input_norm == 0.0:
            raise LinearDependenceError(i, residual)
        out.append(w / residual)
    return out
