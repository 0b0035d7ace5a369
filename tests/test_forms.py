"""Each stored form lives in one class: `DiagonalSystem` beside the dense
`PropositionSystem`, `IdentityBasis` beside the dense `Basis`, and
`linalg._rayleigh_quotients` as the one reader of a raw operator.  Every method a
form class overrides must give the bytes that the former single-class code gave,
which branched on the form at each site; those expressions are kept below as the
reference, and compared on random 0/1 diagonals, their dense copies and their
unitary conjugates, on both basis forms, for n <= 4."""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import haar_unitary
from statesieve import (Basis, EigenbasisError, PropositionSystem, answer_codes, certify_system,
                        is_projector, partition_from_projector, permute_system, standard_basis,
                        system_from_diagonals, transformed_system)
from statesieve.bases import IdentityBasis, ket_label
from statesieve.linalg import (DEFAULT_TOL, commutator_norm, eigenvalue_bits, max_abs,
                               quotient_bits)
from statesieve.partitions import Partition
from statesieve.systems import DiagonalSystem


# -- the former expressions, one per branch site ------------------------------------------

def former_size(system):
    return len(system.diagonals if isinstance(system, DiagonalSystem) else system._projectors)


def former_operator(system, i):
    return system.diagonals[i] if isinstance(system, DiagonalSystem) else system.projectors[i]


def former_apply(system, i, v):
    p = former_operator(system, i)
    return p * v if p.ndim == 1 else p @ v


def former_noncommuting_pairs(system, tol):
    if isinstance(system, DiagonalSystem):
        return
    for i, j in itertools.combinations(range(former_size(system)), 2):
        c = commutator_norm(system.projectors[i], system.projectors[j])
        if c > tol:
            yield i + 1, j + 1, c


def former_certify_system(system, tol):
    failures = []
    half = system.dim / 2
    for i in range(1, former_size(system) + 1):
        p = former_operator(system, i - 1)
        if p.ndim == 2 and not is_projector(p, tol):
            failures.append(f"projector {i} is not a projector within {tol}")
        trace = complex(np.sum(p) if p.ndim == 1 else np.trace(p))
        if abs(trace - half) > tol:
            failures.append(f"projector {i} has trace {trace:.17g}, expected {half}")
    failures.extend(f"projectors {i} and {j} do not commute (norm {c:.17g})"
                    for i, j, c in former_noncommuting_pairs(system, tol))
    return failures


def former_linalg_eigenvalue_bits(p, vectors, tol=DEFAULT_TOL, projector_index=None,
                                  first_vector_index=1):
    v = np.asarray(vectors)
    p = np.asarray(p)
    if p.ndim == 1:
        q = np.abs(v) ** 2 @ p
    else:
        q = np.real(np.einsum("kd,kd->k", np.conj(v), v @ p.T))
    return quotient_bits(q, tol, projector_index, first_vector_index)


def former_basis_eigenvalue_bits(basis, p, tol=DEFAULT_TOL, projector_index=None, index=None):
    rows, first = basis.rows(index), index or 1
    if not isinstance(basis, IdentityBasis):
        return former_linalg_eigenvalue_bits(p, basis.vectors[rows], tol, projector_index, first)
    d = p if p.ndim == 1 else np.real(np.diag(p))
    return quotient_bits(d[rows], tol, projector_index, first)


def former_answer_codes(system, basis, tol=DEFAULT_TOL, index=None):
    rows = basis.rows(index)
    if isinstance(system, DiagonalSystem) and isinstance(basis, IdentityBasis):
        return np.array(system.diagonals[:, rows].T, dtype=int, order="C")
    codes = np.zeros((basis.size if index is None else 1, former_size(system)), dtype=int)
    for i in range(former_size(system)):
        codes[:, i] = former_basis_eigenvalue_bits(basis, former_operator(system, i), tol,
                                                   i + 1, index)
    return codes


def former_permuted_diagonals(system, perm, tol=DEFAULT_TOL):
    diags = system.diagonals if isinstance(system, DiagonalSystem) else None
    if diags is None:
        rows = []
        for i, proj in enumerate(system.projectors, start=1):
            d = np.diag(proj)
            if max_abs(proj - np.diag(d)) > tol:
                raise ValueError(f"projector {i} is not diagonal")
            try:
                rows.append(quotient_bits(d, tol))
            except EigenbasisError:
                raise ValueError(f"projector {i} diagonal is not 0/1") from None
        diags = np.array(rows)
    out = np.empty_like(diags)
    out[:, np.asarray(perm)] = diags
    return out


def former_label(basis, k):
    i = basis.rows(k).start
    if not isinstance(basis, IdentityBasis):
        return basis.labels[i]
    return ket_label(i, basis.dim.bit_length() - 1)


def former_vector(basis, k):
    i = basis.rows(k).start
    if not isinstance(basis, IdentityBasis):
        return basis.vectors[i]
    v = np.zeros(basis.dim, dtype=complex)
    v[i] = 1
    return v


def former_gram_defect(basis):
    if isinstance(basis, IdentityBasis):
        return 0.0
    return max_abs(np.conj(basis.vectors) @ basis.vectors.T - np.eye(basis.size))


# -- comparison -------------------------------------------------------------------------

def outcome(call, *args):
    """What a call gives, in bytes: its array (dtype, shape, bytes), its value's repr, or
    the type and message of the ValueError it raises."""
    try:
        result = call(*args)
    except ValueError as e:
        return "raises", type(e).__name__, str(e)
    if isinstance(result, np.ndarray):
        return "array", result.dtype.str, result.shape, result.tobytes()
    return "value", repr(list(result) if hasattr(result, "__next__") else result)


def same(new, former, *args):
    assert outcome(new, *args) == outcome(former, *args)


@st.composite
def cases(draw):
    """(system, basis, seed): 0/1 diagonals as the diagonal form, as a dense copy or as a
    unitary conjugate, on the identity form, a dense identity, or the conjugate's basis."""
    n = draw(st.integers(1, 4))
    dim, seed = 2 ** n, draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    diagonal = system_from_diagonals(rng.integers(0, 2, size=(draw(st.integers(1, 5)), dim)))
    u, labels = haar_unitary(seed, dim), tuple(f"b{k}" for k in range(1, dim + 1))
    system = {"diagonal": lambda: diagonal,
              "dense": lambda: PropositionSystem(n, diagonal.projectors),
              "conjugate": lambda: transformed_system(u, diagonal),
              }[draw(st.sampled_from(["diagonal", "dense", "conjugate"]))]()
    basis = {"identity": lambda: standard_basis(n),
             "dense identity": lambda: Basis(np.eye(dim), labels),
             "conjugate's": lambda: Basis(u.T.copy(), labels),
             }[draw(st.sampled_from(["identity", "dense identity", "conjugate's"]))]()
    return system, basis, seed


@settings(max_examples=150, deadline=None)
@given(cases())
def test_systems_methods_give_the_former_bytes(case):
    system, basis, seed = case
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(system.dim) + 1j * rng.standard_normal(system.dim)
    assert type(system) is (DiagonalSystem if hasattr(system, "diagonals") else PropositionSystem)
    assert system.size == former_size(system)
    for i in range(system.size):
        same(system.apply, lambda i, v: former_apply(system, i, v), i, v)
    for tol in (DEFAULT_TOL, 0.0):
        same(lambda: system._noncommuting_pairs(tol),
             lambda: former_noncommuting_pairs(system, tol))
        same(certify_system, former_certify_system, system, tol)
    for index in (None, 1, basis.size):
        same(answer_codes, former_answer_codes, system, basis, DEFAULT_TOL, index)
    perm = rng.permutation(system.dim)
    same(lambda: permute_system(system, perm).diagonals,
         lambda: former_permuted_diagonals(system, perm))


@settings(max_examples=150, deadline=None)
@given(cases())
def test_basis_methods_give_the_former_bytes(case):
    system, basis, _ = case
    assert type(basis) in (IdentityBasis, Basis)
    for k in (1, basis.size):
        same(basis.label, lambda k: former_label(basis, k), k)
        same(basis.vector, lambda k: former_vector(basis, k), k)
    same(basis.gram_defect, lambda: former_gram_defect(basis))
    for i in range(system.size):
        for p in (former_operator(system, i), system.projectors[i]):  # the stored and the dense form
            for index in (None, 1, basis.size):
                same(basis.eigenvalue_bits,
                     lambda *args: former_basis_eigenvalue_bits(basis, *args),
                     p, DEFAULT_TOL, i + 1, index)
                same(eigenvalue_bits, former_linalg_eigenvalue_bits,
                     p, basis.vectors[basis.rows(index)], DEFAULT_TOL, i + 1, index or 1)
        same(lambda p: partition_from_projector(p, basis),
             lambda p: Partition.from_codes(former_basis_eigenvalue_bits(basis, p)),
             system.projectors[i])


def test_the_forms_are_the_constructors_classes():
    diagonal = system_from_diagonals(np.eye(4, dtype=int)[:2])
    assert type(diagonal) is DiagonalSystem and diagonal._projectors is None
    assert type(PropositionSystem(2, diagonal.projectors)) is PropositionSystem
    identity = standard_basis(2)
    assert type(identity) is IdentityBasis and isinstance(identity, Basis)
    assert identity._vectors is None and identity._labels is None  # not built
    dense = Basis(np.eye(4), "abcd")
    assert type(dense) is Basis and not isinstance(dense, IdentityBasis)
