"""Single-site Pauli embeddings and propositions of the form (1 + product)/2.

An axis assignment gives one Pauli axis per particle site (serialized as a
string like "xyy"); the Kronecker product of the site Paulis is an
involution, so half of (identity + product) is a projector of trace 2^(n-1).
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from ._catalog import CERECEDA_AXES, PAULI_AXES
from .linalg import tensor
from .systems import PropositionSystem, _check_n

_PAULI = dict(zip(PAULI_AXES, (np.array([[0, 1], [1, 0]], dtype=complex),
                               np.array([[0, -1j], [1j, 0]], dtype=complex),
                               np.array([[1, 0], [0, -1]], dtype=complex))))

# Diagonal 0/1 preimages of that triple under the GHZ basis change,
# ordered to match CERECEDA_AXES.
CERECEDA_PREIMAGE_DIAGONALS = (
    (0, 1, 1, 0, 1, 0, 0, 1),
    (0, 1, 1, 0, 0, 1, 1, 0),
    (0, 1, 0, 1, 1, 0, 1, 0),
)


def pauli(axis: str) -> np.ndarray:
    """The 2x2 Pauli matrix for axis 'x', 'y', or 'z' (a fresh copy)."""
    if axis not in _PAULI:
        raise ValueError(f"axis must be one of {PAULI_AXES}, got {axis!r}")
    return _PAULI[axis].copy()


def embed(axis: str, site: int, n: int) -> np.ndarray:
    """Pauli matrix on one site of an n-particle system (site is 1-based).

    Returns I_{2^(site-1)} (x) sigma_axis (x) I_{2^(n-site)}, dimension 2^n.
    """
    _check_n(n, ceiling="MAX_N")
    if not 1 <= site <= n:
        raise ValueError(f"site must be in 1..{n}, got {site}")
    m = pauli(axis)
    if site > 1:
        m = tensor(np.eye(2 ** (site - 1)), m)
    if site < n:
        m = tensor(m, np.eye(2 ** (n - site)))
    return m


def normalize_axes(assignment: str | Sequence[str]) -> str:
    axes = "".join(assignment)
    if not axes:
        raise ValueError("axis assignment must not be empty")
    for a in axes:
        if a not in PAULI_AXES:
            raise ValueError(f"unknown axis {a!r} in assignment {axes!r}")
    return axes


def sigma_product_proposition(assignment: str | Sequence[str]) -> np.ndarray:
    """Projector (I + sigma_product)/2 for one axis per particle site.

    The assignment fixes the axis measured on each site; its length sets
    the particle count n, and the result has trace 2^(n-1).  The product
    sigma_a1 (x) ... (x) sigma_an is the Kronecker product of the site
    Paulis, built with `tensor`; it equals the product of their `embed`s.
    """
    axes = normalize_axes(assignment)
    dim = _check_n(len(axes), ceiling="MAX_N")
    product = functools.reduce(tensor, map(pauli, axes))
    return (np.eye(dim) + product) / 2.0


def cereceda_system() -> PropositionSystem:
    """The permuted three-particle triple built from x/y sigma-products."""
    return PropositionSystem(
        3, tuple(sigma_product_proposition(a) for a in CERECEDA_AXES))
