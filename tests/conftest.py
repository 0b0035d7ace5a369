import numpy as np
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp


def haar_unitary(seed: int, dim: int) -> np.ndarray:
    """Haar-random unitary from QR of a complex Ginibre matrix."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_diag_projector(seed: int, dim: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.diag(rng.integers(0, 2, size=dim).astype(complex))


def square_complex(max_dim: int = 4, max_mag: float = 2.0):
    """Square complex matrices with bounded finite entries."""
    def build(dim):
        floats = st.floats(-max_mag, max_mag, allow_nan=False, width=64)
        return st.tuples(
            hnp.arrays(np.float64, (dim, dim), elements=floats),
            hnp.arrays(np.float64, (dim, dim), elements=floats),
        ).map(lambda parts: parts[0] + 1j * parts[1])
    return st.integers(1, max_dim).flatmap(build)


def dyadic_complex(max_dim: int = 3):
    """Matrices with entries (j + ik)/4, j,k small ints: products stay exact."""
    def build(dim):
        ints = st.integers(-8, 8)
        return st.tuples(
            hnp.arrays(np.int64, (dim, dim), elements=ints),
            hnp.arrays(np.int64, (dim, dim), elements=ints),
        ).map(lambda parts: (parts[0] + 1j * parts[1]) / 4.0)
    return st.integers(1, max_dim).flatmap(build)


def every_branch_weights(system, state) -> list[np.ndarray]:
    """PropositionSystem._branch_weights's tree, walking every branch, none pruned."""
    weights = [np.zeros(2 ** i) for i in range(system.size + 1)]
    weights[0][0] = np.real(np.vdot(state, state))

    def visit(i, j, v):
        yes = system.apply(i, v)
        for k, b in ((2 * j, yes), (2 * j + 1, v - yes)):
            weights[i + 1][k] = np.real(np.vdot(b, b))
            if i + 1 < system.size:
                visit(i + 1, k, b)

    if system.size:
        visit(0, 0, state)
    return weights
