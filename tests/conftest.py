"""Shared test oracles, independent of the library code paths they check."""

import numpy as np
import pytest

from boolham.zpoly import DiagonalHamiltonian


def brute_fourier(values) -> dict[int, float]:
    """Naive O(4^n) Fourier transform: coeff[S] = 2^-n sum_x f(x) (-1)^|S&x|.

    Deliberately avoids the package's fast transform so the two paths stay
    independent.
    """
    values = list(values)
    size = len(values)
    coeffs = {}
    for mask in range(size):
        total = 0.0
        for x in range(size):
            sign = -1.0 if bin(mask & x).count("1") % 2 else 1.0
            total += values[x] * sign
        c = total / size
        if abs(c) > 1e-13:
            coeffs[mask] = c
    return coeffs


def brute_table(expr_eval, n: int) -> list[int]:
    """Truth table via per-assignment recursive evaluation (not the
    vectorized path)."""
    return [expr_eval(x) for x in range(1 << n)]


def kron_chain(mats) -> np.ndarray:
    """Kronecker product with the FIRST matrix on the highest qubit."""
    out = np.eye(1, dtype=complex)
    for m in mats:
        out = np.kron(out, m)
    return out


def zham_diagonal(h: DiagonalHamiltonian) -> np.ndarray:
    """The 2^n values of a Z-polynomial by the parity sum
    eval(x) = sum_S w_S (-1)^popcount(S & x), one term at a time.

    Independent of the package's transform (fourier.table_from_fourier).
    """
    idx = np.arange(1 << h.n_qubits, dtype=np.uint64)
    diag = np.zeros(idx.shape, dtype=np.float64)
    for mask, coeff in h.items():
        parity = np.bitwise_count(idx & np.uint64(mask)) & 1
        diag += coeff * (1.0 - 2.0 * parity)
    return diag


def dense_of_zham(h: DiagonalHamiltonian) -> np.ndarray:
    """The diagonal operator as a dense complex matrix."""
    return np.diag(zham_diagonal(h)).astype(complex)


def expm_hermitian(m: np.ndarray, t: float = 1.0) -> np.ndarray:
    """exp(-i t M) for Hermitian M via eigendecomposition."""
    w, v = np.linalg.eigh(m)
    return (v * np.exp(-1j * t * w)) @ v.conj().T


def allclose(a, b, tol: float = 1e-9) -> bool:
    """Two Pauli sums on one register, term for term within an absolute
    coefficient tolerance."""
    if a.n_qubits != b.n_qubits:
        return False
    ta, tb = dict(a.items()), dict(b.items())
    return all(abs(ta.get(key, 0) - tb.get(key, 0)) <= tol for key in ta.keys() | tb.keys())


def random_zham(rng: np.random.Generator, n_qubits: int, size: int) -> DiagonalHamiltonian:
    """Up to ``size`` distinct random terms with coefficients in [-2, 2)."""
    masks = rng.choice(1 << n_qubits, size=min(size, 1 << n_qubits), replace=False)
    return DiagonalHamiltonian(
        n_qubits, {int(m): float(rng.uniform(-2.0, 2.0)) for m in masks}
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
