"""Dense-matrix brute-force oracle for desk-scale verification.

Every construction in the package can be realized here as an explicit
2^n x 2^n complex matrix and compared entrywise.  Matrices follow the
package basis convention: row/column index x has x_1 as its least
significant bit, so a single-qubit operator on qubit j sits at Kronecker
position j counting from the right.

The dense register cap defaults to 12 qubits (a complex matrix is about
256 MiB at n = 12) and is hard-limited to 14.  Matrix exponentials of
diagonal operators are computed entrywise.  A diagonal operator's values
come from one Walsh-Hadamard transform of its coefficients
(``fourier.table_from_fourier``).  Spectra are of diagonal operators only
and read the same value table, so they reach n = 24.

The checks built from these matrices, the oracle-query equivalence
(kickback) suite among them, live in ``verify``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import fourier
from .boolexpr import BoolExpr, register_size, truth_table
from .circuits import Circuit
from .errors import CapExceeded
from .pauli import PauliOperator
from .zpoly import DiagonalHamiltonian, basis_label

DENSE_CAP_DEFAULT = 12
DENSE_CAP_MAX = 14

I2 = np.eye(2, dtype=complex)
X2 = np.array([[0, 1], [1, 0]], dtype=complex)
Y2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z2 = np.array([[1, 0], [0, -1]], dtype=complex)
H2 = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)

_PAULI_2x2 = {"I": I2, "X": X2, "Y": Y2, "Z": Z2}


def _check_cap(n: int, cap: int | None) -> None:
    limit = DENSE_CAP_DEFAULT if cap is None else cap
    if limit > DENSE_CAP_MAX:
        raise CapExceeded(f"dense cap {limit} exceeds hard maximum {DENSE_CAP_MAX}")
    if n > limit:
        raise CapExceeded(f"{n} qubits exceed the dense cap {limit}")


def dense_of_pauli(p: PauliOperator, cap: int | None = None) -> np.ndarray:
    """Kronecker-product realization of a general Pauli operator."""
    _check_cap(p.n_qubits, cap)
    dim = 1 << p.n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for string, coeff in p.items():
        m = np.eye(1, dtype=complex)
        for j in range(p.n_qubits, 0, -1):  # qubit 1 is the rightmost factor
            m = np.kron(m, _PAULI_2x2[string.letter(j)])
        out += coeff * m
    return out


# -- circuit simulation ----------------------------------------------------


def _rz_phases(idx: np.ndarray, qubit: int, angle: float) -> np.ndarray:
    bit = (idx >> np.uint64(qubit - 1)) & 1
    return np.exp(1j * (angle / 2.0) * (2.0 * bit.astype(np.float64) - 1.0))


def _apply_gate(u: np.ndarray, gate, idx: np.ndarray, n: int) -> np.ndarray:
    name = gate.name
    if name in ("rz", "crz", "ccrz"):  # RZ on the last qubit where every other one is 1
        *controls, tgt = gate.qubits
        d = _rz_phases(idx, tgt, gate.angle)
        for c in controls:
            d = np.where(((idx >> np.uint64(c - 1)) & 1).astype(bool), d, 1.0)
        return d[:, None] * u
    if name == "cx":
        ctrl, tgt = gate.qubits
        perm = idx ^ (((idx >> np.uint64(ctrl - 1)) & 1) << np.uint64(tgt - 1))
        return u[perm.astype(np.int64)]
    if name == "x":
        perm = idx ^ np.uint64(1 << (gate.qubits[0] - 1))
        return u[perm.astype(np.int64)]
    if name == "h":
        q = gate.qubits[0]
        u = np.ascontiguousarray(u)  # the butterfly below edits a reshape view
        shape = (1 << (n - q), 2, (1 << (q - 1)) * u.shape[1])
        v = u.reshape(shape)
        top = v[:, 0, :].copy()
        bottom = v[:, 1, :]
        v[:, 0, :] = (top + bottom) / math.sqrt(2)
        v[:, 1, :] = (top - bottom) / math.sqrt(2)
        return u
    raise ValueError(f"unknown gate {name!r}")


def simulate_circuit(c: Circuit, cap: int | None = None) -> np.ndarray:
    """Exact unitary of a circuit: gate product times e^(i global_phase)."""
    _check_cap(c.n_qubits, cap)
    dim = 1 << c.n_qubits
    idx = np.arange(dim, dtype=np.uint64)
    u = np.eye(dim, dtype=complex)
    for gate in c.gates:
        u = _apply_gate(u, gate, idx, c.n_qubits)
    return np.exp(1j * c.global_phase) * u


# -- controlled operators and exponentials -----------------------------------


def dense_controlled(
    f: BoolExpr,
    u: np.ndarray,
    n_ctrl: int | None = None,
    cap: int | None = None,
) -> np.ndarray:
    """Block realization of Lambda_f(U): apply U exactly where f(y) = 1.

    The control register y occupies qubits 1..k (low bits), the data
    register the qubits above it.
    """
    k = register_size(f, n_ctrl)
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1] or u.shape[0] & (u.shape[0] - 1):
        raise ValueError(f"data operator must be square power-of-two, got {u.shape}")
    n_data = (u.shape[0] - 1).bit_length()
    total = k + n_data
    _check_cap(total, cap)
    fvals = truth_table(f, k)
    dim = 1 << total
    out = np.zeros((dim, dim), dtype=complex)
    eye = np.eye(u.shape[0], dtype=complex)
    step = 1 << k
    for y in range(step):
        block = u if fvals[y] else eye
        out[y::step, y::step] = block
    return out


def expm_zham(h: DiagonalHamiltonian, t: float, cap: int | None = None) -> np.ndarray:
    """exp(-i t H) for a diagonal operator, entrywise."""
    _check_cap(h.n_qubits, cap)
    return np.diag(np.exp(-1j * t * fourier.table_from_fourier(h)))


def phase_aligned_maxdiff(a: np.ndarray, b: np.ndarray) -> float:
    """Max entry difference after aligning b's global phase to a's.

    Alignment matches the phase of the largest-magnitude entry of a.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    flat = int(np.argmax(np.abs(a)))
    pivot_a = a.flat[flat]
    pivot_b = b.flat[flat]
    if abs(pivot_a) < 1e-300 or abs(pivot_b) < 1e-300:
        return float(np.max(np.abs(a - b)))
    rotation = (pivot_a / abs(pivot_a)) / (pivot_b / abs(pivot_b))
    return float(np.max(np.abs(a - rotation * b)))


def maxdiff(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


# -- oracle-query reference ---------------------------------------------------


def bit_query_matrix(f: BoolExpr, n: int, cap: int | None = None) -> np.ndarray:
    """Reference permutation matrix |x>|a> -> |x>|a xor f(x)> built from the
    truth table (independent of the circuit and Hamiltonian paths)."""
    _check_cap(n + 1, cap)
    fvals = truth_table(f, n).astype(np.uint64)
    dim = 1 << (n + 1)
    idx = np.arange(dim, dtype=np.uint64)
    data = idx & np.uint64((1 << n) - 1)
    target = idx ^ (fvals[data.astype(np.int64)] << np.uint64(n))
    out = np.zeros((dim, dim), dtype=complex)
    out[target.astype(np.int64), idx.astype(np.int64)] = 1.0
    return out


# -- spectra -----------------------------------------------------------------


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of a diagonal operator: its 2^n value table (entry x =
    eval(x)), and ``values``, sorted on first use.  A state's place among
    the labels is its place in a stable sort of the table: by value, ties
    by index.  Labels are built only for the states a query returns."""

    table: np.ndarray

    @cached_property
    def values(self) -> np.ndarray:
        return np.sort(self.table)

    @property
    def min_value(self) -> float:
        return float(self.table.min())

    @property
    def max_value(self) -> float:
        return float(self.table.max())

    def ground_states(self, tol: float = 1e-9) -> tuple[str, ...]:
        return self._labels(np.flatnonzero(self.table <= self.min_value + tol))

    def top_states(self, tol: float = 1e-9) -> tuple[str, ...]:
        return self._labels(np.flatnonzero(self.table >= self.max_value - tol))

    def _labels(self, states: np.ndarray) -> tuple[str, ...]:
        # a stable sort of an increasing index subset keeps the full sort's order
        order = states[np.argsort(self.table[states], kind="stable")]
        n = (self.table.size - 1).bit_length()
        return tuple(basis_label(int(x), n) for x in order)


def spectrum(h: DiagonalHamiltonian) -> Spectrum:
    """Exhaustive spectrum of a diagonal operator from its value table
    (n <= 24 via the transform)."""
    return Spectrum(fourier.table_from_fourier(h))
