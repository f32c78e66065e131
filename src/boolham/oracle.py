"""Dense-matrix brute-force oracle for desk-scale verification.

Every construction in the package can be realized here as an explicit
2^n x 2^n complex matrix and compared entrywise.  Matrices follow the
package basis convention: row/column index x has x_1 as its least
significant bit, so a single-qubit operator on qubit j sits at Kronecker
position j counting from the right.

The dense register cap defaults to 12 qubits (a complex matrix is about
256 MiB at n = 12) and is hard-limited to 14.  Matrix exponentials of
diagonal operators are computed entrywise; Hermitian non-diagonal
operators go through an eigendecomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fourier
from .boolexpr import BoolExpr, Var, register_size, truth_table
from .circuits import Circuit, emit_bit_query
from .compiler import compile_expr
from .errors import CapExceeded
from .pauli import PauliOperator
from .zpoly import DiagonalHamiltonian, basis_label

DENSE_CAP_DEFAULT = 12
DENSE_CAP_MAX = 14
KICKBACK_TIMES = (1.0, math.pi)  # evolution times of the kickback sandwich checks

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


def zham_diagonal(h: DiagonalHamiltonian, cap: int | None = None) -> np.ndarray:
    """The 2^n real diagonal of a Z-polynomial (entry x = eval(x))."""
    _check_cap(h.n_qubits, cap)
    idx = np.arange(1 << h.n_qubits, dtype=np.uint64)
    diag = np.zeros(idx.shape, dtype=np.float64)
    for mask, coeff in h.items():
        parity = np.bitwise_count(idx & np.uint64(mask)) & 1
        diag += coeff * (1.0 - 2.0 * parity)
    return diag


def dense_of_zham(h: DiagonalHamiltonian, cap: int | None = None) -> np.ndarray:
    return np.diag(zham_diagonal(h, cap)).astype(complex)


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


def dense_of_expr(f: BoolExpr, n: int, cap: int | None = None) -> np.ndarray:
    """Diagonal projector realization of a Boolean function (truth-table path)."""
    _check_cap(n, cap)
    return np.diag(truth_table(f, n)).astype(complex)


# -- circuit simulation ----------------------------------------------------


def _rz_phases(idx: np.ndarray, qubit: int, angle: float) -> np.ndarray:
    bit = (idx >> np.uint64(qubit - 1)) & 1
    return np.exp(1j * (angle / 2.0) * (2.0 * bit.astype(np.float64) - 1.0))


def _apply_gate(u: np.ndarray, gate, idx: np.ndarray, n: int) -> np.ndarray:
    name = gate.name
    if name == "rz":
        return _rz_phases(idx, gate.qubits[0], gate.angle)[:, None] * u
    if name == "crz":
        ctrl, tgt = gate.qubits
        active = ((idx >> np.uint64(ctrl - 1)) & 1).astype(bool)
        d = np.where(active, _rz_phases(idx, tgt, gate.angle), 1.0)
        return d[:, None] * u
    if name == "ccrz":
        c1, c2, tgt = gate.qubits
        active = (((idx >> np.uint64(c1 - 1)) & 1) & ((idx >> np.uint64(c2 - 1)) & 1)).astype(bool)
        d = np.where(active, _rz_phases(idx, tgt, gate.angle), 1.0)
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
    return np.diag(np.exp(-1j * t * zham_diagonal(h, cap)))


def expm_hermitian(m: np.ndarray, t: float = 1.0) -> np.ndarray:
    """exp(-i t M) for Hermitian M via eigendecomposition."""
    w, v = np.linalg.eigh(m)
    return (v * np.exp(-1j * t * w)) @ v.conj().T


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


# -- oracle-query equivalence suite ------------------------------------------


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


def _embed_h(n_total: int, qubit: int) -> np.ndarray:
    m = np.eye(1, dtype=complex)
    for j in range(n_total, 0, -1):
        m = np.kron(m, H2 if j == qubit else I2)
    return m


@dataclass(frozen=True)
class KickbackReport:
    """Residuals of the four oracle-equivalence checks, max entry norm."""

    n_qubits: int
    phase_from_bit: float  # G_f on |-> realizes (-1)^f on the data register
    bit_from_controlled_phase: float  # H_a Lambda_{x_a}(e^{-i pi H_f}) H_a = G_f
    controlled_phase_from_bit: float  # two G_f + doubly controlled phase sandwich
    controlled_phase_composite: float  # same, with G_f itself expanded via (2)
    tolerance: float = 1e-9

    @property
    def residuals(self) -> dict[str, float]:
        return {
            "phase_from_bit": self.phase_from_bit,
            "bit_from_controlled_phase": self.bit_from_controlled_phase,
            "controlled_phase_from_bit": self.controlled_phase_from_bit,
            "controlled_phase_composite": self.controlled_phase_composite,
        }

    @property
    def passed(self) -> bool:
        return all(r <= self.tolerance for r in self.residuals.values())

    def lines(self) -> list[str]:
        return [
            f"{name:<28} residual {value:.3e} "
            f"{'ok' if value <= self.tolerance else 'FAIL'}"
            for name, value in self.residuals.items()
        ]


def verify_kickback_suite(
    f: BoolExpr,
    n: int | None = None,
    cap: int | None = None,
) -> KickbackReport:
    """Demonstrate the bit-query / phase-query equivalences densely.

    Register layout: control a = qubit 1, data x = qubits 2..n+1, function
    ancilla b = qubit n+2.  The emitted bit-query circuit supplies the
    constructed G_f; the truth-table permutation matrix is the reference.
    """
    n = register_size(f, n)
    _check_cap(n + 2, cap)

    hf = compile_expr(f, n)
    fsigns = 1.0 - 2.0 * truth_table(f, n)  # (-1)^f(x)
    dim_x = 1 << n

    g_circuit = simulate_circuit(emit_bit_query(f, n), cap)  # data 1..n, ancilla n+1
    g_reference = bit_query_matrix(f, n, cap)

    # (1) phase kickback: G_f |x>|-> = (-1)^f(x) |x>|->
    minus_cols = np.zeros((2 * dim_x, dim_x), dtype=complex)
    minus_cols[:dim_x, :] = np.eye(dim_x) / math.sqrt(2)
    minus_cols[dim_x:, :] = -np.eye(dim_x) / math.sqrt(2)
    r1 = maxdiff(g_circuit @ minus_cols, minus_cols * fsigns[None, :])

    # (2) single-bit phase estimation: H_a Lambda_{x_a}(e^{-i pi H_f}) H_a = G_f
    # (ancilla a = qubit n+1 here), compared on ancilla-|0> columns
    phase_block = np.zeros((2 * dim_x, 2 * dim_x), dtype=complex)
    phase_block[:dim_x, :dim_x] = np.eye(dim_x)
    phase_block[dim_x:, dim_x:] = np.diag(fsigns)
    h_anc = _embed_h(n + 1, n + 1)
    built = h_anc @ phase_block @ h_anc
    r2 = maxdiff(built[:, :dim_x], g_reference[:, :dim_x])

    # (3), (4): sandwich constructions on a + x + b
    dim_ax = 2 * dim_x
    g_high = np.kron(g_circuit, I2)  # G_f on (x, b), identity on a
    idx_full = np.arange(1 << (n + 2), dtype=np.uint64)
    a_bits = (idx_full & 1).astype(np.float64)
    b_bits = ((idx_full >> np.uint64(n + 1)) & 1).astype(np.float64)
    r3 = 0.0
    r4 = 0.0
    for t in KICKBACK_TIMES:
        target_ax = dense_controlled(
            Var(1), np.diag(np.exp(-1j * t * zham_diagonal(hf))), n_ctrl=1, cap=cap
        )
        # doubly-controlled phase e^{-i t a b} = exp of the AND Hamiltonian on (a, b)
        dphase = np.exp(-1j * t * a_bits * b_bits)
        m3 = g_high @ (dphase[:, None] * g_high)
        r3 = max(r3, maxdiff(m3[:, :dim_ax], np.vstack([target_ax, np.zeros_like(target_ax)])))

        # expand each G_f via (2): C_b = Lambda_{x_b}(e^{-i pi H_f}), H on b
        c_b = np.zeros_like(m3)
        c_b[:dim_ax, :dim_ax] = np.eye(dim_ax)
        c_b[dim_ax:, dim_ax:] = np.kron(np.diag(fsigns), I2)
        h_b = _embed_h(n + 2, n + 2)
        g_expanded = h_b @ c_b @ h_b
        m4 = g_expanded @ (dphase[:, None] * g_expanded)
        r4 = max(r4, maxdiff(m4[:, :dim_ax], np.vstack([target_ax, np.zeros_like(target_ax)])))

    return KickbackReport(n, r1, r2, r3, r4)


# -- spectra -----------------------------------------------------------------


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues in ascending order.

    For a diagonal operator ``table`` is its unsorted 2^n value table
    (entry x = eval(x)).  A state's place among the labels is its place in
    a stable sort of the table: by value, ties by index.  Labels are built
    only for the states a query returns.  Dense inputs have no table and
    no labels.
    """

    values: np.ndarray
    table: np.ndarray | None = None

    @property
    def min_value(self) -> float:
        return float(self.values[0])

    @property
    def max_value(self) -> float:
        return float(self.values[-1])

    @property
    def labels(self) -> tuple[str, ...] | None:
        """Every basis-state label, aligned with ``values``; None for dense inputs."""
        if self.table is None:
            return None
        return self._labels(np.arange(self.table.size))

    def ground_states(self, tol: float = 1e-9) -> tuple[str, ...]:
        return self._labels(np.flatnonzero(self._diagonal() <= self.min_value + tol))

    def top_states(self, tol: float = 1e-9) -> tuple[str, ...]:
        return self._labels(np.flatnonzero(self._diagonal() >= self.max_value - tol))

    def _diagonal(self) -> np.ndarray:
        if self.table is None:
            raise ValueError("dense spectra carry no basis-state labels")
        return self.table

    def _labels(self, states: np.ndarray) -> tuple[str, ...]:
        # a stable sort of an increasing index subset keeps the full sort's order
        order = states[np.argsort(self.table[states], kind="stable")]
        n = (self.table.size - 1).bit_length()
        return tuple(basis_label(int(x), n) for x in order)


def spectrum(op, cap: int | None = None) -> Spectrum:
    """Exhaustive spectrum: diagonal operators read their value table
    (n <= 24 via the transform), dense Hermitian matrices use eigvalsh."""
    if isinstance(op, DiagonalHamiltonian):
        table = fourier.table_from_fourier(op).values
        return Spectrum(np.sort(table), table)
    m = np.asarray(op)
    _check_cap((m.shape[0] - 1).bit_length(), cap)
    return Spectrum(np.linalg.eigvalsh(m))
