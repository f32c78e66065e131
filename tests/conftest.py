"""Shared test oracles, independent of the library code paths they check."""

import math

import numpy as np
import pytest

from boolham.circuits import Circuit, Gate
from boolham.compiler import compile_expr
from boolham.oracle import _check_cap, _hadamard_rows
from boolham.zpoly import DiagonalHamiltonian, qubits_of


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


def butterfly_fwht(a: np.ndarray) -> None:
    """Radix-2 butterfly Walsh-Hadamard transform of a 1-D array, in place:
    one pass per index bit h, turning each pair (u, v) of entries h apart
    into (u + v, u - v).

    The package's blocked transform is checked against it.
    """
    m = a.shape[0]
    h = 1
    while h < m:
        pairs = a.reshape(-1, 2, h)
        top = pairs[:, 0, :].copy()
        bottom = pairs[:, 1, :]
        np.add(top, bottom, out=pairs[:, 0, :])
        np.subtract(top, bottom, out=bottom)
        h *= 2


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


def _reference_term(gates: list, cxs: dict, mask: int, rotation) -> None:
    """The CX ladder down the sorted qubits of a term, rotation(its largest
    qubit), the reversed ladder; one CX object per (control, target) pair."""
    qs = qubits_of(mask)
    ladder = [cxs.setdefault(pair, Gate("cx", pair)) for pair in zip(qs, qs[1:])]
    gates += [*ladder, rotation(qs[-1]), *reversed(ladder)]


def reference_evolution(h: DiagonalHamiltonian, gamma: float) -> Circuit:
    """emit_evolution's circuit, each ladder built from its term's qubit list."""
    gates: list = []
    cxs: dict = {}
    phase = 0.0
    for mask, w in h.items():
        if mask == 0:
            phase -= gamma * w
            continue
        _reference_term(gates, cxs, mask, lambda top: Gate("rz", (top,), 2.0 * gamma * w))
    return Circuit(h.n_qubits, gates, phase)


def reference_bit_query(f, n: int | None = None) -> Circuit:
    """emit_bit_query's circuit, each ladder built from its term's qubit list."""
    hf = compile_expr(f, n)
    ancilla = hf.n_qubits + 1
    hadamard = Gate("h", (ancilla,))
    gates: list = [hadamard]
    cxs: dict = {}
    phase = 0.0
    for mask, w in hf.items():
        if mask == 0:
            gates.append(Gate("rz", (ancilla,), -math.pi * w))
            phase -= math.pi * w / 2.0
            continue
        _reference_term(
            gates, cxs, mask, lambda top: Gate("crz", (ancilla, top), 2.0 * math.pi * w)
        )
    gates.append(hadamard)
    return Circuit(ancilla, gates, phase)


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
        return _hadamard_rows(u, gate.qubits[0], n)
    raise ValueError(f"unknown gate {name!r}")


def reference_simulate(c: Circuit, cap: int | None = None) -> np.ndarray:
    """simulate_circuit gate by gate on the dense matrix: each CX and X a
    row gather, each rotation a row scaling, each H the row butterfly."""
    _check_cap(c.n_qubits, cap)
    dim = 1 << c.n_qubits
    idx = np.arange(dim, dtype=np.uint64)
    u = np.eye(dim, dtype=complex)
    for gate in c.gates:
        u = _apply_gate(u, gate, idx, c.n_qubits)
    return np.exp(1j * c.global_phase) * u


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
