"""Dense-matrix brute-force oracle for desk-scale verification.

Every construction in the package can be realized here as an explicit
2^n x 2^n complex matrix and compared entrywise.  Matrices follow the
package basis convention: row/column index x has x_1 as its least
significant bit, so a single-qubit operator on qubit j sits at Kronecker
position j counting from the right.

The dense register cap defaults to 12 qubits (a complex matrix is about
256 MiB at n = 12) and is hard-limited to 14.  ``simulate_circuit`` keeps
each run of CX, X, RZ, CRZ and CCRZ gates as a GF(2) parity map, one int
mask per qubit, and a phase vector: a CX or an X is an int XOR, a rotation
costs O(2^n).  It makes one dense pass per H gate and one at the end; an
H-free circuit builds only its result.  ``_phase_polynomial`` keeps the
same parity map with no vector at all: it returns an H-free circuit's map
and its phase polynomial P, the circuit being |x> -> e^(-i P(x)) |map(x)>,
in O(gates), so ``verify`` checks evolution circuits term by term against
gamma H_f at any register size.  Matrix exponentials of diagonal operators
are computed entrywise.  A diagonal operator's values come from one
Walsh-Hadamard transform of its coefficients
(``fourier.table_from_fourier``).  Spectra are of diagonal operators only
and read the same value table, so they reach n = 24.

The checks built on this module live in ``verify``, and none of them
builds a matrix.  A bit query never changes its data register, so
``_query_blocks`` holds its unitary as 2^n 2x2 blocks, one per data state,
built with ``simulate_circuit``'s ufunc calls and equal to its entries to
the bit.  ``simulate_circuit`` stays the dense reference.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import fourier
from .boolexpr import BoolExpr, register_size, truth_table
from .circuits import Circuit
from .errors import CapExceeded
from .pauli import PauliOperator
from .zpoly import DiagonalHamiltonian, basis_label, check_table_cap

DENSE_CAP_DEFAULT = 12
DENSE_CAP_MAX = 14

I2 = np.eye(2, dtype=complex)
X2 = np.array([[0, 1], [1, 0]], dtype=complex)
Y2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z2 = np.array([[1, 0], [0, -1]], dtype=complex)
H2 = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)

_PAULI_2x2 = {"I": I2, "X": X2, "Y": Y2, "Z": Z2}
_SIGNS = np.array([-1.0, 1.0])  # RZ's eigenvalue signs on |0> and |1>


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


def _hadamard_rows(u: np.ndarray, q: int, n: int) -> np.ndarray:
    """H on qubit q of an n-qubit register times u: a butterfly on the rows,
    in place, with one half-size temporary."""
    u = np.ascontiguousarray(u)  # the butterfly below edits a reshape view
    v = u.reshape(1 << (n - q), 2, -1)
    top, bottom = v[:, 0, :], v[:, 1, :]
    difference = top - bottom
    np.add(top, bottom, out=top)
    np.divide(top, math.sqrt(2), out=top)
    np.divide(difference, math.sqrt(2), out=bottom)
    return u


def simulate_circuit(c: Circuit, cap: int | None = None) -> np.ndarray:
    """Exact unitary of a circuit: gate product times e^(i global_phase).

    Every gate but H maps a basis state to one basis state times a phase,
    so ``_runs`` keeps each run of them as a parity map and a phase vector,
    and a CX or an X costs no array work.  The dense matrix costs one pass
    per H gate and one at the end: a run is scattered into zeros if no H
    came before it, else gathered onto the matrix and scaled in place, or
    only scaled in place if its map is the identity.  The global phase
    scales the last run, so an H-free circuit builds its result and nothing
    larger, and a bit query holds one matrix and a half-size butterfly
    temporary.
    """
    _check_cap(c.n_qubits, cap)
    u = None  # the identity, until the first H
    for masks, vals, h in _runs(c):
        u = _flush(u, masks, vals)  # rebound first: the old u is freed before H
        if h is not None:
            u = _hadamard_rows(u, h, c.n_qubits)
    return u


def _runs(c: Circuit) -> Iterator[tuple[list[int], np.ndarray, int | None]]:
    """Split c at its H gates: per run of CX, X, RZ, CRZ and CCRZ gates,
    yield its parity map, its phase vector and the qubit of the H that ends
    it (None for the last run, whose vector carries the global phase).

    The map keeps one int mask per qubit over GF(2): bit i < n of
    ``masks[q - 1]`` is set where input bit x_(i+1) enters qubit q's bit,
    and bit n where an X flipped it.  A CX or an X is an int XOR.  A
    rotation reads its qubits' bits over the 2^n inputs x as the parity of
    mask & (x + 2^n), looked up in a table, takes its exp(-+i theta/2) pair
    from one exp over all the circuit's angles, and scales ``vals`` where
    every control is 1.  This is the phase-polynomial view of CNOT+RZ
    circuits (Amy, Maslov and Mosca, arXiv:1303.2042), kept numeric.
    """
    n = c.n_qubits
    lifted = np.arange(1 << n, 2 << n)  # x with bit n set, the bit a mask's X flips sit on
    parity = np.bitwise_count(np.arange(2 << n)) & 1  # of each value of mask & lifted
    angles = np.array([gate.angle for gate in c.gates if gate.angle is not None], dtype=float)
    halves = iter(np.exp(1j * (angles / 2.0)[:, None] * _SIGNS))  # exp(-+i theta/2) per rotation
    gates = iter(c.gates)
    while True:
        masks, vals = [1 << q for q in range(n)], np.ones(1 << n, dtype=complex)
        for gate in gates:
            name, qubits = gate.name, gate.qubits
            if name == "cx":
                ctrl, tgt = qubits
                masks[tgt - 1] ^= masks[ctrl - 1]
            elif name == "x":
                masks[qubits[0] - 1] ^= 1 << n
            elif name == "h":
                yield masks, vals, qubits[0]
                break
            else:  # rz, crz, ccrz: RZ on the last qubit where every other one is 1
                *controls, tgt = qubits
                factor = next(halves).take(parity.take(lifted & masks[tgt - 1]))
                for q in controls:
                    factor[parity.take(lifted & masks[q - 1]) == 0] = 1.0
                # factor first, as the dense gate-by-gate d * u: with FMA, complex
                # products are not commutative to the bit
                np.multiply(factor, vals, out=vals)
        else:
            np.multiply(np.exp(1j * c.global_phase), vals, out=vals)
            yield masks, vals, None
            return


def _rows(masks: list[int]) -> np.ndarray:
    """The permutation of a parity map: ``rows[x]`` is the state x goes to.
    Built by doubling, rows[x + 2^i] = rows[x] ^ (the image of bit i)."""
    n = len(masks)
    image = lambda i: sum(((m >> i) & 1) << q for q, m in enumerate(masks))
    rows = np.array([image(n)])  # where 0 goes: the X flips
    for i in range(n):
        rows = np.concatenate((rows, rows ^ image(i)))
    return rows


def _flush(
    u: np.ndarray | None, masks: list[int], vals: np.ndarray, width: int | None = None
) -> np.ndarray:
    """The monomial run (masks, vals) times u, u None for the identity:
    row rows[j] of the product is vals[j] times row j of u.  A run whose
    map is the identity (a bit query's, between its H gates) scales u in
    place; any other gathers a copy.  ``width`` 2 cuts the identity's rows
    to the two columns of their block, as ``_query_blocks`` holds them."""
    idx = np.arange(vals.size)
    if u is None:
        width = width or vals.size
        out = np.zeros((vals.size, width), dtype=complex)
        out[_rows(masks), idx * width // vals.size] = vals  # column j, or j's column in its block
        return out
    if all(m == 1 << q for q, m in enumerate(masks)):
        return np.multiply(vals[:, None], u, out=u)
    inv = np.empty_like(idx)
    inv[_rows(masks)] = idx
    out = u[inv]
    return np.multiply(vals[inv][:, None], out, out=out)


# -- H-free circuits as phase polynomials ------------------------------------


def _phase_polynomial(c: Circuit) -> tuple[list[int], dict[int, float]] | None:
    """An H-free circuit as its parity map and phase polynomial, or None if
    c has an H gate: c maps |x> to e^(-i P(x)) |y>, P(x) the sum over masks
    S of ``poly[S]`` (-1)^|S & x|, and y read off ``masks`` as in ``_runs``.

    The map is ``_runs``' one int mask per qubit, bit n an X flip, with no
    2^n vector: a CX or an X is an int XOR.  RZ(theta) on a qubit of mask m
    gives e^(-i theta/2 (-1)^b), b the qubit's bit, and (-1)^b = s Z_m with
    s = -1 where m's X bit is set, so it adds s theta/2 to Z_m.  A control's
    bit is (1 - s_c Z_mc)/2, so a CRZ adds theta/4 to Z_mt and -theta/4 to
    Z_(mt ^ mc), and a CCRZ four terms of theta/8; an XOR of masks carries
    the product of their signs.  The global phase phi adds -phi to the
    identity term.  This is the phase-polynomial reading of CNOT+RZ
    circuits (Amy, Maslov and Mosca, arXiv:1303.2042), in O(gates).
    """
    n = c.n_qubits
    flip, data = 1 << n, (1 << n) - 1
    masks = [1 << q for q in range(n)]
    poly = {0: -c.global_phase}
    for gate in c.gates:
        name, qubits = gate.name, gate.qubits
        if name == "cx":
            ctrl, tgt = qubits
            masks[tgt - 1] ^= masks[ctrl - 1]
        elif name == "x":
            masks[qubits[0] - 1] ^= flip
        elif name == "h":
            return None
        else:  # rz, crz, ccrz: RZ on the last qubit where every other one is 1
            *controls, tgt = qubits
            terms = [(masks[tgt - 1], gate.angle / 2.0)]
            for q in controls:  # times the control's bit, (1 - s_c Z_mc)/2
                mc = masks[q - 1]
                terms = [t for m, a in terms for t in ((m, a / 2.0), (m ^ mc, -a / 2.0))]
            for m, a in terms:
                key = m & data
                poly[key] = poly.get(key, 0.0) + (-a if m & flip else a)
    return masks, poly


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


# -- bit queries as 2x2 blocks -----------------------------------------------


def _query_blocks(c: Circuit) -> np.ndarray | None:
    """A bit query's unitary as its 2^n 2x2 blocks, or None if c is not one.

    c acts on data qubits 1..n and the ancilla n+1.  It is a bit query if no
    run of ``_runs`` changes a data qubit's mask and every H acts on the
    ancilla: x then never moves, and block x (``out[x]``, entry [a', a])
    maps |x>|a> to |x>|a'>.  A run may still flip the ancilla's bit, a row
    swap inside a block.  The blocks are held as the dense matrix's rows,
    each cut to the two columns of its x, and built as ``simulate_circuit``
    builds those rows (``_flush`` and ``_hadamard_rows``, the same ufunc
    calls in the same order), so each entry equals the dense one to the bit.
    O(2^n) work and memory, bounded like a value table.
    """
    check_table_cap(c.n_qubits)
    n = c.n_qubits - 1
    data = [1 << q for q in range(n)]
    u = None  # the identity, until the first run
    for masks, vals, h in _runs(c):
        if masks[:n] != data or h not in (None, n + 1):
            return None
        u = _flush(u, masks, vals, width=2)
        if h is not None:
            u = _hadamard_rows(u, h, h)
    return u.reshape(2, 1 << n, 2).transpose(1, 0, 2)


# -- spectra -----------------------------------------------------------------


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of a diagonal operator: its 2^n value table (entry x =
    eval(x)), and ``values``, ``min_value`` and ``max_value``, each read
    from the table on first use and kept.  A state's place among the labels
    is its place in a stable sort of the table: by value, ties by index.
    Labels are built only for the states a query returns."""

    table: np.ndarray

    @cached_property
    def values(self) -> np.ndarray:
        return np.sort(self.table)

    @cached_property
    def min_value(self) -> float:
        return float(self.table.min())

    @cached_property
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
