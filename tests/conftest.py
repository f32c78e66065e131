"""Shared test oracles, independent of the library code paths they check."""

import functools
import math
import re

import numpy as np
import pytest

from boolham.boolexpr import (
    And,
    Const,
    Implies,
    Not,
    Or,
    PseudoBooleanObjective,
    Var,
    Xor,
    compose,
    fold,
    register_size,
)
from boolham.circuits import Circuit, Gate
from boolham.compiler import _ground_state_logic, _guard, compile_expr
from boolham.errors import ParseError
from boolham.oracle import _check_cap, _hadamard_rows, _rows, _runs, spectrum
from boolham.pauli import PauliOperator, PauliString
from boolham.verify import KICKBACK_TIMES
from boolham.zpoly import (
    DiagonalHamiltonian,
    basis_label,
    bit_projector,
    check_table_cap,
    qubit_bit,
    qubits_of,
)


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


def _reference_operands(node) -> tuple:
    if isinstance(node, (Var, Const)):
        return ()
    if isinstance(node, Not):
        return (node.child,)
    if isinstance(node, (And, Or, Xor)):
        return node.children
    if isinstance(node, Implies):
        return (node.lhs, node.rhs)
    raise TypeError(f"not a BoolExpr node: {node!r}")


def reference_fold(e, combine, pairwise: bool = False):
    """boolexpr.fold as a pre-order list of (node, arity) steps, replayed in
    reverse on a value stack; a pairwise And/Or/Xor adds a (node, 2) step
    after each operand past the first."""
    order: list = []
    pending: list = [e]  # nodes to expand, and (node, 2) pairwise steps
    while pending:
        node = pending.pop()
        if type(node) is tuple:
            order.append(node)
            continue
        operands = _reference_operands(node)
        if pairwise and isinstance(node, (And, Or, Xor)):
            pending.append(operands[0])
            for operand in operands[1:]:
                pending.append(operand)
                pending.append((node, 2))
        else:
            order.append((node, len(operands)))
            pending.extend(operands)
    # reversed pre-order with the last operand expanded first is a
    # left-to-right post-order: each node's operand values end the stack
    values: list = []
    for node, arity in reversed(order):
        if arity:
            args = values[-arity:]
            del values[-arity:]
        else:
            args = ()
        values.append(combine(node, args))
    return values[0]


def reference_truth_table(e, n: int) -> np.ndarray:
    """The composition rules (``compose``) on 0/1 uint8 vectors, one column
    per variable, pairwise for n-ary nodes: the vector form of truth_table,
    with its cap and register checks."""
    check_table_cap(n)
    if n < 0:
        register_size(e, n)
    idx = np.arange(1 << n, dtype=np.uint32)
    one = np.ones(1 << n, dtype=np.uint8)

    @functools.cache
    def var(j: int) -> np.ndarray:
        if j > n:
            register_size(e, n)
        return ((idx >> np.uint32(j - 1)) & 1).astype(np.uint8)

    table = reference_fold(e, lambda node, values: compose(node, values, one, var), pairwise=True)
    return table.astype(np.float64)


def reference_zham_fold(e, n: int) -> DiagonalHamiltonian:
    """H_e on n qubits by the composition rules (``compose``) over
    DiagonalHamiltonian, pairwise for n-ary nodes: every +, - and * builds a
    sorted, checked and pruned operator, each variable is ``bit_projector``,
    and ``_guard`` sees each pairwise and => result.  The reference for
    ``compiler._fold``, which runs the same rules on a private term ring."""
    identity = DiagonalHamiltonian.identity(n)
    var = functools.cache(functools.partial(bit_projector, n))  # one projector per variable
    step = lambda h: _guard(h.size, h)
    return fold(e, lambda node, values: compose(node, values, identity, var, step), pairwise=True)


def reference_clause_expr(lits):
    """A DIMACS clause built from fresh nodes, one per occurrence of a literal."""
    if not lits:
        return Const(0)
    parts = tuple(Var(l) if l > 0 else Not(Var(-l)) for l in lits)
    return parts[0] if len(parts) == 1 else Or(parts)


def reference_parse_dimacs(text: str):
    """parse_dimacs line by line: each line that is neither blank nor a
    comment is checked and read on its own, in order; one node per distinct
    literal, shared by the clauses that read it."""
    n_vars = None
    n_clauses_declared = None
    weighted = False
    weights: list[float] = []
    clause_lits: list[list[int]] = []
    current: list[int] = []
    current_weight = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if not line.isascii() or "_" in line:
            raise ParseError(f"line {lineno}: numbers must be plain ASCII digits: {line!r}")
        if line.startswith("p"):
            if n_vars is not None:
                raise ParseError(f"line {lineno}: duplicate problem line")
            fields = line.split()
            if len(fields) != 4 or fields[1] not in ("cnf", "wcnf"):
                raise ParseError(f"line {lineno}: malformed header {line!r}")
            try:
                n_vars = int(fields[2])
                n_clauses_declared = int(fields[3])
            except ValueError as exc:
                raise ParseError(f"line {lineno}: malformed header {line!r}") from exc
            if n_vars < 0 or n_clauses_declared < 0:
                raise ParseError(f"line {lineno}: negative counts in header")
            weighted = fields[1] == "wcnf"
            continue
        if n_vars is None:
            raise ParseError(f"line {lineno}: clause before 'p cnf' header")
        for tok in line.split():
            if weighted and current_weight is None:  # a WCNF clause starts with its weight
                try:
                    current_weight = float(tok)
                except ValueError as exc:
                    raise ParseError(f"line {lineno}: bad clause weight {tok!r}") from exc
                if not math.isfinite(current_weight):
                    raise ParseError(f"line {lineno}: clause weight {tok!r} must be finite")
                continue
            try:
                lit = int(tok)
            except ValueError as exc:
                raise ParseError(f"line {lineno}: bad literal {tok!r}") from exc
            if lit == 0:
                clause_lits.append(current)
                weights.append(1.0 if current_weight is None else current_weight)
                current = []
                current_weight = None
            else:
                if abs(lit) > n_vars:
                    raise ParseError(f"line {lineno}: literal {lit} out of range (n={n_vars})")
                current.append(lit)

    if n_vars is None:
        raise ParseError("missing 'p cnf' header")
    if current or current_weight is not None:
        raise ParseError("last clause is missing its terminating 0")
    if len(clause_lits) != n_clauses_declared:
        raise ParseError(f"header declares {n_clauses_declared} clauses, found {len(clause_lits)}")

    nodes: dict = {}

    def literal(l: int):
        if l not in nodes:
            nodes[l] = Var(l) if l > 0 else Not(literal(-l))
        return nodes[l]

    exprs = []
    for lits in clause_lits:
        parts = tuple(map(literal, lits))
        exprs.append(Const(0) if not parts else parts[0] if len(parts) == 1 else Or(parts))
    objective = PseudoBooleanObjective(n_vars, tuple(zip(weights, exprs)))
    conj = Const(1) if not exprs else exprs[0] if len(exprs) == 1 else And(tuple(exprs))
    return objective, conj


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


def _reference_term(gates: list, cxs: dict, rotations: dict, mask: int, w: float,
                    rotation) -> None:
    """The CX ladder down the sorted qubits of a term, rotation(its largest
    qubit), the reversed ladder; one CX object per (control, target) pair and
    one rotation per (largest qubit, coefficient w)."""
    qs = qubits_of(mask)
    ladder = [cxs.setdefault(pair, Gate("cx", pair)) for pair in zip(qs, qs[1:])]
    if (qs[-1], w) not in rotations:
        rotations[qs[-1], w] = rotation(qs[-1])
    gates += [*ladder, rotations[qs[-1], w], *reversed(ladder)]


def reference_evolution(h: DiagonalHamiltonian, gamma: float) -> Circuit:
    """emit_evolution's circuit, each ladder built from its term's qubit list."""
    gates: list = []
    cxs: dict = {}
    rotations: dict = {}
    phase = 0.0
    for mask, w in h.items():
        if mask == 0:
            phase -= gamma * w
            continue
        _reference_term(
            gates, cxs, rotations, mask, w, lambda top: Gate("rz", (top,), 2.0 * gamma * w)
        )
    return Circuit(h.n_qubits, gates, phase)


def reference_bit_query(f, n: int | None = None) -> Circuit:
    """emit_bit_query's circuit, each ladder built from its term's qubit list."""
    hf = compile_expr(f, n)
    ancilla = hf.n_qubits + 1
    hadamard = Gate("h", (ancilla,))
    gates: list = [hadamard]
    cxs: dict = {}
    rotations: dict = {}
    phase = 0.0
    for mask, w in hf.items():
        if mask == 0:
            gates.append(Gate("rz", (ancilla,), -math.pi * w))
            phase -= math.pi * w / 2.0
            continue
        _reference_term(
            gates, cxs, rotations, mask, w,
            lambda top: Gate("crz", (ancilla, top), 2.0 * math.pi * w),
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


def _monomial(c: Circuit) -> tuple[np.ndarray, np.ndarray]:
    """An H-free circuit's unitary as two 2^n vectors, phase included:
    column j's one entry sits in row ``rows[j]`` with value ``vals[j]``.
    Bounded like a value table, not by the dense cap."""
    check_table_cap(c.n_qubits)
    masks, vals, h = next(_runs(c))
    if h is not None:
        raise ValueError(f"a monomial circuit has no H gate, found one on qubit {h}")
    return _rows(masks), vals


def _monomial_maxdiff(t: np.ndarray, rows: np.ndarray, vals: np.ndarray) -> float:
    """``phase_aligned_maxdiff(np.diag(t), u)`` to the bit, u the monomial
    (rows, vals) of ``_monomial``, from 2^n-entry vectors: the same pivot
    (the first largest |t|) and the same guard.  Column j's entry sits on
    the diagonal where rows[j] == j, and off it elsewhere, where it differs
    from zero by itself and leaves t[j] on the diagonal."""
    moved = rows != np.arange(rows.size)
    k = int(np.argmax(np.abs(t)))
    pivot_a, pivot_b = t[k], 0j if moved[k] else vals[k]
    if abs(pivot_a) < 1e-300 or abs(pivot_b) < 1e-300:
        b = vals
    else:
        b = ((pivot_a / abs(pivot_a)) / (pivot_b / abs(pivot_b))) * vals
    if not moved.any():
        return float(np.max(np.abs(t - b)))
    diagonal = np.abs(np.where(moved, t, t - b))
    return float(max(np.max(diagonal), np.max(np.abs(b[moved]))))


def reference_walk(c: Circuit, x: int) -> tuple[int, float]:
    """An H-free circuit on the basis state |x>, one gate at a time on a
    Python int: c|x> = e^(i phase) |image>, returned as (image, phase).  A CX
    flips its target where its control is 1 and an X flips its qubit; a
    rotation adds -theta/2 where its target is 0 and theta/2 where it is 1,
    if every control is 1.  O(gates) per state at any n, no 2^n vector."""
    phase = c.global_phase
    for g in c.gates:
        bits = [(x >> (q - 1)) & 1 for q in g.qubits]
        if g.name == "cx":
            x ^= bits[0] << (g.qubits[1] - 1)
        elif g.name == "x":
            x ^= 1 << (g.qubits[0] - 1)
        elif g.name in ("rz", "crz", "ccrz"):  # RZ on the last qubit
            *controls, target = bits
            if all(controls):
                phase += g.angle / 2.0 if target else -g.angle / 2.0
        else:
            raise ValueError(f"the walk reads H-free circuits, found {g.name!r}")
    return x, phase


def reference_bit_query_matrix(table: np.ndarray, cap: int | None = None) -> np.ndarray:
    """Dense permutation matrix |x>|a> -> |x>|a xor f(x)> from f's value table
    (2^n entries of 0 or 1); the ancilla a is qubit n+1."""
    n = (table.size - 1).bit_length()
    _check_cap(n + 1, cap)
    fvals = table.astype(np.uint64)
    dim = 1 << (n + 1)
    idx = np.arange(dim, dtype=np.uint64)
    data = idx & np.uint64((1 << n) - 1)
    target = idx ^ (fvals[data.astype(np.int64)] << np.uint64(n))
    out = np.zeros((dim, dim), dtype=complex)
    out[target.astype(np.int64), idx.astype(np.int64)] = 1.0
    return out


def _reference_sandwich(g: np.ndarray, diag: np.ndarray) -> float:
    dim_x = diag.size
    residual = float(np.max(np.abs(g @ g[:, :dim_x] - np.eye(2 * dim_x, dim_x))))
    for t in KICKBACK_TIMES:
        phase_b = np.repeat([1.0, np.exp(-1j * t)], dim_x)  # e^{-i t b}
        target = np.vstack([np.diag(np.exp(-1j * t * diag)), np.zeros((dim_x, dim_x))])
        residual = max(residual, float(np.max(np.abs(g @ (phase_b[:, None] * g[:, :dim_x]) - target))))
    return residual


def reference_kickback_checks(
    diag: np.ndarray, table: np.ndarray, g_circuit: np.ndarray, g_reference: np.ndarray
) -> tuple[float, float, float, float]:
    """The kickback suite's four residuals (phase_from_bit,
    bit_from_controlled_phase, controlled_phase_from_bit,
    controlled_phase_composite) on dense 2^(n+1)-square bit queries:
    ``g_circuit`` the simulated circuit, ``g_reference`` the truth table's."""
    dim_x = table.size
    anc = dim_x.bit_length()
    fsigns = 1.0 - 2.0 * table
    kicked = (g_circuit[:, :dim_x] - g_circuit[:, dim_x:]) / math.sqrt(2)
    target = np.vstack([np.diag(fsigns), -np.diag(fsigns)]) / math.sqrt(2)
    r1 = float(np.max(np.abs(kicked - target)))
    phase = np.concatenate([np.ones(dim_x), fsigns])
    h_anc = _hadamard_rows(np.eye(2 * dim_x, dtype=complex), anc, anc)
    g_built = _hadamard_rows(phase[:, None] * h_anc, anc, anc)
    r2 = float(np.max(np.abs(g_built[:, :dim_x] - g_reference[:, :dim_x])))
    return (
        r1, r2, _reference_sandwich(g_circuit, diag), _reference_sandwich(g_built, diag)
    )


def reference_sandwich_residual(g: np.ndarray | None, diag: np.ndarray) -> float:
    """The kickback sandwich on 2x2 blocks one time at a time: a product and a
    maxdiff for the a = 0 block (G_f G_f = I) and one more per KICKBACK_TIMES
    entry (G_f e^{-i t b} G_f), each read on block column b = 0."""
    if g is None:
        return math.inf
    times = lambda a, b: np.einsum("xij,xjk->xik", a, b)
    column = g[:, :, :1]
    residual = float(np.max(np.abs(times(g, column) - np.array([[1.0], [0.0]]))))
    for t in KICKBACK_TIMES:
        phase_b = np.array([[1.0], [np.exp(-1j * t)]])  # e^{-i t b} on block row b
        target = np.stack([np.exp(-1j * t * diag), np.zeros(diag.size)], axis=1)[:, :, None]
        residual = max(residual, float(np.max(np.abs(times(g, phase_b * column) - target))))
    return residual


def reference_ground_state_residual(h: DiagonalHamiltonian, table: np.ndarray) -> float:
    """The "ground-state logic spectrum" row by labels: the sorted labels of
    the ground states of I (x) x_a + H_f (x) Z_a against the sorted strings
    x + f(x), then every other level against 1."""
    n = h.n_qubits
    spec = spectrum(_ground_state_logic(h))
    expected = sorted(basis_label(x, n) + ("1" if table[x] else "0") for x in range(1 << n))
    ground = sorted(spec.ground_states(tol=1e-9))
    residual = 0.0 if ground == expected else 1.0
    others = spec.values[len(ground):]
    if others.size:
        residual = max(residual, float(np.max(np.abs(others - 1.0))))
    return residual


def random_cnf(
    rng: np.random.Generator, n_vars: int, n_clauses: int, max_width: int = 3
) -> str:
    """Random DIMACS CNF text."""
    lines = [f"p cnf {n_vars} {n_clauses}"]
    for _ in range(n_clauses):
        width = int(rng.integers(1, min(max_width, n_vars) + 1))
        vars_ = rng.choice(np.arange(1, n_vars + 1), size=width, replace=False)
        lits = [int(v) if rng.random() < 0.5 else -int(v) for v in vars_]
        lines.append(" ".join(map(str, lits)) + " 0")
    return "\n".join(lines) + "\n"


def from_diagonal(h: DiagonalHamiltonian) -> PauliOperator:
    """A diagonal operator as a Pauli sum: Z strings, the same coefficients."""
    return PauliOperator(
        h.n_qubits,
        ((PauliString(h.n_qubits, 0, mask), c) for mask, c in h.items()),
    )


def reference_format_angle(a) -> str:
    """The shortest of a's 15, 16 and 17 significant-digit %g forms that
    parses back to a: serialize's angle text, by trying each in turn."""
    for precision in (15, 16, 17):
        text = f"{a:.{precision}g}"
        if float(text) == a:
            return text
    return repr(a)


def reference_serialize(c: Circuit) -> str:
    """serialize with every gate line written in full, its angle formatted anew."""
    lines = [f"qubits {c.n_qubits}", f"phase {reference_format_angle(c.global_phase)}"]
    for g in c.gates:
        parts = [g.name, *map(str, g.qubits)]
        if g.angle is not None:
            parts.append(reference_format_angle(g.angle))
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def _reference_line_error(text: str, line: str, message: str, start: int = 0) -> ParseError:
    """A ParseError naming the first line whose stripped text is ``line``,
    counting from the ``start``-th line that is neither blank nor a comment."""
    significant = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        ln = raw.strip()
        if not ln or ln.startswith("#"):
            continue
        if significant >= start and ln == line:
            return ParseError(f"line {lineno}: {message}: {line!r}")
        significant += 1
    raise AssertionError(f"no line {line!r}")


# gate name -> number of qubits, takes an angle
_REFERENCE_GATE_SHAPE = {
    "cx": (2, False), "rz": (1, True), "h": (1, False), "x": (1, False),
    "crz": (2, True), "ccrz": (3, True),
}


def _reference_parse_gate(text: str, ln: str, n_qubits: int, start: int) -> Gate:
    """One gate line, its rules tested one at a time in the order the
    library words them: name, field count, numbers, distinct and 1-based
    qubits, a finite angle, the register bound."""

    def fault(message: str) -> ParseError:
        return _reference_line_error(text, ln, message, start)

    name, *fields = ln.split()
    if name not in _REFERENCE_GATE_SHAPE:
        raise fault("unknown gate")
    arity, takes_angle = _REFERENCE_GATE_SHAPE[name]
    if len(fields) != arity + takes_angle:
        raise fault("wrong number of fields")
    try:
        qubits = tuple(int(f) for f in fields[:arity])
        angle = float(fields[arity]) if takes_angle else None
    except ValueError as exc:
        raise fault(str(exc)) from exc
    if len(set(qubits)) != arity:
        raise fault(f"{name} qubits must be distinct: {qubits}")
    if min(qubits) < 1:
        raise fault(f"qubit indices are 1-based: {qubits}")
    if takes_angle and not math.isfinite(angle):
        raise fault(f"{name} needs a finite angle, got {angle!r}")
    if max(qubits) > n_qubits:
        raise fault(f"gate {name} touches qubit {max(qubits)} on a {n_qubits}-qubit circuit")
    return Gate(name, qubits, angle)


def reference_parse_circuit(text: str) -> Circuit:
    """parse_circuit with every distinct gate line read by a generic line
    reader that tests each rule in turn and words each ParseError.  A
    header line is known by its first whitespace-split field."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not text.isascii() or "_" in text:
        for bad in (ln for ln in lines if not ln.isascii() or "_" in ln):
            raise _reference_line_error(text, bad, "numbers must be plain ASCII digits")
    if not lines or lines[0].split()[0] != "qubits":
        raise ParseError("circuit text must start with a 'qubits N' line")
    header, body = lines[0], lines[1:]
    try:
        _, count = header.split()
        n = int(count)
    except ValueError as exc:
        raise _reference_line_error(text, header, "bad qubits line") from exc
    if n < 0:
        raise _reference_line_error(text, header, "negative qubit count")
    phase = 0.0
    start = 1  # the gate lines follow the header lines
    if body and body[0].split()[0] == "phase":
        try:
            _, value = body[0].split()
            phase = float(value)
        except ValueError as exc:
            raise _reference_line_error(text, body[0], "bad phase line", 1) from exc
        if not math.isfinite(phase):
            raise _reference_line_error(text, body[0], "phase must be finite", 1)
        body = body[1:]
        start = 2
    parsed: dict = {}
    for ln in body:
        if ln not in parsed:
            parsed[ln] = _reference_parse_gate(text, ln, n, start)
    return Circuit(n, [parsed[ln] for ln in body], phase)


_REFERENCE_PAULI_ATOM = re.compile(r"([XYZ])([0-9]+)(?![^\sXYZ])|(\S[^\sXYZ]*)")


def reference_parse_pauli_label(label: str, n_qubits: int) -> tuple[int, int]:
    """parse_pauli_label with every label read by the regex reader alone."""
    if not isinstance(label, str) or not label.isascii():
        raise ParseError(f"Pauli label must be an ASCII string, got {label!r}")
    label = label.strip()
    if label in ("I", ""):
        return 0, 0
    x_mask = z_mask = 0
    for letter, digits, bad in _REFERENCE_PAULI_ATOM.findall(label):
        if bad:
            raise ParseError(f"bad Pauli atom {bad!r} in label {label!r}")
        j = int(digits)
        bit = qubit_bit(j, n_qubits)
        if (x_mask | z_mask) & bit:
            raise ParseError(f"qubit {j} appears twice in label {label!r}")
        if letter != "Z":
            x_mask |= bit
        if letter != "X":
            z_mask |= bit
    return x_mask, z_mask


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
