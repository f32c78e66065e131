"""Bundled verification corpus and the end-to-end invariant suites.

The corpus covers every basic-clause and three-variable golden case plus
seeded random expressions and QUBO instances, so repeated runs produce
byte-identical reports.  Each check compares an independently constructed
reference against the compiled/emitted object and records its residual in
a CheckResult.  The oracle-query equivalence (kickback) suite is here too,
built on the dense matrices of ``oracle``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from . import boolexpr, circuits, compiler, fourier, oracle
from .boolexpr import BoolExpr, Var, parse_expr, register_size, truth_table
from .compiler import QuboInstance, compile_expr, compile_pseudo, qubo_objective
from .zpoly import TABLE_CAP, DiagonalHamiltonian, basis_label

TOL = 1e-9
GOLDEN_TOL = 1e-12
# assignments the QUBO "eval matches polynomial" check samples above TABLE_CAP
QUBO_SAMPLE_SIZE = 256
QUBO_SAMPLE_SEED = 20180419


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol

    def line(self) -> str:
        mark = "ok" if self.passed else "FAIL"
        return f"{self.name:<44} residual {self.residual:.3e}  tol {self.tol:.0e}  {mark}"


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def lines(self) -> list[str]:
        out = [c.line() for c in self.checks]
        out.append(
            f"{len(self.checks)} checks, {len(self.failures)} failures: "
            + ("PASS" if self.passed else "FAIL")
        )
        return out


# -- golden cases -----------------------------------------------------------


def _ham(n: int, terms: dict[int, float]) -> DiagonalHamiltonian:
    return DiagonalHamiltonian(n, terms)


def basic_clause_cases(k: int = 5) -> list[tuple[str, str, DiagonalHamiltonian]]:
    """The ten basic-clause golden Hamiltonians; k sizes the n-ary rows."""
    full = (1 << k) - 1
    and_k = {
        mask: (-1.0) ** mask.bit_count() / (1 << k) for mask in range(1 << k)
    }
    or_k = {mask: -1.0 / (1 << k) for mask in range(1, 1 << k)}
    or_k[0] = 1.0 - 1.0 / (1 << k)
    return [
        ("x", "x1", _ham(1, {0: 0.5, 1: -0.5})),
        ("not x", "!x1", _ham(1, {0: 0.5, 1: 0.5})),
        ("xor2", "x1 ^ x2", _ham(2, {0: 0.5, 3: -0.5})),
        (
            f"xor{k}",
            " ^ ".join(f"x{j}" for j in range(1, k + 1)),
            _ham(k, {0: 0.5, full: -0.5}),
        ),
        ("and2", "x1 & x2", _ham(2, {0: 0.25, 1: -0.25, 2: -0.25, 3: 0.25})),
        (
            f"and{k}",
            " & ".join(f"x{j}" for j in range(1, k + 1)),
            _ham(k, and_k),
        ),
        ("or2", "x1 | x2", _ham(2, {0: 0.75, 1: -0.25, 2: -0.25, 3: -0.25})),
        (
            f"or{k}",
            " | ".join(f"x{j}" for j in range(1, k + 1)),
            _ham(k, or_k),
        ),
        ("nand2", "!(x1 & x2)", _ham(2, {0: 0.75, 1: 0.25, 2: 0.25, 3: -0.25})),
        ("implies", "x1 => x2", _ham(2, {0: 0.75, 1: 0.25, 2: -0.25, 3: 0.25})),
    ]


def three_variable_cases() -> list[tuple[str, str, DiagonalHamiltonian]]:
    """MAJ, NAE, MOD3 and 1in3 golden Hamiltonians on three qubits."""
    eighth = 1.0 / 8.0
    return [
        (
            "maj3",
            "(x1 & x2) | (x1 & x3) | (x2 & x3)",
            _ham(3, {0: 0.5, 1: -0.25, 2: -0.25, 4: -0.25, 7: 0.25}),
        ),
        (
            "nae3",
            "(x1 | x2 | x3) & (!x1 | !x2 | !x3)",
            _ham(3, {0: 0.75, 3: -0.25, 5: -0.25, 6: -0.25}),
        ),
        (
            "mod3",
            "!((x1 | x2 | x3) & (!x1 | !x2 | !x3))",
            _ham(3, {0: 0.25, 3: 0.25, 5: 0.25, 6: 0.25}),
        ),
        (
            "1in3",
            "(x1 & !x2 & !x3) | (!x1 & x2 & !x3) | (!x1 & !x2 & x3)",
            _ham(
                3,
                {
                    0: 3 * eighth,
                    1: eighth,
                    2: eighth,
                    4: eighth,
                    3: -eighth,
                    5: -eighth,
                    6: -eighth,
                    7: -3 * eighth,
                },
            ),
        ),
    ]


# -- random corpus ----------------------------------------------------------


def random_expr(rng: np.random.Generator, n_vars: int, depth: int) -> BoolExpr:
    """Random formula over x1..x{n_vars} with the given maximum depth."""
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.05:
            return boolexpr.Const(int(rng.integers(2)))
        return Var(int(rng.integers(1, n_vars + 1)))
    kind = rng.integers(5)
    if kind == 0:
        return boolexpr.Not(random_expr(rng, n_vars, depth - 1))
    if kind == 4:
        return boolexpr.Implies(
            random_expr(rng, n_vars, depth - 1), random_expr(rng, n_vars, depth - 1)
        )
    arity = int(rng.integers(2, 4))
    children = tuple(random_expr(rng, n_vars, depth - 1) for _ in range(arity))
    node = (boolexpr.And, boolexpr.Or, boolexpr.Xor)[kind - 1]
    return node(children)


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


def random_qubo(rng: np.random.Generator, n_vars: int) -> QuboInstance:
    quad = np.zeros((n_vars, n_vars))
    for j in range(n_vars):
        for k in range(j + 1, n_vars):
            if rng.random() < 0.6:
                quad[j, k] = quad[k, j] = rng.uniform(-2.0, 2.0)
    return QuboInstance(
        n_vars,
        float(rng.uniform(-2.0, 2.0)),
        rng.uniform(-2.0, 2.0, size=n_vars),
        quad,
    )


# -- invariant checks --------------------------------------------------------

KICKBACK_TIMES = (1.0, math.pi)  # evolution times of the kickback sandwich checks


def _embed_h(n_total: int, qubit: int) -> np.ndarray:
    """Hadamard on one qubit of n_total (qubit 1 is the rightmost factor)."""
    high = np.eye(1 << (n_total - qubit), dtype=complex)
    return np.kron(np.kron(high, oracle.H2), np.eye(1 << (qubit - 1), dtype=complex))


def verify_kickback_suite(
    f: BoolExpr,
    n: int | None = None,
    cap: int | None = None,
) -> VerificationReport:
    """Check the bit-query / phase-query equivalences densely.

    Register layout: control a = qubit 1, data x = qubits 2..n+1, function
    ancilla b = qubit n+2.  The emitted bit-query circuit supplies the
    constructed G_f; the truth-table permutation matrix is the reference.
    The four checks, each a max entry difference:

    - phase_from_bit: G_f on |-> realizes (-1)^f on the data register
    - bit_from_controlled_phase: H_a Lambda_{x_a}(e^{-i pi H_f}) H_a = G_f
    - controlled_phase_from_bit: two G_f + doubly controlled phase sandwich
    - controlled_phase_composite: same, with G_f itself expanded as in
      bit_from_controlled_phase

    The first and third read the emitted circuit; the other two are built
    from the truth table alone.  This builds H_f, the truth table and both
    G_f matrices for f; ``expression_checks`` passes the ones it has
    already built to the same checks.
    """
    n = register_size(f, n)
    oracle._check_cap(n + 2, cap)
    return _kickback_checks(
        fourier.table_from_fourier(compile_expr(f, n)),
        truth_table(f, n),
        oracle.simulate_circuit(circuits.emit_bit_query(f, n), cap),  # data 1..n, ancilla n+1
        oracle.bit_query_matrix(f, n, cap),
        cap,
    )


def _kickback_checks(
    diag: np.ndarray,
    table: np.ndarray,
    g_circuit: np.ndarray,
    g_reference: np.ndarray,
    cap: int | None,
) -> VerificationReport:
    """The kickback suite on f's dense artefacts: ``diag`` the diagonal of
    H_f, ``table`` f's value table, ``g_circuit`` the simulated emitted bit
    query and ``g_reference`` the truth-table one."""
    dim_x = table.size
    n = dim_x.bit_length() - 1
    fsigns = 1.0 - 2.0 * table  # (-1)^f(x)

    # (1) phase kickback: G_f |x>|-> = (-1)^f(x) |x>|->
    minus_cols = np.zeros((2 * dim_x, dim_x), dtype=complex)
    minus_cols[:dim_x, :] = np.eye(dim_x) / math.sqrt(2)
    minus_cols[dim_x:, :] = -np.eye(dim_x) / math.sqrt(2)
    r1 = oracle.maxdiff(g_circuit @ minus_cols, minus_cols * fsigns[None, :])

    # (2) single-bit phase estimation: H_a Lambda_{x_a}(e^{-i pi H_f}) H_a = G_f
    # (ancilla a = qubit n+1 here), compared on ancilla-|0> columns
    phase_block = np.zeros((2 * dim_x, 2 * dim_x), dtype=complex)
    phase_block[:dim_x, :dim_x] = np.eye(dim_x)
    phase_block[dim_x:, dim_x:] = np.diag(fsigns)
    h_anc = _embed_h(n + 1, n + 1)
    built = h_anc @ phase_block @ h_anc
    r2 = oracle.maxdiff(built[:, :dim_x], g_reference[:, :dim_x])

    # (3), (4): sandwich constructions on a + x + b
    dim_ax = 2 * dim_x
    dim = 2 * dim_ax
    g_high = np.kron(g_circuit, oracle.I2)  # G_f on (x, b), identity on a
    idx_full = np.arange(dim, dtype=np.uint64)
    a_bits = (idx_full & 1).astype(np.float64)
    b_bits = ((idx_full >> np.uint64(n + 1)) & 1).astype(np.float64)
    # expand G_f via (2): C_b = Lambda_{x_b}(e^{-i pi H_f}), H on b
    c_b = np.zeros((dim, dim), dtype=complex)
    c_b[:dim_ax, :dim_ax] = np.eye(dim_ax)
    c_b[dim_ax:, dim_ax:] = np.kron(np.diag(fsigns), oracle.I2)
    h_b = _embed_h(n + 2, n + 2)
    g_expanded = h_b @ c_b @ h_b
    r3 = 0.0
    r4 = 0.0
    for t in KICKBACK_TIMES:
        target_ax = oracle.dense_controlled(
            Var(1), np.diag(np.exp(-1j * t * diag)), n_ctrl=1, cap=cap
        )
        target = np.vstack([target_ax, np.zeros_like(target_ax)])
        # doubly-controlled phase e^{-i t a b} = exp of the AND Hamiltonian on (a, b)
        dphase = np.exp(-1j * t * a_bits * b_bits)
        m3 = g_high @ (dphase[:, None] * g_high)
        r3 = max(r3, oracle.maxdiff(m3[:, :dim_ax], target))
        m4 = g_expanded @ (dphase[:, None] * g_expanded)
        r4 = max(r4, oracle.maxdiff(m4[:, :dim_ax], target))

    return VerificationReport((
        CheckResult("phase_from_bit", r1, TOL),
        CheckResult("bit_from_controlled_phase", r2, TOL),
        CheckResult("controlled_phase_from_bit", r3, TOL),
        CheckResult("controlled_phase_composite", r4, TOL),
    ))


def expression_checks(
    name: str,
    e: BoolExpr,
    n: int | None = None,
    dense_cap: int = oracle.DENSE_CAP_DEFAULT,
) -> list[CheckResult]:
    """Full invariant suite for one Boolean formula.

    Dense-matrix checks run only where they fit under ``dense_cap`` (the
    kickback suite needs two extra ancilla qubits, the bit query one).
    """
    n = register_size(e, n)
    h = compile_expr(e, n)
    table = truth_table(e, n)
    out: list[CheckResult] = []

    values = fourier.table_from_fourier(h)
    out.append(
        CheckResult(f"{name}: eval matches truth table", float(np.max(np.abs(values - table))), TOL)
    )

    # where compile_expr may return the table's transform itself, the
    # composition rules are checked on the fold that never leaves them
    dual = fourier.fourier_from_table(table)
    sparse = h if compiler._switch_size(n) is None else compiler._fold(e, n)
    out.append(CheckResult(f"{name}: transform paths agree", sparse.max_coeff_diff(dual), TOL))

    coeffs = np.array([c for _, c in h.items()])
    sq_sum = float(np.sum(coeffs**2))
    out.append(
        CheckResult(f"{name}: sum of squares = identity coeff", abs(sq_sum - h.identity_coeff), TOL)
    )
    out.append(
        CheckResult(
            f"{name}: coefficient sum = f(0..0)",
            abs(float(np.sum(coeffs)) - table[0]),
            TOL,
        )
    )
    range_violation = max(
        0.0,
        h.identity_coeff - 1.0,
        -h.identity_coeff,
        max((abs(c) - 0.5 for m, c in h.items() if m != 0), default=0.0),
    )
    out.append(CheckResult(f"{name}: coefficient ranges", range_violation, TOL))
    out.append(CheckResult(f"{name}: projector h*h = h", fourier.projector_defect(h), TOL))

    brute_count = int(np.sum(table))
    counted = fourier._count_models(h, values)
    out.append(CheckResult(f"{name}: model count", float(abs(counted - brute_count)), 0.0))

    d = h.degree
    if d >= 1:
        bound = (math.e / d) ** (d - 1) * n**d + 1
        out.append(
            CheckResult(f"{name}: size bound", max(0.0, float(h.size) - bound), 0.0)
        )

    if n <= min(8, dense_cap):
        worst = 0.0
        count_defect = 0.0
        expected_cnots = sum(2 * (m.bit_count() - 1) for m, _ in h.items() if m)
        for gamma in (0.3, 1.0, math.pi):
            circ = circuits.emit_evolution(h, gamma)
            u = oracle.simulate_circuit(circ, cap=dense_cap)
            target = np.diag(np.exp(-1j * gamma * values))
            worst = max(worst, oracle.phase_aligned_maxdiff(target, u))
            count_defect = max(count_defect, float(abs(circ.cnot_count - expected_cnots)))
        out.append(CheckResult(f"{name}: evolution circuit vs exponential", worst, TOL))
        out.append(CheckResult(f"{name}: evolution CNOT count", count_defect, 0.0))

        # both sides are diagonal, so their diagonals hold every difference
        residual = oracle.maxdiff(np.exp(-1j * math.pi * values), 1.0 - 2.0 * table)
        out.append(CheckResult(f"{name}: Grover phase query", residual, TOL))

    if n <= min(6, dense_cap - 1):
        g = oracle.simulate_circuit(circuits.emit_bit_query(e, n), cap=dense_cap)
        g_ref = oracle.bit_query_matrix(e, n, cap=dense_cap)
        out.append(CheckResult(f"{name}: bit query action", oracle.maxdiff(g, g_ref), TOL))
        out.append(
            CheckResult(
                f"{name}: bit query involution",
                oracle.maxdiff(g @ g, np.eye(g.shape[0])),
                TOL,
            )
        )
        trace_target = 1.0 - h.identity_coeff
        out.append(
            CheckResult(
                f"{name}: bit query trace identity",
                abs(np.trace(g).real / (1 << (n + 1)) - trace_target)
                + abs(np.trace(g).imag / (1 << (n + 1))),
                TOL,
            )
        )

    if n <= min(5, dense_cap - 2):
        # the same H_f diagonal, table and G_f matrices as the checks above
        report = _kickback_checks(values, table, g, g_ref, dense_cap)
        out.append(
            CheckResult(f"{name}: kickback suite", max(c.residual for c in report.checks), TOL)
        )
        hg = compiler.ground_state_logic(e, n)
        spec_g = oracle.spectrum(hg)
        expected_ground = sorted(
            basis_label(x, n) + ("1" if table[x] else "0") for x in range(1 << n)
        )
        ground = sorted(spec_g.ground_states(tol=1e-9))
        residual = 0.0 if ground == expected_ground else 1.0
        others = spec_g.values[len(ground):]
        if others.size:
            residual = max(residual, float(np.max(np.abs(others - 1.0))))
        out.append(CheckResult(f"{name}: ground-state logic spectrum", residual, TOL))

    return out


def qubo_checks(
    name: str, q: QuboInstance, dense_cap: int = oracle.DENSE_CAP_DEFAULT
) -> list[CheckResult]:
    """Closed form vs clause composition, values against the QUBO (every
    assignment up to TABLE_CAP, a fixed sample above it), rotation counts,
    and the evolution circuit where it fits under ``dense_cap``."""
    out: list[CheckResult] = []
    closed = compiler.compile_qubo(q)
    via_clauses = compile_pseudo(qubo_objective(q), q.n_vars)
    out.append(
        CheckResult(f"{name}: closed form vs composition", closed.max_coeff_diff(via_clauses), TOL)
    )

    n = q.n_vars
    if n <= TABLE_CAP:
        xs = range(1 << n)
        values = fourier.table_from_fourier(closed)
    else:  # no table: a fixed sample that includes all-zeros and all-ones
        rnd = random.Random(QUBO_SAMPLE_SEED)
        xs = [0, (1 << n) - 1, *(rnd.getrandbits(n) for _ in range(QUBO_SAMPLE_SIZE - 2))]
        values = np.array([closed.eval(x) for x in xs])
    direct = np.array([q.value(x) for x in xs])
    out.append(CheckResult(f"{name}: eval matches polynomial", float(np.max(np.abs(values - direct))), TOL))

    profile = circuits.evolution_term_profile(closed)
    max_deg = max(profile, default=0)
    count_ok = (
        max_deg <= 2
        and profile.get(1, 0) <= q.n_vars
        and profile.get(2, 0) <= q.n_vars * (q.n_vars - 1) // 2
    )
    out.append(CheckResult(f"{name}: rotation counts within bounds", 0.0 if count_ok else 1.0, 0.0))

    if q.n_vars <= min(8, dense_cap):
        t = 0.7
        u = oracle.simulate_circuit(circuits.emit_qubo_evolution(q, t), cap=dense_cap)
        target = np.diag(np.exp(-1j * t * values))
        out.append(
            CheckResult(f"{name}: evolution circuit vs exponential", oracle.phase_aligned_maxdiff(target, u), TOL)
        )
    return out


def bundled_corpus(
    n_random_exprs: int = 50, n_random_qubos: int = 20, seed: int = 20180419
) -> tuple[list[tuple[str, BoolExpr, int]], list[tuple[str, QuboInstance]]]:
    """Deterministic corpus: golden tables plus seeded random instances."""
    rng = np.random.default_rng(seed)
    exprs: list[tuple[str, BoolExpr, int]] = []
    for name, text, _ in basic_clause_cases() + three_variable_cases():
        e = parse_expr(text)
        exprs.append((name, e, boolexpr.max_var(e)))
    for i in range(n_random_exprs):
        n = int(rng.integers(2, 7))
        exprs.append((f"rand{i:02d}", random_expr(rng, n, depth=4), n))
    qubos = [(f"qubo{i:02d}", random_qubo(rng, int(rng.integers(2, 7)))) for i in range(n_random_qubos)]
    return exprs, qubos


def run_corpus_verification(
    dense_cap: int = oracle.DENSE_CAP_DEFAULT,
) -> VerificationReport:
    """The full bundled suite behind the `verify` CLI subcommand."""
    checks: list[CheckResult] = []
    for name, text, expected in basic_clause_cases() + three_variable_cases():
        h = compile_expr(parse_expr(text))
        checks.append(
            CheckResult(f"golden {name}", h.max_coeff_diff(expected), GOLDEN_TOL)
        )
    exprs, qubos = bundled_corpus()
    for name, e, n in exprs:
        checks.extend(expression_checks(name, e, n, dense_cap=dense_cap))
    for name, q in qubos:
        checks.extend(qubo_checks(name, q, dense_cap=dense_cap))
    return VerificationReport(tuple(checks))
