"""Bundled verification corpus and the end-to-end invariant suites.

The corpus covers every basic-clause and three-variable golden case plus
seeded random expressions and QUBO instances, so repeated runs produce
byte-identical reports.  Each check compares an independently constructed
reference against the compiled/emitted object and records its residual in
a CheckResult.  The oracle-query equivalence (kickback) suite is here too.

A formula's suite compiles it once and tabulates it once.  The emitted bit
query and the ground-state-logic operator are built from that H_f (the
bodies of ``emit_bit_query`` and ``ground_state_logic``), and the reference
G_f from that table, so each check still compares two independent paths.

No check builds a matrix.  An emitted evolution circuit has no H gate, so
``oracle._phase_polynomial`` reads it as a parity map and a phase
polynomial P, with no 2^n vector, and ``_evolution_residual`` compares P
with gamma H_f term by term: O(gates) work.  The map must be the identity
(a dropped or moved CX, or an H gate, reads inf), and the identity term,
a global phase, is skipped.  Each term's rotation angle 2 gamma w halves
exactly, so an emitted circuit reads residual 0.

A bit query never moves its data register, so the bit-query and kickback
checks hold G_f as 2^n 2x2 blocks (``oracle._query_blocks``, the
reference from the truth table: I where f(x) = 0, X where f(x) = 1) and
read each residual from the blocks: O(2^n) work.  The blocks come from
the phase polynomial of the circuit's middle, between its two ancilla H
gates, with one transform and no vector per rotation.  The sandwich puts
its block columns for t = 0 and each of ``KICKBACK_TIMES`` side by side and
takes one product.  The ground-state row compares the ground states' indices
with x | f(x) << n and builds no basis label.

``_tiers`` alone decides which of these checks run: three nested tiers, on
n, n + 1 and n + 2 qubits, each bounded by ``dense_cap`` and by its top in
``_TIER_TOPS``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from . import boolexpr, circuits, compiler, fourier, oracle
from .boolexpr import BoolExpr, Var, parse_expr, register_size, truth_table
from .compiler import QuboInstance, compile_expr, compile_pseudo, qubo_objective
from .zpoly import TABLE_CAP, DiagonalHamiltonian

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


def basic_clause_cases(k: int = 5) -> list[tuple[str, str, DiagonalHamiltonian]]:
    """The ten basic-clause golden Hamiltonians; k sizes the n-ary rows."""
    full = (1 << k) - 1
    and_k = {mask: (-1.0) ** mask.bit_count() / (1 << k) for mask in range(1 << k)}
    or_k = {mask: -1.0 / (1 << k) for mask in range(1, 1 << k)}
    or_k[0] = 1.0 - 1.0 / (1 << k)
    n_ary = lambda op: f" {op} ".join(f"x{j}" for j in range(1, k + 1))
    return [
        ("x", "x1", DiagonalHamiltonian(1, {0: 0.5, 1: -0.5})),
        ("not x", "!x1", DiagonalHamiltonian(1, {0: 0.5, 1: 0.5})),
        ("xor2", "x1 ^ x2", DiagonalHamiltonian(2, {0: 0.5, 3: -0.5})),
        (f"xor{k}", n_ary("^"), DiagonalHamiltonian(k, {0: 0.5, full: -0.5})),
        ("and2", "x1 & x2", DiagonalHamiltonian(2, {0: 0.25, 1: -0.25, 2: -0.25, 3: 0.25})),
        (f"and{k}", n_ary("&"), DiagonalHamiltonian(k, and_k)),
        ("or2", "x1 | x2", DiagonalHamiltonian(2, {0: 0.75, 1: -0.25, 2: -0.25, 3: -0.25})),
        (f"or{k}", n_ary("|"), DiagonalHamiltonian(k, or_k)),
        ("nand2", "!(x1 & x2)", DiagonalHamiltonian(2, {0: 0.75, 1: 0.25, 2: 0.25, 3: -0.25})),
        ("implies", "x1 => x2", DiagonalHamiltonian(2, {0: 0.75, 1: 0.25, 2: -0.25, 3: 0.25})),
    ]


def three_variable_cases() -> list[tuple[str, str, DiagonalHamiltonian]]:
    """MAJ, NAE, MOD3 and 1in3 golden Hamiltonians on three qubits."""
    eighth = 1.0 / 8.0
    one_in_three = {0: 3 * eighth, 1: eighth, 2: eighth, 4: eighth}
    one_in_three.update({3: -eighth, 5: -eighth, 6: -eighth, 7: -3 * eighth})
    return [
        (
            "maj3",
            "(x1 & x2) | (x1 & x3) | (x2 & x3)",
            DiagonalHamiltonian(3, {0: 0.5, 1: -0.25, 2: -0.25, 4: -0.25, 7: 0.25}),
        ),
        (
            "nae3",
            "(x1 | x2 | x3) & (!x1 | !x2 | !x3)",
            DiagonalHamiltonian(3, {0: 0.75, 3: -0.25, 5: -0.25, 6: -0.25}),
        ),
        (
            "mod3",
            "!((x1 | x2 | x3) & (!x1 | !x2 | !x3))",
            DiagonalHamiltonian(3, {0: 0.25, 3: 0.25, 5: 0.25, 6: 0.25}),
        ),
        (
            "1in3",
            "(x1 & !x2 & !x3) | (!x1 & x2 & !x3) | (!x1 & !x2 & x3)",
            DiagonalHamiltonian(3, one_in_three),
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


def verify_kickback_suite(
    f: BoolExpr,
    n: int | None = None,
    cap: int | None = None,
) -> VerificationReport:
    """Check the bit-query / phase-query equivalences on G_f's 2x2 blocks.

    Register layout: control a = qubit 1, data x = qubits 2..n+1, function
    ancilla b = qubit n+2.  G_f never moves x, so each operator below is
    held as its 2^n blocks on (x, b).  The emitted bit-query circuit
    supplies the constructed G_f, read by ``oracle._query_blocks`` from the
    phase polynomial of its middle with one transform and no per-rotation
    vector; the truth table's blocks are the reference.  The four checks,
    each a max entry difference:

    - phase_from_bit: G_f on |-> realizes (-1)^f on the data register
    - bit_from_controlled_phase: H_a Lambda_{x_a}(e^{-i pi H_f}) H_a = G_f
    - controlled_phase_from_bit: two G_f + doubly controlled phase sandwich
    - controlled_phase_composite: same, with G_f itself expanded as in
      bit_from_controlled_phase

    The first and third read the emitted circuit; the other two build G_f
    from the H_f diagonal, and the second compares it with the truth
    table's blocks.  f is compiled and tabulated once: the emitted G_f
    comes from that H_f, the reference G_f from that table.
    ``expression_checks`` passes the ones it has already built to the same
    checks.  ``cap`` bounds n + 2, the register the sandwich checks act on,
    though no matrix is built.
    """
    n = register_size(f, n)
    oracle._check_cap(n + 2, cap)
    hf, table = compile_expr(f, n), truth_table(f, n)
    return _kickback_checks(
        fourier.table_from_fourier(hf),
        table,
        oracle._query_blocks(circuits._bit_query(hf)),  # data 1..n, ancilla n+1
        _reference_blocks(table),
    )


def _reference_blocks(table: np.ndarray) -> np.ndarray:
    """G_f's blocks from f's value table: I where f(x) = 0, X where f(x) = 1,
    independent of the circuit and Hamiltonian paths."""
    g = np.empty((table.size, 2, 2), dtype=complex)
    g[:, 0, 0] = g[:, 1, 1] = 1.0 - table
    g[:, 0, 1] = g[:, 1, 0] = table
    return g


def _kickback_checks(
    diag: np.ndarray,
    table: np.ndarray,
    g_circuit: np.ndarray | None,
    g_reference: np.ndarray,
) -> VerificationReport:
    """The kickback suite on f's artefacts: ``diag`` the diagonal of H_f,
    ``table`` f's value table, ``g_circuit`` the emitted bit query's blocks
    (None, which fails both checks that read it, if the circuit is not a
    bit query) and ``g_reference`` the truth table's."""
    dim_x = table.size
    fsigns = 1.0 - 2.0 * table  # (-1)^f(x)

    # (1) phase kickback: G_f |x>|-> = (-1)^f(x) |x>|->
    r1 = math.inf
    if g_circuit is not None:
        kicked = (g_circuit[:, :, 0] - g_circuit[:, :, 1]) / math.sqrt(2)
        r1 = oracle.maxdiff(kicked, np.stack([fsigns, -fsigns], axis=1) / math.sqrt(2))

    # (2) single-bit phase estimation: H_a Lambda_{x_a}(e^{-i pi H_f}) H_a = G_f, the
    # controlled phase 1 on a = 0 and e^{-i pi H_f} on a = 1, compared on ancilla-|0> columns
    g_built = oracle._hadamard_blocks(np.ones(dim_x), np.exp(-1j * math.pi * diag))
    r2 = oracle.maxdiff(g_built[:, :, 0], g_reference[:, :, 0])

    return VerificationReport((
        CheckResult("phase_from_bit", r1, TOL),
        CheckResult("bit_from_controlled_phase", r2, TOL),
        # (3), (4): the sandwich on a + x + b, with G_f expanded via (2) in (4)
        CheckResult("controlled_phase_from_bit", _sandwich_residual(g_circuit, diag), TOL),
        CheckResult("controlled_phase_composite", _sandwich_residual(g_built, diag), TOL),
    ))


def _times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The blockwise product a[x] @ b[x] of two stacks of blocks."""
    return np.einsum("xij,xjk->xik", a, b)


def _sandwich_residual(g: np.ndarray | None, diag: np.ndarray) -> float:
    """G_f e^{-i t a b} G_f against Lambda_{x_a}(e^{-i t H_f}) on b = 0 inputs.  G_f acts
    on (x, b), so the a = 0 block is G_f G_f = I and the a = 1 block G_f e^{-i t b} G_f;
    per x, each is read on block column b = 0.  The columns for t = 0 (the a = 0 block)
    and each of KICKBACK_TIMES sit side by side: one product, one maxdiff."""
    if g is None:
        return math.inf
    column = g[:, :, 0]
    phases = np.exp(-1j * np.array(KICKBACK_TIMES))
    columns = np.empty((diag.size, 2, 1 + len(KICKBACK_TIMES)), dtype=complex)
    columns[:, :, 0] = column
    columns[:, 0, 1:] = column[:, :1]
    columns[:, 1, 1:] = phases * column[:, 1:]  # e^{-i t b} on block row b
    target = np.zeros(columns.shape, dtype=complex)
    target[:, 0, 0] = 1.0
    target[:, 0, 1:] = np.exp(-1j * np.multiply.outer(diag, KICKBACK_TIMES))
    return oracle.maxdiff(_times(g, columns), target)


def _ground_state_residual(h: DiagonalHamiltonian, table: np.ndarray) -> float:
    """The spectrum of I (x) x_a + H_f (x) Z_a (``compiler._ground_state_logic``)
    against f's graph: 0 if its ground states are exactly the indices
    x | f(x) << n, else 1, or the largest distance of another level from 1."""
    spec = oracle.spectrum(compiler._ground_state_logic(h))
    ground = np.flatnonzero(spec.table <= spec.min_value + 1e-9)
    graph = np.concatenate((np.flatnonzero(table == 0), table.size + np.flatnonzero(table)))
    residual = 0.0 if np.array_equal(ground, graph) else 1.0
    others = spec.values[ground.size:]
    if others.size:
        residual = max(residual, float(np.max(np.abs(others - 1.0))))
    return residual


def _evolution_residual(c: circuits.Circuit, h: DiagonalHamiltonian, gamma: float) -> float:
    """c against exp(-i gamma H) as phase polynomials (``oracle._phase_polynomial``):
    max over masks S of |P[S] - gamma w_S|, or inf if c has an H gate or its
    parity map moves a basis state.  The identity term is a global phase, so
    it is skipped."""
    read = oracle._phase_polynomial(c)
    if read is None or read[0] != [1 << q for q in range(c.n_qubits)]:
        return math.inf
    diff = read[1]
    del diff[0]
    for mask, w in h.items():
        if mask:
            diff[mask] = diff.get(mask, 0.0) - gamma * w
    return max(map(abs, diff.values()), default=0.0)


# The dense tiers nest: tier k (0 evolution, 1 bit query, 2 kickback) acts on
# n + k qubits and runs while n <= min(_TIER_TOPS[k], dense_cap - k), so a tier
# runs only where every tier before it does.
_TIER_TOPS = (8, 6, 5)


def _tiers(n: int, dense_cap: int) -> int:
    """How many dense tiers run at n; a cap above the maximum is refused
    wherever one runs."""
    runs = next(
        (k for k, top in enumerate(_TIER_TOPS) if n > min(top, dense_cap - k)), len(_TIER_TOPS)
    )
    if runs:
        oracle._check_cap(n, dense_cap)
    return runs


def expression_checks(
    name: str,
    e: BoolExpr,
    n: int | None = None,
    dense_cap: int = oracle.DENSE_CAP_DEFAULT,
) -> list[CheckResult]:
    """Full invariant suite for one Boolean formula.

    Seven rows always run, and the size bound for a non-constant formula;
    ``_tiers`` decides how many dense tiers follow: the evolution and Grover
    rows, then the bit-query rows, then the kickback and ground-state rows.
    Every check reads one H_f and one truth table of e.
    """
    n = register_size(e, n)
    h = compile_expr(e, n)
    table = truth_table(e, n)
    values = fourier.table_from_fourier(h)

    # the composition rules on sparse operators against the table's transform;
    # h is already one of the two, so only the other path runs
    if compiler._takes_table(n):
        dual, sparse = h, compiler._fold(e, n)
    else:
        dual, sparse = fourier.fourier_from_table(table), h
    coeffs = np.array([c for _, c in h.items()])
    range_violation = max(
        0.0,
        h.identity_coeff - 1.0,
        -h.identity_coeff,
        max((abs(c) - 0.5 for m, c in h.items() if m != 0), default=0.0),
    )
    rows = [
        ("eval matches truth table", float(np.max(np.abs(values - table))), TOL),
        ("transform paths agree", sparse.max_coeff_diff(dual), TOL),
        ("sum of squares = identity coeff", abs(float(np.sum(coeffs**2)) - h.identity_coeff), TOL),
        ("coefficient sum = f(0..0)", abs(float(np.sum(coeffs)) - table[0]), TOL),
        ("coefficient ranges", range_violation, TOL),
        # h is diagonal, so h*h has the value table values**2
        ("projector h*h = h", fourier.fourier_from_table(values * values).max_coeff_diff(h), TOL),
        ("model count", float(abs(fourier._count_models(h, values) - int(np.sum(table)))), 0.0),
    ]
    d = h.degree
    if d >= 1:
        bound = (math.e / d) ** (d - 1) * n**d + 1
        rows.append(("size bound", max(0.0, float(h.size) - bound), 0.0))

    tiers = _tiers(n, dense_cap)
    if tiers >= 1:
        worst = count_defect = 0.0
        expected_cnots = sum(2 * (m.bit_count() - 1) for m, _ in h.items() if m)
        for gamma in (0.3, 1.0, math.pi):
            circ = circuits.emit_evolution(h, gamma)
            worst = max(worst, _evolution_residual(circ, h, gamma))
            count_defect = max(count_defect, float(abs(circ.cnot_count - expected_cnots)))
        # both sides are diagonal, so their diagonals hold every difference
        grover = oracle.maxdiff(np.exp(-1j * math.pi * values), 1.0 - 2.0 * table)
        rows += [
            ("evolution circuit vs exponential", worst, TOL),
            ("evolution CNOT count", count_defect, 0.0),
            ("Grover phase query", grover, TOL),
        ]
    if tiers >= 2:
        g = oracle._query_blocks(circuits._bit_query(h))
        g_ref = _reference_blocks(table)
        if g is None:  # not a bit query: every check that reads it fails
            action = involution = trace = math.inf
        else:
            action = oracle.maxdiff(g, g_ref)
            involution = oracle.maxdiff(_times(g, g), np.eye(2))
            tr = np.trace(g, axis1=1, axis2=2).sum()
            trace = abs(tr.real / (2 << n) - (1.0 - h.identity_coeff)) + abs(tr.imag / (2 << n))
        rows += [
            ("bit query action", action, TOL),
            ("bit query involution", involution, TOL),
            ("bit query trace identity", trace, TOL),
        ]
    if tiers >= 3:  # the same H_f diagonal, table and G_f blocks as the bit-query rows
        report = _kickback_checks(values, table, g, g_ref)
        rows += [
            ("kickback suite", max(c.residual for c in report.checks), TOL),
            ("ground-state logic spectrum", _ground_state_residual(h, table), TOL),
        ]
    return [CheckResult(f"{name}: {row}", residual, tol) for row, residual, tol in rows]


def qubo_checks(
    name: str, q: QuboInstance, dense_cap: int = oracle.DENSE_CAP_DEFAULT
) -> list[CheckResult]:
    """Closed form vs clause composition, values against the QUBO (every
    assignment up to TABLE_CAP, a fixed sample above it), rotation counts,
    and the evolution circuit where the first dense tier runs (``_tiers``)."""
    closed = compiler.compile_qubo(q)
    via_clauses = compile_pseudo(qubo_objective(q), q.n_vars)
    n = q.n_vars
    if n <= TABLE_CAP:
        xs = range(1 << n)
        values = fourier.table_from_fourier(closed)
    else:  # no table: a fixed sample that includes all-zeros and all-ones
        rnd = random.Random(QUBO_SAMPLE_SEED)
        xs = [0, (1 << n) - 1, *(rnd.getrandbits(n) for _ in range(QUBO_SAMPLE_SIZE - 2))]
        values = np.array([closed.eval(x) for x in xs])
    direct = np.array([q.value(x) for x in xs])
    profile = circuits.evolution_term_profile(closed)
    count_ok = (
        max(profile, default=0) <= 2
        and profile.get(1, 0) <= n
        and profile.get(2, 0) <= n * (n - 1) // 2
    )
    rows = [
        ("closed form vs composition", closed.max_coeff_diff(via_clauses), TOL),
        ("eval matches polynomial", float(np.max(np.abs(values - direct))), TOL),
        ("rotation counts within bounds", 0.0 if count_ok else 1.0, 0.0),
    ]
    if _tiers(n, dense_cap):
        t = 0.7
        residual = _evolution_residual(circuits.emit_qubo_evolution(q, t), closed, t)
        rows.append(("evolution circuit vs exponential", residual, TOL))
    return [CheckResult(f"{name}: {row}", residual, tol) for row, residual, tol in rows]


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
