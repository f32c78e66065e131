"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every criterion asserts at its stated tolerance and several also
assert their stated runtime budgets.
"""

import math
import time

import numpy as np
import pytest

from boolham.boolexpr import (
    PseudoBooleanObjective,
    Var,
    eval_expr,
    parse_dimacs,
    parse_expr,
    truth_table,
)
from boolham.circuits import (
    emit_bit_query,
    emit_evolution,
    emit_qubo_evolution,
    evolution_term_profile,
)
from boolham.compiler import (
    PenaltySpec,
    augment_penalties,
    compile_expr,
    compile_pseudo,
    compile_qubo,
    ground_state_logic,
    qubo_objective,
)
from boolham.fourier import approx_report, check_approx, fourier_from_table
from boolham.oracle import (
    dense_controlled,
    expm_zham,
    maxdiff,
    phase_aligned_maxdiff,
    simulate_circuit,
    spectrum,
)
from boolham.pauli import PauliOperator, jordan_wigner, spin_lowering
from boolham.verify import (
    bundled_corpus,
    random_expr,
    random_qubo,
    basic_clause_cases,
    three_variable_cases,
    verify_kickback_suite,
)
from boolham.zpoly import DiagonalHamiltonian, basis_label, bit_projector
from conftest import (
    expm_hermitian,
    from_diagonal,
    random_cnf,
    random_zham,
    reference_bit_query_matrix,
    zham_diagonal,
)

SEED = 987654321


def report(k: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {k:2d}] {name}: {status}{suffix}")
    assert ok, f"criterion {k} failed: {name}{suffix}"


@pytest.fixture(scope="module")
def expr_corpus():
    rng = np.random.default_rng(SEED)
    corpus = []
    for i in range(200):
        n = int(rng.integers(1, 11))
        corpus.append((random_expr(rng, n, depth=6), n))
    return corpus


def test_criterion_01_basic_clause_goldens():
    start = time.perf_counter()
    worst = 0.0
    for name, text, expected in basic_clause_cases():
        worst = max(worst, compile_expr(parse_expr(text)).max_coeff_diff(expected))
    elapsed = time.perf_counter() - start
    report(
        1,
        "basic clause table reproduced coefficient-for-coefficient",
        worst <= 1e-12 and elapsed < 1.0,
        f"max diff {worst:.2e}, {elapsed:.3f}s",
    )


def test_criterion_02_three_variable_goldens():
    start = time.perf_counter()
    worst = 0.0
    for name, text, expected in three_variable_cases():
        worst = max(worst, compile_expr(parse_expr(text)).max_coeff_diff(expected))
    nae = compile_expr(parse_expr("(x1 | x2 | x3) & (!x1 | !x2 | !x3)"))
    mod3 = compile_expr(parse_expr("!((x1 | x2 | x3) & (!x1 | !x2 | !x3))"))
    complement_ok = mod3 == DiagonalHamiltonian.identity(3) - nae
    elapsed = time.perf_counter() - start
    report(
        2,
        "three-variable table exact, MOD3 = I - NAE",
        worst <= 1e-12 and complement_ok and elapsed < 1.0,
        f"max diff {worst:.2e}, {elapsed:.3f}s",
    )


def test_criterion_03_fourier_identities(expr_corpus):
    start = time.perf_counter()
    worst = 0.0
    for e, n in expr_corpus:
        h = compile_expr(e, n)
        table = truth_table(e, n)
        coeffs = np.array([c for _, c in h.items()])
        worst = max(worst, abs(float(np.sum(coeffs**2)) - h.identity_coeff))
        worst = max(worst, abs(float(np.sum(coeffs)) - table[0]))
        worst = max(worst, h.identity_coeff - 1.0, -h.identity_coeff)
        worst = max(
            worst, max((abs(c) - 0.5 for m, c in h.items() if m != 0), default=0.0)
        )
    elapsed = time.perf_counter() - start
    report(
        3,
        "Fourier identities on 200 random expressions",
        worst <= 1e-9 and elapsed < 30.0,
        f"max residual {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_04_dual_path_equivalence(expr_corpus):
    worst = 0.0
    for e, n in expr_corpus:
        via_rules = compile_expr(e, n)
        via_table = fourier_from_table(truth_table(e, n))
        worst = max(worst, via_rules.max_coeff_diff(via_table))
    report(
        4,
        "composition rules match the transform term-for-term",
        worst <= 1e-9,
        f"max coeff diff {worst:.2e}",
    )


def test_criterion_05_model_counting():
    rng = np.random.default_rng(SEED + 5)
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(2, 11))
        m = int(rng.integers(1, 2 * n + 1))
        _, conj = parse_dimacs(random_cnf(rng, n, m))
        h = compile_expr(conj, n)
        counted = round(h.identity_coeff * (1 << n))
        brute = int(truth_table(conj, n).sum())
        mismatches += counted != brute
    report(
        5,
        "identity coefficient counts models on 200 random CNFs",
        mismatches == 0,
        f"{mismatches} mismatches",
    )


def test_criterion_06_qubo_closed_form():
    rng = np.random.default_rng(SEED + 6)
    worst = 0.0
    counts_ok = True
    for _ in range(50):
        q = random_qubo(rng, int(rng.integers(2, 11)))
        closed = compile_qubo(q)
        via_clauses = compile_pseudo(qubo_objective(q), q.n_vars)
        worst = max(worst, closed.max_coeff_diff(via_clauses))
        profile = evolution_term_profile(closed)
        counts_ok &= max(profile, default=0) <= 2
        counts_ok &= profile.get(1, 0) <= q.n_vars
        counts_ok &= profile.get(2, 0) <= q.n_vars * (q.n_vars - 1) // 2
    report(
        6,
        "QUBO closed form matches composition; rotation counts bounded",
        worst <= 1e-9 and counts_ok,
        f"max coeff diff {worst:.2e}",
    )


def test_criterion_07_evolution_circuits():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED + 7)
    worst = 0.0
    counts_exact = True
    for _ in range(50):
        n = int(rng.integers(1, 9))
        size = int(rng.integers(1, min(40, 1 << n) + 1))
        ham = random_zham(rng, n, size)
        diag = zham_diagonal(ham)
        for gamma in (0.3, 1.0, math.pi):
            circ = emit_evolution(ham, gamma)
            u = simulate_circuit(circ)
            target = np.diag(np.exp(-1j * gamma * diag))
            worst = max(worst, phase_aligned_maxdiff(target, u))
            expected_cnots = sum(2 * (m.bit_count() - 1) for m, _ in ham.items() if m)
            counts_exact &= circ.cnot_count == expected_cnots
    elapsed = time.perf_counter() - start
    report(
        7,
        "emitted circuits equal the matrix exponential; CNOT counts exact",
        worst <= 1e-9 and counts_exact and elapsed < 60.0,
        f"max residual {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_08_grover_phase_query():
    worst = 0.0
    exprs, _ = bundled_corpus()
    for name, e, n in exprs:
        ham = compile_expr(e, n)
        u = expm_zham(ham, math.pi)
        signs = np.diag(1.0 - 2.0 * truth_table(e, n)).astype(complex)
        worst = max(worst, maxdiff(u, signs))
    report(
        8,
        "exp(-i pi H) is the phase query on the whole corpus",
        worst <= 1e-9,
        f"max residual {worst:.2e}",
    )


def test_criterion_09_controlled_evolution():
    rng = np.random.default_rng(SEED + 9)
    worst = 0.0
    for _ in range(20):
        k = int(rng.integers(1, 4))
        f = random_expr(rng, k, depth=3)
        n = int(rng.integers(1, 4))
        ham = random_zham(rng, n, size=int(rng.integers(1, 1 << n) + 1))
        hf_diag = zham_diagonal(compile_expr(f, k))
        tensor_dense = np.kron(
            np.diag(zham_diagonal(ham)).astype(complex), np.diag(hf_diag)
        )
        for t in (0.5, math.pi):
            lhs = dense_controlled(f, expm_zham(ham, t), n_ctrl=k)
            rhs = expm_hermitian(tensor_dense, t)
            worst = max(worst, maxdiff(lhs, rhs))
    report(
        9,
        "controlled evolution equals exp of the tensor Hamiltonian",
        worst <= 1e-9,
        f"max residual {worst:.2e}",
    )


def test_criterion_10_bit_query():
    worst = 0.0
    exprs, _ = bundled_corpus()
    for name, e, n in exprs:
        if n > 6:
            continue
        g = simulate_circuit(emit_bit_query(e, n))
        g_ref = reference_bit_query_matrix(truth_table(e, n))
        worst = max(worst, maxdiff(g, g_ref))
        worst = max(worst, maxdiff(g @ g, np.eye(g.shape[0])))
        mean = compile_expr(e, n).identity_coeff
        tr = np.trace(g) / (1 << (n + 1))
        worst = max(worst, abs(tr.real - (1.0 - mean)) + abs(tr.imag))
    cnot = simulate_circuit(emit_bit_query(Var(1), 1))
    cnot_ref = reference_bit_query_matrix(truth_table(Var(1), 1))
    toffoli = simulate_circuit(emit_bit_query(parse_expr("x1 & x2"), 2))
    toffoli_ref = reference_bit_query_matrix(truth_table(parse_expr("x1 & x2"), 2))
    exact = maxdiff(cnot, cnot_ref) <= 1e-12 and maxdiff(toffoli, toffoli_ref) <= 1e-12
    report(
        10,
        "bit query computes f in the ancilla; involution and trace identity",
        worst <= 1e-9 and exact,
        f"max residual {worst:.2e}",
    )


def test_criterion_11_kickback_suite():
    worst = 0.0
    exprs, _ = bundled_corpus()
    for name, e, n in exprs:
        if n > 5:
            continue
        rep = verify_kickback_suite(e, n)
        worst = max(worst, max(c.residual for c in rep.checks))
    report(
        11,
        "all four oracle-equivalence checks pass on the corpus",
        worst <= 1e-9,
        f"max residual {worst:.2e}",
    )


def test_criterion_12_ground_state_logic():
    rng = np.random.default_rng(SEED + 12)
    ok = True
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 6))
        e = random_expr(rng, n, depth=4)
        table = truth_table(e, n)
        spec = spectrum(ground_state_logic(e, n))
        ground = sorted(spec.ground_states(tol=1e-12))
        expected = sorted(
            basis_label(x, n) + ("1" if table[x] else "0") for x in range(1 << n)
        )
        ok &= ground == expected and len(ground) == (1 << n)
        others = spec.values[len(ground):]
        if others.size:
            worst = max(worst, float(np.max(np.abs(others - 1.0))))
        worst = max(worst, abs(spec.min_value))
    report(
        12,
        "ground space is exactly the function graph; excited levels at 1",
        ok and worst <= 1e-9,
        f"max residual {worst:.2e}",
    )


def test_criterion_13_penalty_augmentation():
    rng = np.random.default_rng(SEED + 13)
    checked = 0
    ok = True
    while checked < 20:
        n = int(rng.integers(2, 9))
        objective_clauses = tuple(
            (float(rng.uniform(-3.0, 3.0)), random_expr(rng, n, 2))
            for _ in range(int(rng.integers(1, 5)))
        )
        objective = compile_pseudo(PseudoBooleanObjective(n, objective_clauses))
        constraints = [random_expr(rng, n, 2) for _ in range(int(rng.integers(1, 3)))]
        marks = np.zeros(1 << n)
        for g in constraints:
            marks = np.maximum(marks, truth_table(g, n))
        if marks.min() == marks.max():
            continue  # no mix of feasible and infeasible states; redraw
        checked += 1
        h = augment_penalties(PenaltySpec.with_auto_weights(objective, constraints))
        values = zham_diagonal(h) if n <= 12 else None
        feasible = values[marks == 0]
        infeasible = values[marks == 1]
        ok &= float(infeasible.min()) > float(feasible.max())
    report(
        13,
        "auto penalty weights lift every infeasible state above feasible ones",
        ok,
        "20 instances",
    )


def test_criterion_14_jordan_wigner():
    worst = 0.0
    for n in range(1, 7):
        from boolham.oracle import dense_of_pauli

        lowering = [dense_of_pauli(jordan_wigner(n, j)) for j in range(1, n + 1)]
        raising = [m.conj().T for m in lowering]
        eye = np.eye(1 << n)
        for j in range(n):
            for k in range(n):
                worst = max(
                    worst,
                    maxdiff(lowering[j] @ lowering[k], -lowering[k] @ lowering[j]),
                    maxdiff(raising[j] @ raising[k], -raising[k] @ raising[j]),
                    maxdiff(
                        lowering[j] @ raising[k] + raising[k] @ lowering[j],
                        eye if j == k else 0 * eye,
                    ),
                )
    b = spin_lowering(1, 1)
    number_exact = (b.adjoint() * b) == from_diagonal(bit_projector(1, 1))
    report(
        14,
        "canonical anticommutation relations hold densely up to n=6",
        worst <= 1e-12 and number_exact,
        f"max residual {worst:.2e}",
    )


def test_criterion_15_max_norm_checker():
    third = 1.0 / 3.0
    sixth = 1.0 / 6.0
    candidate = DiagonalHamiltonian(2, {0: third, 1: -sixth, 2: -sixth})
    and_err, and_ok = check_approx(candidate, parse_expr("x1 & x2"))
    or_err, or_ok = check_approx(candidate, parse_expr("x1 | x2"))
    and_line = approx_report(candidate, parse_expr("x1 & x2"))
    or_line = approx_report(candidate, parse_expr("x1 | x2"))
    golden = (
        and_line == "max_error 0.333333333333 bound 1/3 OK"
        and or_line == "max_error 0.666666666667 bound 1/3 FAIL"
    )
    report(
        15,
        "degree-one candidate verifies for AND at 1/3 and fails for OR at 2/3",
        and_ok
        and abs(and_err - third) <= 1e-12
        and (not or_ok)
        and abs(or_err - 2 * third) <= 1e-12
        and golden,
        f"AND {and_err:.12g}, OR {or_err:.12g}",
    )


def test_criterion_16_maxsat_ground_state():
    rng = np.random.default_rng(SEED + 16)
    ok = True
    for _ in range(10):
        n = int(rng.integers(2, 11))
        m = int(rng.integers(2, 3 * n))
        clauses = []
        for _ in range(m):
            a, b = rng.choice(np.arange(1, n + 1), size=2, replace=False)
            lit_a = Var(int(a)) if rng.random() < 0.5 else ~Var(int(a))
            lit_b = Var(int(b)) if rng.random() < 0.5 else ~Var(int(b))
            clauses.append((1.0, lit_a | lit_b))
        objective = PseudoBooleanObjective(n, tuple(clauses))
        best = max(objective.value(x) for x in range(1 << n))
        spec = spectrum(-compile_pseudo(objective))
        ok &= round(spec.min_value) == -round(best) and abs(
            spec.min_value + best
        ) <= 1e-9
    report(
        16,
        "negated MAX-2-SAT objective has ground energy -(optimal clause count)",
        ok,
        "10 instances",
    )
