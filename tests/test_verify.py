"""Tests for the bundled verification corpus and report machinery."""

import hashlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from boolham import compiler
from boolham.boolexpr import Const, max_var, parse_expr, truth_table
from boolham.cli import main
from boolham.errors import CapExceeded
from boolham.oracle import DENSE_CAP_MAX
from boolham.verify import (
    TOL,
    CheckResult,
    VerificationReport,
    _ground_state_residual,
    bundled_corpus,
    expression_checks,
    qubo_checks,
    random_expr,
    random_qubo,
    run_corpus_verification,
    basic_clause_cases,
    three_variable_cases,
)
from boolham.zpoly import DiagonalHamiltonian, bit_projector
from conftest import reference_ground_state_residual
from test_fold import PROPERTY, formulas


def test_golden_tables_have_expected_shape():
    assert len(basic_clause_cases()) == 10
    assert len(three_variable_cases()) == 4
    for _, text, expected in three_variable_cases():
        assert expected.n_qubits == 3


def test_corpus_is_deterministic():
    exprs1, qubos1 = bundled_corpus()
    exprs2, qubos2 = bundled_corpus()
    assert [(name, e) for name, e, _ in exprs1] == [(name, e) for name, e, _ in exprs2]
    for (_, qa), (_, qb) in zip(qubos1, qubos2):
        assert np.array_equal(qa.quadratic, qb.quadratic)
        assert np.array_equal(qa.linear, qb.linear)


# sha256 of `boolham verify`'s check names, one a line in report order: a new
# way of reading a circuit may move residuals, never names, their order or count
CORPUS_NAMES_SHA256 = "192fd1cb956b71b6ef59b438872660a45752e468938fb1c5651b825088d56135"


def test_verify_prints_the_corpus_check_names_in_order(capsys):
    assert main(["verify"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "1084 checks, 0 failures: PASS"
    names = [line.partition(" residual ")[0].rstrip() for line in lines[:-1]]
    assert hashlib.sha256("\n".join(names).encode()).hexdigest() == CORPUS_NAMES_SHA256


def test_corpus_sizes():
    exprs, qubos = bundled_corpus()
    assert len(exprs) == 14 + 50
    assert len(qubos) == 20
    assert all(max_var(e) <= n for _, e, n in exprs)


def test_expression_checks_all_pass():
    exprs, _ = bundled_corpus(n_random_exprs=3, n_random_qubos=0)
    for name, e, n in exprs[:5] + exprs[-3:]:
        for check in expression_checks(name, e, n):
            assert check.passed, check.line()


ALWAYS_ROWS = [
    "eval matches truth table",
    "transform paths agree",
    "sum of squares = identity coeff",
    "coefficient sum = f(0..0)",
    "coefficient ranges",
    "projector h*h = h",
    "model count",
]
TIER_ROWS = [
    ["evolution circuit vs exponential", "evolution CNOT count", "Grover phase query"],
    ["bit query action", "bit query involution", "bit query trace identity"],
    ["kickback suite", "ground-state logic spectrum"],
]


@pytest.mark.parametrize("n", range(10))
def test_each_cap_runs_the_nested_tiers(n):
    # the tier rule written out: evolution on n qubits, bit query on n + 1, kickback on n + 2
    rng = np.random.default_rng(4200 + n)
    e = random_expr(rng, n, depth=3) if n else Const(1)
    q = random_qubo(rng, n)
    table = truth_table(e, n)
    always = ALWAYS_ROWS + (["size bound"] if table.min() != table.max() else [])
    for cap in range(1, DENSE_CAP_MAX + 1):
        runs = [n <= min(8, cap), n <= min(6, cap - 1), n <= min(5, cap - 2)]
        tiers = [rows for rows, run in zip(TIER_ROWS, runs) if run]
        want = [f"f: {row}" for row in always + sum(tiers, [])]
        checks = expression_checks("f", e, n, dense_cap=cap)
        assert [c.name for c in checks] == want, cap
        assert all(c.passed for c in checks), cap
        names = [c.name for c in qubo_checks("q", q, dense_cap=cap)]
        assert ("q: evolution circuit vs exponential" in names) == runs[0], cap
        assert len(names) == 3 + runs[0], cap
    # a cap above the maximum is refused exactly where some tier would run
    cap = DENSE_CAP_MAX + 1
    for check in (
        lambda: expression_checks("f", e, n, dense_cap=cap),
        lambda: qubo_checks("q", q, dense_cap=cap),
    ):
        if n <= min(8, cap):
            with pytest.raises(CapExceeded, match="exceeds hard maximum"):
                check()
        else:
            check()


def test_qubo_checks_all_pass(rng):
    q = random_qubo(rng, 4)
    for check in qubo_checks("q", q):
        assert check.passed, check.line()


def test_full_corpus_verification_passes():
    report = run_corpus_verification()
    assert report.passed
    assert not report.failures
    assert len(report.checks) == 1084
    assert report.lines()[-1] == "1084 checks, 0 failures: PASS"


def test_report_flags_failures():
    report = VerificationReport(
        (CheckResult("good", 0.0, 1e-9), CheckResult("bad", 1.0, 1e-9))
    )
    assert not report.passed
    assert len(report.failures) == 1
    assert "FAIL" in report.lines()[-1]


def test_qubo_eval_is_sampled_above_the_table_cap(rng, monkeypatch):
    q = random_qubo(rng, 30)
    checks = qubo_checks("q", q)
    assert len(checks) == 3 and all(c.passed for c in checks)
    # a wrong closed form is caught on the sample: an extra identity term of 1 shifts every value
    exact = compiler.compile_qubo(q)
    monkeypatch.setattr(
        compiler, "compile_qubo", lambda _: exact + DiagonalHamiltonian(30, {0: 1.0})
    )
    evals = [c for c in qubo_checks("q", q) if c.name == "q: eval matches polynomial"]
    assert len(evals) == 1 and abs(evals[0].residual - 1.0) < 1e-9


# -- the ground-state logic row -------------------------------------------------

CORRUPTIONS = ["none", "flipped table entry", "scaled H_f", "shifted H_f"]


@PROPERTY
@given(
    st.integers(0, 5).flatmap(lambda n: st.tuples(formulas(n), st.just(n))),
    st.sampled_from(CORRUPTIONS),
    st.integers(0, 31),
)
def test_the_index_ground_state_row_is_the_label_row(case, corruption, x):
    e, n = case
    h, table = compiler.compile_expr(e, n), truth_table(e, n)
    if corruption == "flipped table entry":
        table[x % table.size] = 1.0 - table[x % table.size]
    elif corruption == "scaled H_f":
        h = h.scaled(0.75)
    elif corruption == "shifted H_f":
        h = h + DiagonalHamiltonian(n, {0: 0.25})
    got = _ground_state_residual(h, table)
    assert got.hex() == reference_ground_state_residual(h, table).hex()
    if corruption == "none":
        assert got == 0.0


def test_a_flipped_ancilla_sign_fails_the_ground_state_row(monkeypatch):
    # I (x) x_a - H_f (x) Z_a puts the states |x>|0> with f(x) = 1 at -1
    def flipped(hf):
        ancilla = hf.n_qubits + 1
        return bit_projector(ancilla, ancilla) - hf.tensor(DiagonalHamiltonian(1, {1: 1.0}))

    e = parse_expr("(x1 | !x2) & x3")
    row = "f: ground-state logic spectrum"
    assert {c.name: c for c in expression_checks("f", e)}[row].residual <= TOL
    monkeypatch.setattr(compiler, "_ground_state_logic", flipped)
    assert {c.name: c for c in expression_checks("f", e)}[row].residual > TOL
