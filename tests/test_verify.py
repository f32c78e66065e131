"""Tests for the bundled verification corpus and report machinery."""

import numpy as np
import pytest

from boolham import compiler
from boolham.boolexpr import max_var, parse_expr
from boolham.errors import CapExceeded
from boolham.oracle import DENSE_CAP_MAX
from boolham.verify import (
    CheckResult,
    VerificationReport,
    bundled_corpus,
    expression_checks,
    qubo_checks,
    random_qubo,
    run_corpus_verification,
    basic_clause_cases,
    three_variable_cases,
)
from boolham.zpoly import DiagonalHamiltonian


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


@pytest.mark.parametrize("n", [5, 7])
def test_a_dense_cap_above_the_maximum_is_refused(n):
    # at 7 <= n <= 8 only the evolution checks are dense, and they refuse it too
    e = parse_expr(" & ".join(f"x{j}" for j in range(1, n + 1)))
    with pytest.raises(CapExceeded, match="exceeds hard maximum"):
        expression_checks("and", e, n, dense_cap=DENSE_CAP_MAX + 1)


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
