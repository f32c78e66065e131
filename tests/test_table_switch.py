"""compile_expr's two paths: the value table where it has at most SIZE_CAP
entries, the sparse fold above.  The output is the fold's to the bit, each
register size takes one path, and the size cap keeps its meaning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolham import boolexpr, circuits, cli, compiler, fourier, oracle, verify
from boolham.boolexpr import And, Const, Implies, Not, Or, Var, Xor, conjunction, parse_expr
from boolham.cli import main
from boolham.compiler import compile_expr, compile_pseudo
from boolham.errors import CapExceeded
from boolham.verify import expression_checks
from boolham.zpoly import DiagonalHamiltonian, bit_projector

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=150)


def folded(e, n):
    return list(compiler._fold(e, n).items())


def counted(monkeypatch, calls, module, name):
    """Patch module's own ``name`` to log each call in ``calls``."""
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(name) or original(*args))


def refuse(monkeypatch, name):
    def refused(e, n):
        raise AssertionError(f"{name} called for n={n}")

    monkeypatch.setattr(compiler, name, refused)


def wide_formulas(n: int):
    # an n-ary node over n to 3n small clauses, so the fold's intermediates grow dense
    literal = st.integers(1, n).flatmap(lambda j: st.sampled_from([Var(j), Not(Var(j))]))
    node = st.sampled_from([And, Or, Xor])
    clause = st.tuples(node, st.lists(literal, min_size=2, max_size=4))
    clause = clause.map(lambda c: c[0](tuple(c[1])))
    top = st.tuples(node, st.lists(clause, min_size=max(n, 2), max_size=3 * n))
    top = top.map(lambda t: t[0](tuple(t[1])))
    return st.one_of(top, top.map(Not), st.tuples(top, top).map(lambda pair: Implies(*pair)))


def planted_3cnf(rng: np.random.Generator, n: int, m: int):
    """m random 3-clauses that a hidden assignment satisfies."""
    hidden = rng.integers(0, 2, n)
    clauses = []
    while len(clauses) < m:
        lits = [(int(v) + 1, bool(rng.random() < 0.5)) for v in rng.choice(n, 3, replace=False)]
        if any(hidden[v - 1] == positive for v, positive in lits):
            clauses.append(Or(tuple(Var(v) if positive else Not(Var(v)) for v, positive in lits)))
    return conjunction(clauses)


@PROPERTY
@given(st.sampled_from(range(1, 11)).flatmap(lambda n: st.tuples(wide_formulas(n), st.just(n))))
def test_output_is_the_folds_to_the_bit(case):
    e, n = case
    assert list(compile_expr(e, n).items()) == folded(e, n)


@pytest.mark.parametrize("n", range(10, 15))
def test_planted_3cnf_matches_the_fold(n):
    rng = np.random.default_rng([2018, n])
    for ratio in (2.0, 4.3):
        e = planted_3cnf(rng, n, round(ratio * n))
        assert list(compile_expr(e, n).items()) == folded(e, n)


def test_registers_up_to_19_qubits_take_the_table(monkeypatch):
    refuse(monkeypatch, "_fold")
    assert compile_expr(Const(1), 0) == DiagonalHamiltonian.identity(0)
    for n in range(1, 20):
        assert compile_expr(Var(n), n) == bit_projector(n, n)


def test_the_table_path_walks_the_formula_once(monkeypatch):
    # with n given, the table fold checks the variables: no max_var fold first
    e = planted_3cnf(np.random.default_rng(10), 10, 43)
    expected = compile_expr(e, 10)

    def refused(e):
        raise AssertionError("max_var called")

    monkeypatch.setattr(boolexpr, "max_var", refused)
    assert compile_expr(e, 10) == expected
    for n in range(20):
        assert compile_expr(Var(n) if n else Const(0), n).n_qubits == n


class TestSparseInputsStayOnTheFold:
    """Above 19 qubits, and in clause sums at every register size."""

    def test_sparse_clause_at_24_qubits(self, monkeypatch):
        refuse(monkeypatch, "truth_table")
        for n in (20, 24):
            h = compile_expr(parse_expr(f"x1 | !x7 | x{n}"), n)
            assert h.size == 8 and h.identity_coeff == 7 / 8

    def test_clause_sums_never_switch(self, monkeypatch):
        # a clause that compile_expr would send through the table
        dense = Or(tuple(Var(j) for j in range(1, 11)))
        expected = compile_expr(dense, 10).scaled(2.0)
        refuse(monkeypatch, "truth_table")
        assert compile_pseudo(compiler.PseudoBooleanObjective(10, ((2.0, dense),))) == expected
        # an OR of literals takes the closed form; a nested clause takes the fold
        nested = And((dense, Const(1)))
        assert compile_pseudo(compiler.PseudoBooleanObjective(10, ((2.0, nested),))) == expected


class TestEmptyRegister:
    @pytest.mark.parametrize(
        "e, value",
        [(Const(0), 0), (Const(1), 1), (Not(Const(0)), 1), (And((Const(1), Const(0))), 0),
         (Xor((Const(1), Const(1), Const(1))), 1), (Implies(Const(1), Const(0)), 0)],
    )
    def test_constants(self, e, value):
        h = compile_expr(e, 0)
        assert h.n_qubits == 0
        assert h == (DiagonalHamiltonian.identity(0) if value else DiagonalHamiltonian.zero(0))

    def test_register_size_of_a_constant(self):
        assert compile_expr(Const(1)) == DiagonalHamiltonian.identity(0)


class TestCap:
    def test_output_above_the_cap_still_raises(self, monkeypatch):
        # 2^12 > 4000: the fold at n = 12, and OR's 4096 terms pass the cap
        wide_or = Or(tuple(Var(j) for j in range(1, 13)))
        assert compile_expr(wide_or, 12).size == 4096
        monkeypatch.setattr(compiler, "SIZE_CAP", 4000)
        with pytest.raises(CapExceeded):
            compile_expr(wide_or, 12)

    def test_switched_outputs_fit_under_the_cap(self, monkeypatch):
        # 2^11 <= 4000: the table at n = 11, whose 2048 terms fit
        monkeypatch.setattr(compiler, "SIZE_CAP", 4000)
        refuse(monkeypatch, "_fold")
        wide_or = Or(tuple(Var(j) for j in range(1, 12)))
        assert compile_expr(wide_or, 11).size == 2048


def test_verify_checks_the_fold_against_the_table():
    e = Or(tuple(Var(j) for j in range(1, 9)))
    checks = {c.name: c for c in expression_checks("or8", e, 8)}
    assert checks["or8: transform paths agree"].passed
    assert checks["or8: model count"].passed


def test_verify_names_a_fold_that_disagrees(monkeypatch):
    # only the fold is broken; compile_expr takes the table
    good = compiler._fold
    monkeypatch.setattr(compiler, "_fold", lambda e, n: good(e, n).scaled(0.5))
    for n in (3, 8):
        e = Or(tuple(Var(j) for j in range(1, n + 1)))
        failed = [c.name for c in expression_checks("or", e, n) if not c.passed]
        assert failed == ["or: transform paths agree"]


@pytest.mark.parametrize("n", [9, 19, 20])
def test_verify_runs_each_transform_path_once(monkeypatch, capsys, n):
    # compile_expr's H_f is the table's transform at n <= 19 and the fold
    # above; "transform paths agree" computes only the other one
    calls = []
    counted(monkeypatch, calls, compiler, "_fold")
    counted(monkeypatch, calls, compiler, "fourier_from_table")  # compile_expr's own import
    counted(monkeypatch, calls, fourier, "fourier_from_table")  # verify's: path check, h*h
    assert main(["verify", "-e", f"(x1 | !x2) & x{n}", "-n", str(n)]) == 0
    assert "transform paths agree" in capsys.readouterr().out
    assert calls.count("_fold") == 1
    assert calls.count("fourier_from_table") == 2


def test_verify_compiles_and_tabulates_each_formula_once(monkeypatch, capsys):
    # the bit query, the ground-state logic and the reference G_f reuse the
    # suite's H_f and truth table; compile_expr tabulates once itself (n <= 19)
    calls = []
    for module in (boolexpr, circuits, cli, compiler, oracle, verify):
        for name in ("truth_table", "compile_expr"):
            if hasattr(module, name):
                counted(monkeypatch, calls, module, name)
    assert main(["verify", "-e", "(x1 | !x2) & (x3 ^ x5) | x4", "-n", "5"]) == 0
    out = capsys.readouterr().out
    assert "bit query action" in out and "kickback suite" in out
    assert "ground-state logic spectrum" in out
    assert (calls.count("truth_table"), calls.count("compile_expr")) == (2, 1)
    calls.clear()
    assert verify.verify_kickback_suite(parse_expr("(x1 & x2) | x3"), 3).passed
    assert (calls.count("truth_table"), calls.count("compile_expr")) == (2, 1)
