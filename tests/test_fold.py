"""The formula fold: deep formulas, parser limits, and the composition
rules as properties over random formulas."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolham.boolexpr import (
    MAX_NESTING,
    And,
    Const,
    Implies,
    Not,
    Or,
    Var,
    Xor,
    eval_expr,
    max_var,
    parse_expr,
    to_text,
    truth_table,
)
from boolham.cli import main
from boolham.compiler import compile_expr
from boolham.errors import ParseError
from boolham.zpoly import bit_projector

DEPTH = 5000


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDeepFormulas:
    def test_not_chain(self):
        e = Var(1)
        for _ in range(DEPTH):
            e = Not(e)
        assert max_var(e) == 1
        assert [eval_expr(e, x) for x in (0, 1)] == [0, 1]
        assert truth_table(e, 1).tolist() == [0.0, 1.0]
        assert to_text(e) == "!" * DEPTH + "x1"
        assert compile_expr(e) == bit_projector(1, 1)
        # equality, hashing and repr of an independently built twin
        twin = Var(1)
        for _ in range(DEPTH):
            twin = Not(twin)
        assert e == twin and hash(e) == hash(twin) and {e: 1}[twin] == 1
        assert e != Not(twin) and e != Not(Var(2))
        assert repr(e) == f"parse_expr({to_text(e)!r})"

    def test_alternating_and_or_chain(self):
        e = Var(1)
        for i in range(DEPTH):
            e = (And if i % 2 else Or)((e, Var(2)))
        assert compile_expr(e) == bit_projector(2, 2)
        assert truth_table(e, 2).tolist() == [eval_expr(e, x) for x in range(4)]
        with pytest.raises(ParseError, match="nested deeper"):
            parse_expr(to_text(e))


class TestParserLimits:
    def test_long_negation_run(self, capsys):
        code, out, _ = run(capsys, "compile", "-e", "!" * 1500 + "x1")
        assert code == 0 and out == "0.5 I - 0.5 Z1\n"

    def test_long_implication_chain(self):
        text = "x1 => " * 1500 + "x2"
        assert to_text(parse_expr(text)) == text

    def test_nesting_past_the_limit_names_the_parenthesis(self):
        assert parse_expr("(" * MAX_NESTING + "x1" + ")" * MAX_NESTING) == Var(1)
        text = "(" * (MAX_NESTING + 1) + "x1" + ")" * (MAX_NESTING + 1)
        with pytest.raises(ParseError) as info:
            parse_expr(text)
        assert info.value.position == MAX_NESTING

    def test_deep_parentheses_exit_1_with_one_line(self, capsys):
        code, out, err = run(capsys, "compile", "-e", "(" * 500 + "x1" + ")" * 500)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("boolham: parse error:")


# -- properties -----------------------------------------------------------

PROPERTY = settings(derandomize=True, deadline=None, database=None)


def formulas(n: int):
    constants = st.sampled_from([Const(0), Const(1)])
    leaves = st.one_of(st.integers(1, n).map(Var), constants) if n else constants

    def extend(kids):
        operands = st.lists(kids, min_size=2, max_size=3).map(tuple)
        return st.one_of(
            kids.map(Not),
            st.tuples(kids, kids).map(lambda pair: Implies(*pair)),
            operands.map(And),
            operands.map(Or),
            operands.map(Xor),
        )

    return st.recursive(leaves, extend, max_leaves=12)


formula_and_size = st.integers(1, 8).flatmap(
    lambda n: st.tuples(formulas(n), st.just(n))
)


@PROPERTY
@given(formula_and_size)
def test_compile_eval_and_table_agree(case):
    e, n = case
    h = compile_expr(e, n)
    table = truth_table(e, n)
    for x in range(1 << n):
        value = eval_expr(e, x)
        assert value == table[x]
        assert abs(h.eval(x) - value) <= 1e-9


@PROPERTY
@given(formula_and_size)
def test_text_round_trip(case):
    e, _ = case
    assert parse_expr(to_text(e)) == e


@PROPERTY
@given(formula_and_size)
def test_parseval(case):
    # for 0/1-valued f: sum_S f_hat(S)^2 = E[f^2] = E[f] = f_hat(empty)
    e, n = case
    h = compile_expr(e, n)
    assert abs(sum(c * c for _, c in h.items()) - h.identity_coeff) <= 1e-9
