"""The formula fold: deep formulas, parser limits, the frame walk against
the reference walk, the composition rules as properties over random
formulas, and ``compiler._fold``'s term ring against the fold over
DiagonalHamiltonian."""

from unittest import mock

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
    fold,
    max_var,
    parse_expr,
    to_text,
    truth_table,
)
from boolham import compiler
from boolham.cli import main
from boolham.compiler import compile_expr
from boolham.errors import CapExceeded, ParseError, QubitCountError
from boolham.zpoly import MAX_QUBITS, bit_projector
from conftest import reference_fold, reference_zham_fold
from test_table_switch import wide_formulas

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


    @pytest.mark.parametrize("shape", ["nary-last-operand", "implies-lhs"])
    def test_chain(self, shape):
        def build():
            e = Var(1)
            for i in range(DEPTH):
                if shape == "implies-lhs":
                    e = Implies(e, Var(2))
                else:  # alternating types, so no node flattens into its parent
                    e = (And if i % 2 else Or)((Var(2), Not(Var(1)), e))
            return e

        e = build()
        table = [eval_expr(e, x) for x in range(4)]
        assert truth_table(e, 2).tolist() == table
        h = compile_expr(e, 2)
        assert [h.eval(x) for x in range(4)] == table
        sparse = compile_expr(e, 24)  # past the table's size cap: the fold
        assert [sparse.eval(x) for x in range(4)] == table
        assert [(mask, c.hex()) for mask, c in sparse.items()] == [
            (mask, c.hex()) for mask, c in h.items()
        ]
        assert max_var(e) == 2
        text = to_text(e)
        assert text.count("x1") == 1 + (DEPTH if shape != "implies-lhs" else 0)
        twin = build()
        assert e == twin and hash(e) == hash(twin) and {e: 1}[twin] == 1
        assert e != Not(twin)

    @pytest.mark.parametrize(
        "e",
        [And((Var(1), 5)), Not(None), Implies(Var(1), "x2"), Or((Xor((Var(1), Var(2))), Not(3.0)))],
        ids=["nary", "not", "implies", "nested"],
    )
    def test_non_node_operand_is_a_type_error(self, e):
        for pairwise in (False, True):
            with pytest.raises(TypeError, match="not a BoolExpr node"):
                fold(e, lambda node, values: 0, pairwise)
        with pytest.raises(TypeError, match="not a BoolExpr node"):
            truth_table(e, 2)
        with pytest.raises(TypeError, match="not a BoolExpr node"):
            max_var(e)


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


# -- the frame walk against the reference walk --------------------------------

NODE_TYPES = ["not", "implies", "and", "or", "xor"]


@st.composite
def shared_formulas(draw):
    """A formula over x1..x4 built bottom-up from a pool of nodes: each new
    node takes its operands from the pool with repeats, so subtrees are
    shared; And/Or/Xor take 2-6 operands."""
    pool = draw(st.lists(st.sampled_from([Var(1), Var(2), Var(3), Var(4), Const(0), Const(1)]),
                         min_size=1, max_size=4))
    for kind in draw(st.lists(st.sampled_from(NODE_TYPES), min_size=1, max_size=14)):
        pick = st.sampled_from(pool)
        if kind == "not":
            node = Not(draw(pick))
        elif kind == "implies":
            node = Implies(draw(pick), draw(pick))
        else:
            operands = tuple(draw(st.lists(pick, min_size=2, max_size=6)))
            node = {"and": And, "or": Or, "xor": Xor}[kind](operands)
        pool.append(node)
    return pool[-1]


def recorded_fold(walk, e, pairwise):
    """The combine calls walk makes, as (node id, operand values); each call
    returns its own index, so the values name the calls that made them."""
    calls = []

    def combine(node, values):
        calls.append((id(node), tuple(values)))
        return len(calls) - 1

    return walk(e, combine, pairwise), calls


@PROPERTY
@given(shared_formulas(), st.booleans())
def test_frame_walk_makes_the_reference_walks_calls(e, pairwise):
    assert recorded_fold(fold, e, pairwise) == recorded_fold(reference_fold, e, pairwise)


# -- the term ring against the fold over DiagonalHamiltonian -------------------


def hex_terms(h) -> list[tuple[int, str]]:
    return [(mask, c.hex()) for mask, c in h.items()]


# every register size, sparse formulas on wide registers, and dense ones at n <= 8
any_register = st.integers(0, MAX_QUBITS).flatmap(lambda n: st.tuples(formulas(n), st.just(n)))
dense_and_size = st.integers(1, 8).flatmap(lambda n: st.tuples(wide_formulas(n), st.just(n)))


@PROPERTY
@given(st.one_of(any_register, dense_and_size))
def test_the_ring_fold_is_the_operator_fold_to_the_bit(case):
    # keys, their order and every coefficient's bits
    e, n = case
    assert hex_terms(compiler._fold(e, n)) == hex_terms(reference_zham_fold(e, n))


def folded_or_cap(fold_, e, n):
    try:
        return hex_terms(fold_(e, n))
    except CapExceeded as exc:
        return str(exc)


@PROPERTY
@given(st.one_of(formula_and_size, dense_and_size), st.integers(1, 64))
def test_both_folds_hit_a_low_cap_on_the_same_inputs(case, cap):
    e, n = case
    with mock.patch.object(compiler, "SIZE_CAP", cap):
        assert folded_or_cap(compiler._fold, e, n) == folded_or_cap(reference_zham_fold, e, n)


def test_a_low_cap_stops_both_folds_at_the_same_intermediate():
    # OR_5's pairwise intermediates have 4, 8, 16 and 32 terms
    wide_or = Or(tuple(Var(j) for j in range(1, 6)))
    for cap, outcome in ((32, "ok"), (31, "has 32 terms"), (15, "has 16 terms")):
        with mock.patch.object(compiler, "SIZE_CAP", cap):
            got = [folded_or_cap(fold_, wide_or, 5) for fold_ in (compiler._fold, reference_zham_fold)]
        assert got[0] == got[1]
        assert isinstance(got[0], list) if outcome == "ok" else outcome in got[0]


@pytest.mark.parametrize(
    "e, n",
    [(Var(3), 2), (And((Var(1), Not(Var(5)))), 4), (Var(64), MAX_QUBITS), (Var(1), 0),
     (Const(1), MAX_QUBITS + 1), (Const(0), -1)],
)
def test_a_variable_or_register_out_of_range_is_refused_as_before(e, n):
    messages = []
    for fold_ in (compiler._fold, reference_zham_fold):
        with pytest.raises(QubitCountError) as info:
            fold_(e, n)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
