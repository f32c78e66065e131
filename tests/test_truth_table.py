"""truth_table holds f's table as one int of 2^n bits, one bitwise
operation per connective.  It gives the same floats, the same H_f and the
same errors as the composition rules on uint8 vectors (reference_truth_table
in conftest), in at most 1.6 times its output's memory.  parse_dimacs makes
one node per literal and shares it among the clauses that read it."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from boolham.boolexpr import (
    And,
    Const,
    Implies,
    Not,
    Or,
    PseudoBooleanObjective,
    Var,
    Xor,
    conjunction,
    eval_expr,
    parse_dimacs,
    truth_table,
)
from boolham.compiler import compile_expr, compile_pseudo
from boolham.errors import ParseError
from boolham.fourier import fourier_from_table
from conftest import brute_table, reference_clause_expr, reference_truth_table
from test_fold import PROPERTY, formulas
from test_table_switch import planted_3cnf


def hex_terms(h) -> list[tuple[int, str]]:
    return [(mask, c.hex()) for mask, c in h.items()]


def assert_same_table(e, n: int) -> np.ndarray:
    table = truth_table(e, n)
    assert table.dtype == np.float64 and table.shape == (1 << n,)
    assert np.array_equal(table, reference_truth_table(e, n))
    # compile_expr's H_f is the reference table's transform, to the bit
    assert hex_terms(compile_expr(e, n)) == hex_terms(fourier_from_table(reference_truth_table(e, n)))
    return table


formula_on_0_to_12 = st.integers(0, 12).flatmap(lambda n: st.tuples(formulas(n), st.just(n)))


@PROPERTY
@given(formula_on_0_to_12)
def test_table_matches_the_reference_and_pointwise_eval(case):
    e, n = case
    table = assert_same_table(e, n)
    assert table.tolist() == brute_table(lambda x: eval_expr(e, x), n)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 9, 12])
def test_every_node_type_below_and_above_one_byte(n):
    # tables of 1, 2 and 4 bits are shorter than one byte
    x = [Var(min(j, n)) for j in (1, 2, 3, 4)] if n else [Const(1), Const(0), Const(1), Const(0)]
    e = Implies(Or((x[0], Not(x[1]), Const(0))), Xor((And((x[2], x[3], Const(1))), x[0], x[1])))
    table = assert_same_table(e, n)
    assert table.tolist() == brute_table(lambda a: eval_expr(e, a), n)


@pytest.mark.parametrize("n", range(0, 13))
def test_each_variable_column(n):
    for j in range(1, n + 1):
        table = assert_same_table(Var(j), n)
        assert table.tolist() == [(x >> (j - 1)) & 1 for x in range(1 << n)]
    assert_same_table(Const(1), n)
    assert_same_table(Const(0), n)


@pytest.mark.parametrize("n", [12, 19])
def test_planted_3cnf_and_xor_at_the_size_cap_edge(n):
    # 2^19 entries is SIZE_CAP's edge: the largest table compile_expr takes
    e = planted_3cnf(np.random.default_rng([23, n]), n, 80)
    assert truth_table(e, n).sum() >= 1
    assert_same_table(e, n)
    assert_same_table(Xor(tuple(Var(j) for j in range(1, n + 1))), n)


# -- errors ------------------------------------------------------------------


def raised(build, *args) -> tuple[type, str]:
    with pytest.raises(Exception) as info:
        build(*args)
    return type(info.value), str(info.value)


DEEP = And((Or((Var(1), Not(Implies(Var(2), Xor((Var(3), Not(Var(9)))))))), Var(2)))


@pytest.mark.parametrize(
    "e, n, message",
    [
        (DEEP, 3, "formula uses x9 but register has 3 qubits"),
        (Or((Var(1), Var(4))), 3, "formula uses x4 but register has 3 qubits"),
        (Var(1), 0, "formula uses x1 but register has 0 qubits"),
        (Var(1), -1, "register size -1 is negative"),
        (Const(1), -2, "register size -2 is negative"),
        (Var(1), 25, "dense table for n=25 exceeds cap 24"),
        (DEEP, 25, "dense table for n=25 exceeds cap 24"),
    ],
    ids=["deep", "second-operand", "empty-register", "negative", "negative-constant",
         "past-table-cap", "past-table-cap-before-register"],
)
def test_errors_match_the_reference(e, n, message):
    got = raised(truth_table, e, n)
    assert got == raised(reference_truth_table, e, n)
    assert got[1] == message


# -- memory ------------------------------------------------------------------


@pytest.mark.parametrize(
    "e",
    [planted_3cnf(np.random.default_rng(19), 19, 80), Xor(tuple(Var(j) for j in range(1, 20)))],
    ids=["3cnf-80", "xor-19"],
)
def test_peak_memory_at_19_variables(e):
    # the float64 output, its bytes unpacked to uint8, and ints of 2^19 bits
    output = 8 << 19
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = truth_table(e, 19)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.nbytes == output
    assert (peak - before) / output <= 1.6


# -- DIMACS: one node per literal --------------------------------------------


def dimacs_text(n: int, clauses, weights=None) -> str:
    kind = "cnf" if weights is None else "wcnf"
    lines = [f"p {kind} {n} {len(clauses)}"]
    for j, lits in enumerate(clauses):
        prefix = [] if weights is None else [repr(weights[j])]
        lines.append(" ".join(prefix + [str(l) for l in lits] + ["0"]))
    return "\n".join(lines) + "\n"


@st.composite
def dimacs_cases(draw):
    """(n, clauses as literal lists, weights or None for plain CNF); literals
    may repeat within a clause and across clauses."""
    n = draw(st.integers(1, 10))
    literal = st.integers(-n, n).filter(bool)
    clauses = draw(st.lists(st.lists(literal, max_size=4), max_size=12))
    weight = st.floats(-8, 8, allow_nan=False, width=32).map(float)
    weights = draw(st.none() | st.lists(weight, min_size=len(clauses), max_size=len(clauses)))
    return n, clauses, weights


def literal_nodes(objective) -> dict[int, set[int]]:
    """Each literal read by a clause -> the ids of its nodes; a negative
    literal's Var also counts as an occurrence of the positive literal."""
    seen: dict[int, set[int]] = {}
    for _, clause in objective.clauses:
        for node in clause.children if isinstance(clause, Or) else (clause,):
            if isinstance(node, Const):
                continue
            if isinstance(node, Not):
                seen.setdefault(-node.child.index, set()).add(id(node))
                node = node.child
            seen.setdefault(node.index, set()).add(id(node))
    return seen


@PROPERTY
@given(dimacs_cases())
def test_each_literal_is_one_node(case):
    n, clauses, weights = case
    objective, conj = parse_dimacs(dimacs_text(n, clauses, weights))
    nodes = literal_nodes(objective)
    assert set(nodes) == {l for lits in clauses for l in lits} | {-l for lits in clauses for l in lits if l < 0}
    assert all(len(ids) == 1 for ids in nodes.values())
    if len(clauses) > 1:
        assert all(a is c for a, (_, c) in zip(conj.children, objective.clauses))


@PROPERTY
@given(dimacs_cases())
def test_shared_nodes_compile_like_fresh_ones(case):
    n, clauses, weights = case
    objective, conj = parse_dimacs(dimacs_text(n, clauses, weights))
    fresh = [reference_clause_expr(lits) for lits in clauses]
    assert conj == conjunction(fresh)
    assert hex_terms(compile_expr(conj, n)) == hex_terms(compile_expr(conjunction(fresh), n))
    fresh_objective = PseudoBooleanObjective(n, tuple(zip(weights or [1.0] * len(fresh), fresh)))
    assert objective == fresh_objective
    assert hex_terms(compile_pseudo(objective)) == hex_terms(compile_pseudo(fresh_objective))


def test_shared_nodes_on_the_fold_past_the_table():
    # n = 24 takes compile_expr's sparse fold
    clauses = [[1, -2, 24], [-1, 2], [24, -24, 3], [-3], [2, 2, -1]]
    objective, conj = parse_dimacs(dimacs_text(24, clauses))
    fresh = conjunction([reference_clause_expr(lits) for lits in clauses])
    assert hex_terms(compile_expr(conj, 24)) == hex_terms(compile_expr(fresh, 24))
    assert all(len(ids) == 1 for ids in literal_nodes(objective).values())


@pytest.mark.parametrize(
    "text, message",
    [
        ("p cnf 1_0 0\n", "line 1: numbers must be plain ASCII digits: 'p cnf 1_0 0'"),
        ("p cnf 2 1\n1 2 0\np cnf 2 1\n", "line 3: duplicate problem line"),
        ("p cnf 2\n1 0\n", "line 1: malformed header 'p cnf 2'"),
        ("p dnf 2 1\n1 0\n", "line 1: malformed header 'p dnf 2 1'"),
        ("p cnf two 1\n1 0\n", "line 1: malformed header 'p cnf two 1'"),
        ("p cnf -1 0\n", "line 1: negative counts in header"),
        ("p cnf 2 -1\n", "line 1: negative counts in header"),
        ("1 2 0\np cnf 2 1\n", "line 1: clause before 'p cnf' header"),
        ("p wcnf 2 1\nheavy 1 0\n", "line 2: bad clause weight 'heavy'"),
        ("p wcnf 2 1\ninf 1 0\n", "line 2: clause weight 'inf' must be finite"),
        ("p wcnf 2 1\nnan 1 0\n", "line 2: clause weight 'nan' must be finite"),
        ("p cnf 2 1\n1 y 0\n", "line 2: bad literal 'y'"),
        ("p cnf 2 1\n1.0 0\n", "line 2: bad literal '1.0'"),
        ("c comment\np cnf 4 2\n1 2 0\n3 -5 0\n", "line 4: literal -5 out of range (n=4)"),
        ("c only a comment\n", "missing 'p cnf' header"),
        ("", "missing 'p cnf' header"),
        ("p cnf 2 1\n1 2\n", "last clause is missing its terminating 0"),
        ("p wcnf 2 1\n3\n", "last clause is missing its terminating 0"),
        ("p cnf 2 2\n1 2 0\n", "header declares 2 clauses, found 1"),
        ("p cnf 2 1\n1 0 2 0\n", "header declares 1 clauses, found 2"),
    ],
)
def test_dimacs_error_messages(text, message):
    with pytest.raises(ParseError) as info:
        parse_dimacs(text)
    assert str(info.value) == message
