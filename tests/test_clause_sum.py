"""Weighted clause sums: literal and OR-of-literal clauses are written by the
closed form, every other clause is folded, and the sum equals folding every
clause to the bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolham import compiler
from boolham.boolexpr import And, Const, Not, Or, PseudoBooleanObjective, Var, parse_dimacs
from boolham.compiler import PenaltySpec, augment_penalties, compile_pseudo
from boolham.errors import CapExceeded
from boolham.zpoly import DiagonalHamiltonian
from conftest import reference_zham_fold

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=200)


def folded_sum(base: DiagonalHamiltonian, clauses) -> DiagonalHamiltonian:
    """base + sum_j w_j H_fj with every clause folded by the composition rules."""
    n = base.n_qubits
    acc = dict(base.items())
    for w, e in clauses:
        for mask, c in reference_zham_fold(e, n).items():
            acc[mask] = acc.get(mask, 0.0) + w * c
    return DiagonalHamiltonian(n, acc)


def bits(h: DiagonalHamiltonian) -> list[tuple[int, str]]:
    return [(mask, c.hex()) for mask, c in h.items()]


def clauses(n: int):
    """Literals, ORs of 1-6 literals (repeats and negations included), ANDs,
    constants and nested clauses on variables 1..n."""
    var = st.integers(1, n).map(Var)
    literal = st.one_of(var, var.map(Not))
    ors = st.lists(literal, min_size=1, max_size=6).map(
        lambda parts: Or(tuple(parts)) if len(parts) > 1 else parts[0]
    )
    small_or = st.lists(literal, min_size=2, max_size=3).map(lambda parts: Or(tuple(parts)))
    small_and = st.lists(literal, min_size=2, max_size=3).map(lambda parts: And(tuple(parts)))
    nested = st.one_of(
        st.lists(st.one_of(literal, small_and), min_size=2, max_size=3).map(lambda p: Or(tuple(p))),
        st.lists(st.one_of(literal, small_or), min_size=2, max_size=3).map(lambda p: And(tuple(p))),
        st.one_of(small_or, small_and).map(Not),
    )
    constant = st.sampled_from([Const(0), Const(1)])
    return st.one_of(literal, ors, ors, small_and, constant, nested)


# non-dyadic weights: sevenths, and floats of any mantissa (-0.0 included)
WEIGHTS = st.one_of(
    st.integers(-63, 63).map(lambda k: k / 7),
    st.floats(-9, 9, allow_nan=False, allow_infinity=False),
)
POSITIVE_WEIGHTS = st.one_of(
    st.integers(1, 63).map(lambda k: k / 7), st.floats(1e-3, 9, allow_infinity=False)
)


def weighted_clauses(n: int, weights=WEIGHTS):
    return st.lists(st.tuples(weights, clauses(n)), max_size=30).map(tuple)


@PROPERTY
@given(st.integers(1, 60).flatmap(lambda n: st.tuples(st.just(n), weighted_clauses(n))))
def test_compile_pseudo_equals_the_fold_to_the_bit(case):
    n, weighted = case
    h = compile_pseudo(PseudoBooleanObjective(n, weighted))
    assert bits(h) == bits(folded_sum(DiagonalHamiltonian.zero(n), weighted))


def penalty_case(n: int):
    objective = st.dictionaries(st.integers(0, (1 << n) - 1), WEIGHTS, max_size=8)
    return st.tuples(
        objective.map(lambda terms: DiagonalHamiltonian(n, terms)),
        weighted_clauses(n, POSITIVE_WEIGHTS),
    )


@PROPERTY
@given(st.integers(1, 60).flatmap(penalty_case))
def test_augment_penalties_equals_the_fold_to_the_bit(case):
    objective, penalties = case
    h = augment_penalties(PenaltySpec(objective, penalties))
    assert bits(h) == bits(folded_sum(objective, penalties))


def test_repeated_variables_stay_on_the_fold():
    # x1 | x1 = x1 and x1 | !x1 = 1: the closed form over distinct variables would not hold
    objective, _ = parse_dimacs("p cnf 1 2\n1 1 0\n1 -1 0\n")
    assert bits(compile_pseudo(objective)) == [(0, (1.5).hex()), (1, (-0.5).hex())]


def test_numpy_weights_leave_python_floats():
    # the clause sum's table is stored as built, so each weight is converted first
    weighted = (
        (np.float64(0.5), Or((Var(1), Not(Var(2))))),
        (np.float64(3), And((Var(1), Var(2)))),
    )
    base = DiagonalHamiltonian(2, {0: 1.0, 3: 0.25})
    for h, reference in (
        (compile_pseudo(PseudoBooleanObjective(2, weighted)), folded_sum(base.zero(2), weighted)),
        (augment_penalties(PenaltySpec(base, weighted)), folded_sum(base, weighted)),
    ):
        assert [type(c) for _, c in h.items()] == [float] * 4
        assert bits(h) == bits(reference)


class TestCap:
    def test_clause_past_the_cap_raises(self, monkeypatch):
        monkeypatch.setattr(compiler, "SIZE_CAP", 8)
        wide = Or(tuple(Var(j) for j in range(1, 5)))
        with pytest.raises(CapExceeded, match="has 16 terms, exceeding cap 8"):
            compile_pseudo(PseudoBooleanObjective(4, ((1.0, wide),)))

    def test_clause_at_the_cap_compiles(self, monkeypatch):
        monkeypatch.setattr(compiler, "SIZE_CAP", 8)
        clause = Or((Var(1), Not(Var(2)), Var(3)))
        h = compile_pseudo(PseudoBooleanObjective(3, ((1.0, clause),)))
        assert h.size == 8 and h.identity_coeff == 7 / 8

    def test_wide_dimacs_clause_raises_before_building_it(self):
        # the fold would build 2^20 terms before passing the cap; 2^40 is checked first
        objective, _ = parse_dimacs("p cnf 40 1\n" + " ".join(map(str, range(1, 41))) + " 0\n")
        with pytest.raises(CapExceeded, match=f"has {1 << 40} terms"):
            compile_pseudo(objective)
        with pytest.raises(CapExceeded, match=f"has {1 << 40} terms"):
            augment_penalties(PenaltySpec(DiagonalHamiltonian.zero(40), objective.clauses))
