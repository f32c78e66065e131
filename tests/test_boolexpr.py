"""Unit tests for the formula AST, infix parser, and DIMACS front end."""

import math

import numpy as np
import pytest

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
    max_var,
    parse_dimacs,
    parse_expr,
    to_text,
    truth_table,
)
from boolham.errors import CapExceeded, ParseError, QubitCountError
from boolham.verify import random_expr


class TestParser:
    def test_simple_and(self):
        assert parse_expr("x1 & x2") == And((Var(1), Var(2)))

    def test_disjunction_semantics(self):
        e = parse_expr("x1 | x2 | x3")
        assert e == Or((Var(1), Var(2), Var(3)))
        assert eval_expr(e, (1, 0, 0)) == 1

    def test_xnor(self):
        assert eval_expr(parse_expr("!(x1 ^ x2)"), (1, 1)) == 1

    def test_precedence(self):
        assert parse_expr("x1 | x2 & x3") == Or((Var(1), And((Var(2), Var(3)))))
        assert parse_expr("!x1 & x2") == And((Not(Var(1)), Var(2)))
        assert parse_expr("x1 ^ x2 | x3") == Or((Xor((Var(1), Var(2))), Var(3)))

    def test_implies_right_associative(self):
        e = parse_expr("x1 => x2 => x3")
        assert e == Implies(Var(1), Implies(Var(2), Var(3)))

    def test_implies_binds_loosest(self):
        e = parse_expr("x1 | x2 => x3")
        assert e == Implies(Or((Var(1), Var(2))), Var(3))

    def test_constants_and_parens(self):
        assert parse_expr("(x1 | 0) & 1") == And((Or((Var(1), Const(0))), Const(1)))

    def test_nary_flattening(self):
        e = parse_expr("x1 & (x2 & x3)")
        assert e == And((Var(1), Var(2), Var(3)))

    def test_double_negation_preserved(self):
        assert parse_expr("!!x1") == Not(Not(Var(1)))

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_expr("x1 & & x2")
        assert err.value.position == 5

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse_expr("(x1 | x2")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_expr("x1 x2")

    def test_bad_character(self):
        with pytest.raises(ParseError):
            parse_expr("x1 % x2")

    def test_variable_out_of_declared_range(self):
        with pytest.raises(ParseError):
            parse_expr("x3", n_vars=2)


class TestPrinting:
    CASES = [
        "x1 & x2",
        "!(x1 ^ x2)",
        "x1 | x2 & x3",
        "(x1 | x2) & x3",
        "x1 => x2 => x3",
        "(x1 => x2) => x3",
        "!!x1 & !0",
        "x1 ^ x2 ^ x3 | x4",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_round_trip(self, text):
        e = parse_expr(text)
        assert parse_expr(to_text(e)) == e

    def test_round_trip_random(self, rng):
        for _ in range(200):
            e = random_expr(rng, n_vars=5, depth=4)
            assert parse_expr(to_text(e)) == e

    # Var(True) printed xTrue, Var(2.0) x2.0 and Const(True) True: text parse_expr rejects
    @pytest.mark.parametrize("index", [0, True, 2.0, "2"], ids=repr)
    def test_var_index_must_be_a_positive_integer(self, index):
        with pytest.raises(QubitCountError, match="must be an integer >= 1"):
            Var(index)

    @pytest.mark.parametrize("value", [2, True, 1.0, "1"], ids=repr)
    def test_const_value_must_be_0_or_1(self, value):
        with pytest.raises(ValueError, match="^constant must be 0 or 1"):
            Const(value)

    def test_numpy_integer_leaves_round_trip(self):
        e = And((Var(np.int64(3)), Const(np.int64(1))))
        assert to_text(e) == "x3 & 1" and parse_expr(to_text(e)) == e


class TestEvaluation:
    def test_implies_false_case(self):
        assert eval_expr(Implies(Var(1), Var(2)), (1, 0)) == 0

    def test_nae_at_origin(self):
        nae = parse_expr("(x1 | x2 | x3) & (!x1 | !x2 | !x3)")
        assert eval_expr(nae, (0, 0, 0)) == 0

    def test_integer_assignments(self):
        e = parse_expr("x1 & !x2")
        assert eval_expr(e, 0b01) == 1  # x1=1, x2=0
        assert eval_expr(e, 0b11) == 0

    def test_de_morgan_random(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 9))
            a = random_expr(rng, n, 3)
            b = random_expr(rng, n, 3)
            lhs = Not(And((a, b)))
            rhs = Or((Not(a), Not(b)))
            for x in range(1 << n):
                assert eval_expr(lhs, x) == eval_expr(rhs, x)

    def test_max_var(self):
        assert max_var(parse_expr("x2 & (x5 | !x1)")) == 5
        assert max_var(Const(1)) == 0


class TestTruthTable:
    def test_variable_columns_follow_lsb_convention(self):
        assert truth_table(Var(1), 2).tolist() == [0.0, 1.0, 0.0, 1.0]
        assert truth_table(Var(2), 2).tolist() == [0.0, 0.0, 1.0, 1.0]

    def test_one_in_three_has_three_models(self):
        e = parse_expr("(x1 & !x2 & !x3) | (!x1 & x2 & !x3) | (!x1 & !x2 & x3)")
        assert truth_table(e, 3).sum() == 3

    def test_matches_pointwise_eval(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 8))
            e = random_expr(rng, n, 4)
            table = truth_table(e, n)
            assert table.tolist() == [eval_expr(e, x) for x in range(1 << n)]

    def test_cap(self):
        with pytest.raises(CapExceeded):
            truth_table(Var(1), 25)


class TestDimacs:
    def test_single_clause(self):
        objective, conj = parse_dimacs("p cnf 2 1\n1 2 0\n")
        assert objective.n_vars == 2
        assert objective.clauses == ((1.0, Or((Var(1), Var(2)))),)
        assert conj == Or((Var(1), Var(2)))

    def test_contradiction(self):
        _, conj = parse_dimacs("p cnf 2 2\n1 0\n-1 0\n")
        assert conj == And((Var(1), Not(Var(1))))
        assert all(eval_expr(conj, x) == 0 for x in range(4))

    def test_maxsat_view(self):
        objective, _ = parse_dimacs("p cnf 3 2\n1 -2 0\n2 3 0\n")
        best = max(objective.value(x) for x in range(8))
        assert best == 2
        assert objective.value(0b101) == 2  # x = 101

    def test_comments_and_multiline_clauses(self):
        objective, _ = parse_dimacs("c header\np cnf 3 1\nc inline\n1 -2\n3 0\n")
        assert objective.clauses[0][1] == Or((Var(1), Not(Var(2)), Var(3)))

    def test_wcnf_weights(self):
        objective, _ = parse_dimacs("p wcnf 2 2\n2.5 1 0\n0.5 -1 2 0\n")
        assert [w for w, _ in objective.clauses] == [2.5, 0.5]

    def test_empty_clause_is_false(self):
        objective, conj = parse_dimacs("p cnf 1 1\n0\n")
        assert objective.clauses[0][1] == Const(0)

    def test_dual_view_consistency(self, rng):
        from conftest import random_cnf

        for _ in range(20):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(1, 6))
            objective, conj = parse_dimacs(random_cnf(rng, n, m))
            for x in range(1 << n):
                sat = eval_expr(conj, x) == 1
                assert sat == (objective.value(x) == m)

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_dimacs("1 2 0\n")

    def test_malformed_header(self):
        with pytest.raises(ParseError):
            parse_dimacs("p cnf two 1\n1 0\n")

    def test_literal_out_of_range(self):
        with pytest.raises(ParseError):
            parse_dimacs("p cnf 2 1\n3 0\n")

    def test_literal_out_of_range_names_its_line(self):
        with pytest.raises(ParseError, match=r"line 4: literal -5 out of range \(n=4\)"):
            parse_dimacs("p wcnf 4 2\nc\n2.5 1 -2 0\n1 -5 0\n")

    def test_objective_equals_the_checked_constructor(self):
        objective, _ = parse_dimacs("p wcnf 4 4\n2.5 1 -2 0\n1 4 0\n-0.5 -3 3 0\n7 0\n")
        expected = PseudoBooleanObjective(4, (
            (2.5, Or((Var(1), Not(Var(2))))),
            (1.0, Var(4)),
            (-0.5, Or((Not(Var(3)), Var(3)))),
            (7.0, Const(0)),
        ))
        assert objective == expected
        assert objective == PseudoBooleanObjective(objective.n_vars, objective.clauses)

    def test_missing_terminator(self):
        with pytest.raises(ParseError):
            parse_dimacs("p cnf 2 1\n1 2\n")

    def test_clause_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_dimacs("p cnf 2 2\n1 0\n")

    @pytest.mark.parametrize("weight", ["nan", "1e400", "-inf"])
    def test_wcnf_weight_must_be_finite(self, weight):
        # float() reads these; a NaN weight used to drop its clause unseen
        with pytest.raises(ParseError, match="line 3"):
            parse_dimacs(f"p wcnf 2 2\n1 1 0\n{weight} 1 2 0\n")


class TestPseudoBooleanObjective:
    def test_value(self):
        obj = PseudoBooleanObjective(2, ((2.0, Var(1)), (-1.0, Var(2))))
        assert obj.value((1, 1)) == 1.0

    def test_variable_bound_checked(self):
        with pytest.raises(Exception):
            PseudoBooleanObjective(1, ((1.0, Var(2)),))

    @pytest.mark.parametrize("weight", [math.nan, math.inf, "2", True, pytest.param(10**400, id="10**400")], ids=repr)
    def test_weight_must_be_a_finite_real_number(self, weight):
        with pytest.raises(ValueError, match=r"^clauses\[1\] weight must be a finite real number"):
            PseudoBooleanObjective(2, ((1.0, Var(1)), (weight, Var(2))))

    def test_conjunction_helper(self):
        assert conjunction([]) == Const(1)
        assert conjunction([Var(1)]) == Var(1)
