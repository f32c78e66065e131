"""Unit tests for formula/QUBO/penalty compilation into Z-polynomials."""

import numpy as np
import pytest

from boolham import compiler
from boolham.boolexpr import (
    And,
    Const,
    Not,
    Or,
    PseudoBooleanObjective,
    Var,
    eval_expr,
    parse_dimacs,
    parse_expr,
    truth_table,
)
from boolham.compiler import (
    PenaltySpec,
    QuboInstance,
    augment_penalties,
    auto_penalty_weight,
    compile_expr,
    compile_pseudo,
    compile_qubo,
    ground_state_logic,
    penalty_spec_from_json,
    qubo_objective,
)
from boolham.errors import CapExceeded, QubitCountError
from boolham.fourier import fourier_from_table
from boolham.verify import random_cnf, random_expr, random_qubo, basic_clause_cases, three_variable_cases
from boolham.zpoly import DiagonalHamiltonian
from conftest import allclose


class TestGoldenTables:
    @pytest.mark.parametrize("name,text,expected", basic_clause_cases())
    def test_basic_clauses(self, name, text, expected):
        assert compile_expr(parse_expr(text)).max_coeff_diff(expected) <= 1e-12

    @pytest.mark.parametrize("name,text,expected", three_variable_cases())
    def test_three_variable_functions(self, name, text, expected):
        assert compile_expr(parse_expr(text)).max_coeff_diff(expected) <= 1e-12

    def test_mod3_is_complement_of_nae(self):
        nae = compile_expr(parse_expr("(x1 | x2 | x3) & (!x1 | !x2 | !x3)"))
        mod3 = compile_expr(parse_expr("!((x1 | x2 | x3) & (!x1 | !x2 | !x3))"))
        assert mod3 == DiagonalHamiltonian.identity(3) - nae


class TestCompileExpr:
    def test_soundness_on_random_formulas(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 11))
            e = random_expr(rng, n, depth=6)
            h = compile_expr(e, n)
            for x in range(1 << n):
                assert h.eval(x) == pytest.approx(eval_expr(e, x), abs=1e-9)

    def test_matches_transform_path(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 9))
            e = random_expr(rng, n, depth=5)
            assert allclose(compile_expr(e, n), fourier_from_table(truth_table(e, n)), tol=1e-9)

    def test_projector_property(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 8))
            h = compile_expr(random_expr(rng, n, depth=4), n)
            assert (h * h).max_coeff_diff(h) < 1e-9

    def test_logically_equivalent_forms_compile_identically(self):
        pairs = [
            ("!(x1 & x2)", "!x1 | !x2"),
            ("!(x1 | x2)", "!x1 & !x2"),
            ("x1 & (x2 | x3)", "(x1 & x2) | (x1 & x3)"),
            ("x1 => x2", "!x1 | x2"),
            ("x1 ^ x2", "(x1 & !x2) | (!x1 & x2)"),
        ]
        for a, b in pairs:
            ha = compile_expr(parse_expr(a), 3)
            hb = compile_expr(parse_expr(b), 3)
            assert allclose(ha, hb, tol=1e-12)

    def test_identity_coeff_counts_models(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 9))
            _, conj = parse_dimacs(random_cnf(rng, n, int(rng.integers(1, 2 * n))))
            h = compile_expr(conj, n)
            brute = int(truth_table(conj, n).sum())
            assert round(h.identity_coeff * (1 << n)) == brute

    def test_variable_exceeds_register(self):
        with pytest.raises(QubitCountError):
            compile_expr(parse_expr("x3"), 2)

    def test_size_guard(self, monkeypatch):
        wide_xor = parse_expr(" | ".join(f"x{j}" for j in range(1, 13)))
        monkeypatch.setattr(compiler, "SIZE_CAP", 100)
        with pytest.raises(CapExceeded):
            compile_expr(wide_xor)

    def test_constants(self):
        assert compile_expr(Const(0), 2).size == 0
        assert compile_expr(Const(1), 2) == DiagonalHamiltonian.identity(2)


PAIRS = tuple(
    (1.0, And((Var(j), Var(k)))) for j in range(1, 13) for k in range(j + 1, 13)
)  # each clause has 4 terms; their sum has 1 + 12 + 66 = 79


class TestCompilePseudo:
    def test_sum_size_guard(self, monkeypatch):
        monkeypatch.setattr(compiler, "SIZE_CAP", 50)
        with pytest.raises(CapExceeded):
            compile_pseudo(PseudoBooleanObjective(12, PAIRS))

    def test_complementary_pair_sums_to_identity(self):
        obj = PseudoBooleanObjective(1, ((1.0, Var(1)), (1.0, Not(Var(1)))))
        assert compile_pseudo(obj) == DiagonalHamiltonian.identity(1)

    def test_weighted_combination(self):
        # 2(x1 & x2) - x1 evaluates to 1 at 11 and -1 at 10
        obj = PseudoBooleanObjective(
            2, ((2.0, And((Var(1), Var(2)))), (-1.0, Var(1)))
        )
        h = compile_pseudo(obj)
        assert h.eval("11") == pytest.approx(1.0)
        assert h.eval("10") == pytest.approx(-1.0)

    def test_max2sat_instance(self):
        text = "p cnf 2 3\n1 2 0\n-1 2 0\n1 -2 0\n"
        objective, _ = parse_dimacs(text)
        h = compile_pseudo(objective)
        values = {x: h.eval(x) for x in range(4)}
        assert max(values.values()) == pytest.approx(3.0)
        assert values[0b11] == pytest.approx(3.0)

    def test_degree_and_size_bounds(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            objective, _ = parse_dimacs(random_cnf(rng, n, 5))
            h = compile_pseudo(objective)
            parts = [compile_expr(e, n) for _, e in objective.clauses]
            assert h.degree <= max(p.degree for p in parts)
            assert h.size <= sum(p.size for p in parts)


class TestClauseSumSquares:
    def test_clause_sum_squares_dominate_mean(self, rng):
        # sum_S coeff(S)^2 >= E[f] for unit-weight clause sums, with equality
        # exactly when all pairwise conjunctions have empty intersection
        for _ in range(25):
            n = int(rng.integers(2, 9))
            objective, _ = parse_dimacs(random_cnf(rng, n, int(rng.integers(1, 6))))
            h = compile_pseudo(objective)
            squares = sum(c * c for _, c in h.items())
            mean = h.identity_coeff
            assert squares >= mean - 1e-9
            tables = [truth_table(e, n) for _, e in objective.clauses]
            overlaps = sum(
                float(np.sum(tables[i] * tables[j]))
                for i in range(len(tables))
                for j in range(i + 1, len(tables))
            )
            if overlaps == 0.0:
                assert squares == pytest.approx(mean, abs=1e-9)
            else:
                assert squares > mean + 1e-12


class TestCompileQubo:
    def test_single_quadratic_term_is_and(self):
        q = QuboInstance(2, 0.0, np.zeros(2), np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert compile_qubo(q) == DiagonalHamiltonian(
            2, {0: 0.25, 1: -0.25, 2: -0.25, 3: 0.25}
        )

    def test_constant_only(self):
        q = QuboInstance(3, 5.0)
        assert compile_qubo(q) == DiagonalHamiltonian(3, {0: 5.0})

    def test_matches_clause_path_on_random_instances(self, rng):
        for _ in range(15):
            q = random_qubo(rng, int(rng.integers(2, 7)))
            closed = compile_qubo(q)
            via_clauses = compile_pseudo(qubo_objective(q), q.n_vars)
            assert allclose(closed, via_clauses, tol=1e-9)

    def test_eval_matches_polynomial(self, rng):
        q = random_qubo(rng, 4)
        h = compile_qubo(q)
        for x in range(16):
            assert h.eval(x) == pytest.approx(q.value(x), abs=1e-9)

    def test_size_bound(self, rng):
        q = random_qubo(rng, 6)
        n = q.n_vars
        assert compile_qubo(q).size <= 1 + n + n * (n - 1) // 2

    def test_rejects_asymmetric_matrix(self):
        with pytest.raises(ValueError):
            QuboInstance(2, 0.0, np.zeros(2), np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError):
            QuboInstance(2, 0.0, np.zeros(2), np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_json_round_trip(self, rng):
        q = random_qubo(rng, 4)
        doc = {
            "n": q.n_vars,
            "a": q.constant,
            "linear": q.linear.tolist(),
            "quadratic": [
                [j + 1, k + 1, q.quadratic[j, k]]
                for j in range(q.n_vars)
                for k in range(j + 1, q.n_vars)
                if q.quadratic[j, k] != 0.0
            ],
        }
        q2 = QuboInstance.from_json_dict(doc)
        assert q2.n_vars == q.n_vars
        assert np.allclose(q2.linear, q.linear)
        assert np.allclose(q2.quadratic, q.quadratic)


class TestPenalties:
    def test_plain_weighted_penalty(self):
        spec = PenaltySpec(DiagonalHamiltonian.zero(1), ((3.0, Var(1)),))
        h = augment_penalties(spec)
        assert h.eval("1") == pytest.approx(3.0)
        assert h.eval("0") == pytest.approx(0.0)

    def test_one_hot_example(self):
        # minimize x1 + x2 subject to "not exactly one" being infeasible
        objective = compile_pseudo(
            PseudoBooleanObjective(2, ((1.0, Var(1)), (1.0, Var(2))))
        )
        spec = PenaltySpec.with_auto_weights(objective, [parse_expr("!(x1 ^ x2)")])
        h = augment_penalties(spec)
        values = {x: h.eval(x) for x in range(4)}
        ground = min(values.values())
        assert {x for x, v in values.items() if v == ground} == {0b01, 0b10}

    def test_unsatisfiable_penalty_adds_nothing(self):
        objective = compile_expr(parse_expr("x1"), 1)
        spec = PenaltySpec(objective, ((2.0, parse_expr("x1 & !x1")),))
        assert augment_penalties(spec) == objective

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            PenaltySpec(DiagonalHamiltonian.zero(1), ((0.0, Var(1)),))

    @pytest.mark.parametrize("w", [float("nan"), float("inf")])
    def test_nonfinite_weight_rejected(self, w):
        with pytest.raises(ValueError):
            PenaltySpec(DiagonalHamiltonian.zero(1), ((w, Var(1)),))

    def test_sum_size_guard(self, monkeypatch):
        monkeypatch.setattr(compiler, "SIZE_CAP", 50)
        with pytest.raises(CapExceeded):
            augment_penalties(PenaltySpec(DiagonalHamiltonian.zero(12), PAIRS))

    def test_auto_weight_separates_spectra(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            objective, _ = parse_dimacs(random_cnf(rng, n, 4))
            f = compile_pseudo(
                PseudoBooleanObjective(
                    n,
                    tuple(
                        (float(rng.uniform(-3, 3)), e) for _, e in objective.clauses
                    ),
                )
            )
            constraint = random_expr(rng, n, 2)
            table = truth_table(constraint, n)
            if table.min() == table.max():
                continue  # constraint marks everything or nothing
            spec = PenaltySpec.with_auto_weights(f, [constraint])
            h = augment_penalties(spec)
            feasible = [h.eval(x) for x in range(1 << n) if table[x] == 0]
            infeasible = [h.eval(x) for x in range(1 << n) if table[x] == 1]
            assert min(infeasible) > max(feasible)

    def test_auto_weight_formula(self):
        objective = DiagonalHamiltonian(2, {0: 1.0, 1: -0.5, 3: 0.25})
        assert auto_penalty_weight(objective) == pytest.approx(2.0 * 1.75 + 1.0)

    def test_penalty_spec_json(self):
        text = (
            '{"n": 2, "objective": "x1 & x2",'
            ' "penalties": [{"weight": 2.0, "expr": "x1 ^ x2"},'
            ' {"weight": null, "expr": "!x1 & !x2"}]}'
        )
        spec = penalty_spec_from_json(text)
        assert spec.penalties[0][0] == 2.0
        assert spec.penalties[1][0] == auto_penalty_weight(spec.objective)


class TestGroundStateLogic:
    def test_identity_function(self):
        h = ground_state_logic(Var(1), 1)
        values = {x: h.eval(x) for x in range(4)}
        # index = x + 2y: zero exactly when y = x
        assert values[0b00] == 0.0 and values[0b11] == 0.0
        assert values[0b01] == 1.0 and values[0b10] == 1.0

    def test_and_eigenvalues(self):
        h = ground_state_logic(parse_expr("x1 & x2"), 2)
        assert h.eval("111") == pytest.approx(0.0)
        assert h.eval("110") == pytest.approx(1.0)

    def test_constant_one(self):
        h = ground_state_logic(Const(1), 2)
        for x in range(4):
            assert h.eval(x | 0b100) == pytest.approx(0.0)  # y=1 states
            assert h.eval(x) == pytest.approx(1.0)  # y=0 states

    def test_ancilla_is_highest_qubit(self):
        h = ground_state_logic(Var(1), 3)
        assert h.n_qubits == 4
