"""emit_evolution and emit_bit_query grow each term's CX ladder from the
ladder of its prefix.  Their circuits equal the reference in conftest, which
builds every ladder from its term's qubit list: the same gates in the same
order, the same CX objects and rotations shared (one rotation per largest
qubit and coefficient), and the same circuit text."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from boolham.boolexpr import parse_dimacs, parse_expr
from boolham.circuits import Circuit, emit_bit_query, emit_evolution, serialize
from boolham.compiler import compile_expr, compile_pseudo
from boolham.zpoly import DiagonalHamiltonian
from conftest import reference_bit_query, reference_evolution
from test_fold import PROPERTY, formula_and_size
from test_table_switch import planted_3cnf

gammas = st.floats(-4.0, 4.0, allow_nan=False)


def sharing(gates) -> list[int]:
    """Each gate as the position of the first gate that is the same object."""
    first: dict[int, int] = {}
    return [first.setdefault(id(g), i) for i, g in enumerate(gates)]


def assert_same_circuit(got: Circuit, want: Circuit) -> None:
    assert got.n_qubits == want.n_qubits
    assert got.gates == want.gates
    assert sharing(got.gates) == sharing(want.gates)
    assert serialize(got) == serialize(want)


def dense(n: int, seed: int) -> DiagonalHamiltonian:
    """All 2^n masks, with nonzero coefficients."""
    rng = np.random.default_rng(seed)
    return DiagonalHamiltonian(n, dict(enumerate(rng.uniform(0.5, 2.0, 1 << n).tolist())))


def maxsat_operator(n: int, m: int, seed: int) -> DiagonalHamiltonian:
    """A weighted MAX-SAT objective of m clauses of 1-3 distinct literals."""
    rng = np.random.default_rng(seed)
    lines = [f"p wcnf {n} {m}"]
    for _ in range(m):
        vs = rng.choice(n, size=int(rng.integers(1, 4)), replace=False) + 1
        lits = [int(v) if rng.random() < 0.5 else -int(v) for v in vs]
        lines.append(" ".join(map(str, [int(rng.integers(1, 10)), *lits, 0])))
    objective, _ = parse_dimacs("\n".join(lines) + "\n")
    return compile_pseudo(objective)


@PROPERTY
@given(
    st.integers(0, 12).flatmap(
        lambda n: st.dictionaries(
            st.integers(0, (1 << n) - 1), st.floats(-2.0, 2.0, allow_nan=False), max_size=64
        ).map(lambda terms: DiagonalHamiltonian(n, terms))
    ),
    gammas,
)
def test_evolution_matches_the_reference(h, gamma):
    assert_same_circuit(emit_evolution(h, gamma), reference_evolution(h, gamma))


@PROPERTY
@given(formula_and_size)
def test_bit_query_matches_the_reference(case):
    e, n = case
    assert_same_circuit(emit_bit_query(e, n), reference_bit_query(e, n))
    assert_same_circuit(emit_bit_query(e), reference_bit_query(e))


@pytest.mark.parametrize("n", range(11))
def test_dense_operators(n):
    h = dense(n, seed=n)
    assert h.size == 1 << n
    for gamma in (math.pi, 0.37):
        assert_same_circuit(emit_evolution(h, gamma), reference_evolution(h, gamma))
    every_mask = parse_expr(" | ".join(f"x{j}" for j in range(1, n + 1)) or "1")
    assert_same_circuit(emit_bit_query(every_mask, n), reference_bit_query(every_mask, n))


@pytest.mark.parametrize("ratio", [2.0, 4.3])
def test_dense_boolean_operator(ratio):
    # a planted 3-CNF at n = 10: most of the 2^10 masks, few distinct coefficients
    e = planted_3cnf(np.random.default_rng([22, round(10 * ratio)]), 10, round(10 * ratio))
    h = compile_expr(e, 10)
    assert h.size > 700
    for gamma in (math.pi, 0.37):
        c = emit_evolution(h, gamma)
        assert_same_circuit(c, reference_evolution(h, gamma))
        assert len({id(g) for g in c.gates if g.name == "rz"}) < h.size // 4
    assert_same_circuit(emit_bit_query(e, 10), reference_bit_query(e, 10))


def test_zero_gamma_keeps_the_sign_of_each_coefficient():
    # 0.0 == -0.0: a rotation shared per angle would print "rz 3 0" for every term
    h = DiagonalHamiltonian(3, {0b100: 0.5, 0b101: -0.5, 0b110: 0.5, 0b111: -0.25, 0b011: -0.5})
    c = emit_evolution(h, 0.0)
    assert_same_circuit(c, reference_evolution(h, 0.0))
    assert [ln for ln in serialize(c).splitlines() if ln.startswith("rz")] == [
        "rz 2 -0", "rz 3 0", "rz 3 -0", "rz 3 0", "rz 3 -0"
    ]


@pytest.mark.parametrize("emit", [emit_evolution, reference_evolution])
def test_overflow_past_the_first_term(emit):
    # the first non-finite angle in mask order is named, before the phase
    h = DiagonalHamiltonian(3, {0: 1e308, 1: 2.0, 0b011: 1.0, 0b110: -1e308, 0b111: 1e308})
    with pytest.raises(ValueError, match=r"^rz needs a finite angle, got inf\Z"):
        emit(h, -10.0)
    with pytest.raises(ValueError, match=r"^rz needs a finite angle, got -inf\Z"):
        emit(h, 10.0)
    with pytest.raises(ValueError, match=r"^global phase must be finite, got -inf\Z"):
        emit(DiagonalHamiltonian(3, {0: 1e308, 0b101: 2.0}), 10.0)


@pytest.mark.parametrize(
    "h",
    [
        DiagonalHamiltonian.zero(0),
        DiagonalHamiltonian.zero(3),
        DiagonalHamiltonian(0, {0: 1.5}),
        DiagonalHamiltonian(4, {0: -0.25}),
        DiagonalHamiltonian(1, {1: 0.5}),
        DiagonalHamiltonian(1, {0: 0.2, 1: -0.7}),
        DiagonalHamiltonian(5, {1 << 4: 1.0}),
        DiagonalHamiltonian(5, {0: 1.0, 1: 0.5, 1 << 2: -0.5, 1 << 4: 2.0}),
    ],
    ids=["empty-register", "zero", "identity-0-qubits", "identity-4-qubits", "Z1",
         "I-and-Z1", "Z5-of-5", "one-qubit-terms"],
)
def test_identity_and_one_qubit_operators(h):
    for gamma in (math.pi, -0.3):
        assert_same_circuit(emit_evolution(h, gamma), reference_evolution(h, gamma))


@pytest.mark.parametrize(
    "text, n",
    [("0", 0), ("1", 0), ("1", 3), ("x1", None), ("!x4", 4), ("x2 ^ x3", 5)],
)
def test_bit_query_of_constants_and_one_variable(text, n):
    e = parse_expr(text)
    assert_same_circuit(emit_bit_query(e, n), reference_bit_query(e, n))


def test_maxsat_operator_at_60_variables():
    h = maxsat_operator(60, 500, seed=60)
    assert h.n_qubits == 60 and h.size > 500
    for gamma in (0.7, math.pi):
        assert_same_circuit(emit_evolution(h, gamma), reference_evolution(h, gamma))
