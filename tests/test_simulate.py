"""simulate_circuit keeps each run of CX, X and rotation gates as a monomial
and touches the dense matrix only at H gates and at the end.  It equals the
gate-by-gate reference in conftest: to the bit on every H-free circuit, and
within 1e-12 where H gates reorder the sums.  It also stays near one matrix
of memory where there is no H."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from boolham.boolexpr import parse_expr
from boolham.circuits import (
    _GATE_SHAPE,
    Circuit,
    Gate,
    emit_bit_query,
    emit_controlled_evolution,
    emit_evolution,
    emit_qubo_evolution,
    lower_basic,
)
from boolham.oracle import maxdiff, simulate_circuit
from boolham.verify import random_qubo
from boolham.zpoly import DiagonalHamiltonian
from conftest import random_zham, reference_simulate
from test_fold import PROPERTY, formulas

H_TOL = 1e-12
angles = st.floats(-10.0, 10.0, allow_nan=False)


def gates(n: int, names):
    names = [name for name in names if _GATE_SHAPE[name][0] <= n]

    def build(name):
        arity, takes_angle = _GATE_SHAPE[name]
        qubits = st.permutations(range(1, n + 1)).map(lambda p: tuple(p[:arity]))
        angle = angles if takes_angle else st.none()
        return st.builds(Gate, st.just(name), qubits, angle)

    return st.sampled_from(names).flatmap(build)


def circuits(names=tuple(_GATE_SHAPE)):
    return st.integers(1, 6).flatmap(
        lambda n: st.builds(Circuit, st.just(n), st.lists(gates(n, names), max_size=40), angles)
    )


def assert_matches_reference(c: Circuit) -> None:
    got, want = simulate_circuit(c), reference_simulate(c)
    if any(g.name == "h" for g in c.gates):
        assert maxdiff(got, want) <= H_TOL
    else:
        assert np.array_equal(got, want)


@PROPERTY
@given(circuits(names=[name for name in _GATE_SHAPE if name != "h"]))
def test_h_free_circuits_equal_the_reference_to_the_bit(c):
    assert np.array_equal(simulate_circuit(c), reference_simulate(c))


@PROPERTY
@given(circuits())
def test_circuits_with_h_anywhere_match_the_reference(c):
    assert_matches_reference(c)


def test_empty_circuits():
    for n in range(4):
        c = Circuit(n, (), 0.25)
        assert np.array_equal(simulate_circuit(c), reference_simulate(c))


operators = st.integers(1, 8).flatmap(
    lambda n: st.dictionaries(
        st.integers(0, (1 << n) - 1), st.floats(-2.0, 2.0, allow_nan=False), max_size=40
    ).map(lambda terms: DiagonalHamiltonian(n, terms))
)


class TestEmitters:
    """Every emitter's circuit, and its lowering, at n <= 8."""

    @PROPERTY
    @given(operators, angles)
    def test_evolution(self, h, gamma):
        c = emit_evolution(h, gamma)
        assert_matches_reference(c)
        assert_matches_reference(lower_basic(c))

    @PROPERTY
    @given(st.integers(1, 8), st.integers(0, 2**32 - 1), angles)
    def test_qubo_evolution(self, n, seed, t):
        assert_matches_reference(emit_qubo_evolution(random_qubo(np.random.default_rng(seed), n), t))

    @PROPERTY
    @given(
        st.integers(1, 4).flatmap(lambda k: st.tuples(formulas(k), st.just(k))),
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
        angles,
    )
    def test_controlled_evolution(self, control, n_data, seed, t):
        f, k = control
        ham = random_zham(np.random.default_rng(seed), n_data, 6)
        c = emit_controlled_evolution(f, ham, t, n_ctrl=k)
        assert c.n_qubits <= 8
        assert_matches_reference(c)
        assert_matches_reference(lower_basic(c))

    @PROPERTY
    @given(st.integers(1, 7).flatmap(lambda n: st.tuples(formulas(n), st.just(n))))
    def test_bit_query(self, case):
        e, n = case
        c = emit_bit_query(e, n)
        assert_matches_reference(c)
        assert_matches_reference(lower_basic(c))

    def test_dense_operator_at_8_qubits(self):
        h = random_zham(np.random.default_rng(8), 8, 1 << 8)
        c = emit_evolution(h, math.pi)
        assert np.array_equal(simulate_circuit(c), reference_simulate(c))


# -- peak memory, in 2^n x 2^n complex matrices ------------------------------

N_MEMORY = 9


def peak_in_matrices(c: Circuit) -> float:
    matrix = 16 << (2 * c.n_qubits)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        simulate_circuit(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - before) / matrix


def test_h_free_circuit_builds_one_matrix():
    c = emit_evolution(random_zham(np.random.default_rng(9), N_MEMORY, 200), 0.7)
    assert c.n_qubits == N_MEMORY
    assert peak_in_matrices(c) <= 1.1


@pytest.mark.parametrize("text", ["x1 & x2", "(x1 | !x3) ^ x8"])
def test_bit_query_holds_one_and_a_half_matrices(text):
    # the matrix, scaled in place between the H gates, and a half-size
    # butterfly temporary
    c = emit_bit_query(parse_expr(text), N_MEMORY - 1)
    assert c.n_qubits == N_MEMORY
    assert peak_in_matrices(c) <= 1.6
