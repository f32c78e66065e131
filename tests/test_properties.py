"""The paper's identities on random inputs: the transform, circuit text,
gate lowering and evolution circuits, checked against the dense oracle."""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from boolham.circuits import (
    emit_bit_query,
    emit_evolution,
    lower_basic,
    parse_circuit,
    serialize,
)
from boolham.fourier import fwht_inplace
from boolham.oracle import expm_zham, simulate_circuit
from boolham.zpoly import DiagonalHamiltonian
from test_fold import PROPERTY, formulas

coeffs = st.floats(-2.0, 2.0, allow_nan=False)
angles = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)


def hamiltonians(max_n: int):
    """Diagonal Z-polynomials on 1..max_n qubits with up to 8 terms."""
    return st.integers(1, max_n).flatmap(
        lambda n: st.dictionaries(st.integers(0, (1 << n) - 1), coeffs, max_size=8).map(
            lambda terms: DiagonalHamiltonian(n, terms)
        )
    )


def maxdiff(a, b) -> float:
    return float(np.max(np.abs(a - b)))


@PROPERTY
@given(st.integers(0, 8).flatmap(lambda n: st.lists(coeffs, min_size=1 << n, max_size=1 << n)))
def test_fwht_round_trip(values):
    # the unnormalized transform is its own inverse up to the factor 2^n
    a = np.array(values)
    fwht_inplace(a)
    fwht_inplace(a)
    assert maxdiff(a / len(values), np.array(values)) <= 1e-12


@PROPERTY
@given(hamiltonians(6), angles)
def test_evolution_circuit_text_round_trip(h, gamma):
    circ = emit_evolution(h, gamma)
    assert parse_circuit(serialize(circ)) == circ


@PROPERTY
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(formulas(n), st.just(n))))
def test_bit_query_text_round_trip_and_lowering(case):
    e, n = case
    circ = emit_bit_query(e, n)
    assert parse_circuit(serialize(circ)) == circ
    lowered = lower_basic(circ)
    assert {g.name for g in lowered.gates} <= {"cx", "rz", "h", "x"}
    assert maxdiff(simulate_circuit(lowered), simulate_circuit(circ)) <= 1e-9


@PROPERTY
@given(hamiltonians(8), angles)
def test_evolution_circuit_matches_expm(h, gamma):
    assert maxdiff(simulate_circuit(emit_evolution(h, gamma)), expm_zham(h, gamma)) <= 1e-9
