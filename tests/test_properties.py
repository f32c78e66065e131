"""The paper's identities on random inputs: the transform, circuit text,
gate lowering, evolution circuits, spectra and model counts, checked
against the dense oracle or the truth table."""

import math
import operator

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from boolham.boolexpr import PseudoBooleanObjective, eval_expr, truth_table
from boolham.circuits import (
    Circuit,
    Gate,
    emit_bit_query,
    emit_evolution,
    lower_basic,
    parse_circuit,
    serialize,
)
from boolham.compiler import PenaltySpec, augment_penalties, compile_expr, compile_pseudo
from boolham.errors import QubitCountError, VerificationError
from boolham.fourier import count_models, fwht_inplace
from boolham.oracle import expm_zham, simulate_circuit, spectrum
from boolham.pauli import PauliOperator, PauliString
from boolham.verify import bundled_corpus
from boolham.zpoly import DiagonalHamiltonian, basis_label
from conftest import allclose, from_diagonal, zham_diagonal
from test_fold import PROPERTY, formula_and_size, formulas

coeffs = st.floats(-2.0, 2.0, allow_nan=False)
angles = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)


def hamiltonians(max_n: int):
    """Diagonal Z-polynomials on 1..max_n qubits with up to 8 terms."""
    return st.integers(1, max_n).flatmap(
        lambda n: st.dictionaries(st.integers(0, (1 << n) - 1), coeffs, max_size=8).map(
            lambda terms: DiagonalHamiltonian(n, terms)
        )
    )


def hamiltonian_pairs(max_n: int):
    """Two diagonal Z-polynomials on the same 1..max_n qubits."""
    terms = lambda n: st.dictionaries(st.integers(0, (1 << n) - 1), coeffs, max_size=8)
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(terms(n), terms(n)).map(
            lambda pair: tuple(DiagonalHamiltonian(n, t) for t in pair)
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
@given(hamiltonian_pairs(6), coeffs)
def test_pauli_form_commutes_with_the_shared_arithmetic(pair, w):
    a, b = pair
    pauli = from_diagonal
    assert pauli(a + b) == pauli(a) + pauli(b)
    assert pauli(a - b) == pauli(a) - pauli(b)
    assert pauli(-a) == -pauli(a)
    assert pauli(a.scaled(w)) == pauli(a).scaled(w)
    assert allclose(pauli(a), pauli(b)) == allclose(a, b)
    assert allclose(pauli(a), pauli(a + b.scaled(1e-12)))


# coefficients that often cancel exactly, so sums and products prune terms
cancelling = st.one_of(coeffs, st.sampled_from([-1.0, -0.5, 0.5, 1.0]))


def operator_pairs(max_n: int):
    """Two DiagonalHamiltonians, or two PauliOperators, on one 1..max_n register."""
    def diagonal(n):
        return st.dictionaries(st.integers(0, (1 << n) - 1), cancelling, max_size=6).map(
            lambda terms: DiagonalHamiltonian(n, terms)
        )

    def general(n):
        strings = st.builds(
            PauliString, st.just(n), st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1)
        )
        values = st.builds(complex, cancelling, st.one_of(st.just(0.0), cancelling))
        return st.dictionaries(strings, values, max_size=6).map(lambda t: PauliOperator(n, t))

    return st.integers(1, max_n).flatmap(
        lambda n: st.one_of(st.tuples(diagonal(n), diagonal(n)), st.tuples(general(n), general(n)))
    )


def raw_product(a, b) -> dict:
    """The unpruned term dict of a * b, keys as the checking constructor takes them."""
    acc: dict = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            if isinstance(a, DiagonalHamiltonian):
                key, c = ka ^ kb, ca * cb
            else:
                key, c = ka * kb, ca * cb
            acc[key] = acc.get(key, 0) + c
    return acc


def assert_same_operator(result, checked):
    assert result == checked
    assert list(result.items()) == list(checked.items())
    assert result.to_text() == checked.to_text()


@PROPERTY
@given(operator_pairs(4), coeffs)
def test_arithmetic_results_equal_the_checking_constructor(pair, w):
    # sums, products and scalings skip the constructor's checks; the
    # operator must be the one the constructor builds from the raw terms
    a, b = pair
    cls, n = type(a), a.n_qubits
    raw_sum, raw_diff = dict(a.items()), dict(a.items())
    for key, c in b.items():
        raw_sum[key] = raw_sum.get(key, 0) + c
        raw_diff[key] = raw_diff.get(key, 0) - c
    assert_same_operator(a + b, cls(n, raw_sum))
    assert_same_operator(a - b, cls(n, raw_diff))
    assert_same_operator(a * b, cls(n, raw_product(a, b)))
    assert_same_operator(w * a, cls(n, {key: w * c for key, c in a.items()}))
    assert_same_operator(-a, cls(n, {key: -c for key, c in a.items()}))
    other = cls.identity(n + 1)
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(QubitCountError):
            op(a, other)


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


def assert_passes_the_public_checks(circ):
    """The emitters build gates without Gate/Circuit's checks: making every
    gate again through them must give the same circuit and the same text."""
    gates = [Gate(g.name, g.qubits, g.angle) for g in circ.gates]
    again = Circuit(circ.n_qubits, gates, circ.global_phase)
    assert again == circ
    assert serialize(again) == serialize(circ)


CORPUS_FORMULAS = [(e, n) for _, e, n in bundled_corpus()[0]]


@PROPERTY
@given(hamiltonians(12), angles)
def test_evolution_gates_pass_the_public_checks(h, gamma):
    assert_passes_the_public_checks(emit_evolution(h, gamma))


@PROPERTY
@given(st.sampled_from(CORPUS_FORMULAS), angles)
def test_corpus_circuit_gates_pass_the_public_checks(case, gamma):
    e, n = case
    assert_passes_the_public_checks(emit_evolution(compile_expr(e, n), gamma))
    query = emit_bit_query(e, n)
    assert_passes_the_public_checks(query)
    assert_passes_the_public_checks(lower_basic(query))


def rotation_circuits(n: int):
    qubit_lists = lambda k: st.permutations(range(1, n + 1)).map(lambda qs: tuple(qs[:k]))
    gate = st.one_of(
        st.tuples(qubit_lists(2), angles).map(lambda a: Gate("crz", *a)),
        st.tuples(qubit_lists(3), angles).map(lambda a: Gate("ccrz", *a)),
        qubit_lists(2).map(lambda qs: Gate("cx", qs)),
        st.tuples(qubit_lists(1), angles).map(lambda a: Gate("rz", *a)),
    )
    return st.lists(gate, max_size=12).map(lambda gates: Circuit(n, gates, 0.25))


@PROPERTY
@given(st.integers(3, 5).flatmap(rotation_circuits))
def test_lowered_gates_pass_the_public_checks(circ):
    assert_passes_the_public_checks(lower_basic(circ))


def public_circuits(n: int):
    """Circuits from the public constructors on n qubits, qubit tuples or lists."""
    qubits = lambda k: st.permutations(range(1, n + 1)).flatmap(
        lambda qs: st.sampled_from([tuple(qs[:k]), list(qs[:k])])
    )
    gate = st.one_of(
        *(st.builds(Gate, st.just(name), qubits(k)) for name, k in (("cx", 2), ("h", 1), ("x", 1))),
        *(st.builds(Gate, st.just(name), qubits(k), angles)
          for name, k in (("rz", 1), ("crz", 2), ("ccrz", 3))),
    )
    phases = st.floats(allow_nan=False, allow_infinity=False)
    return st.builds(Circuit, st.just(n), st.lists(gate, max_size=12), phases)


@PROPERTY
@given(st.integers(3, 5).flatmap(public_circuits))
def test_public_circuits_read_back_equal(circ):
    assert parse_circuit(serialize(circ)) == circ


@PROPERTY
@given(hamiltonians(8), angles)
def test_evolution_circuit_matches_expm(h, gamma):
    assert maxdiff(simulate_circuit(emit_evolution(h, gamma)), expm_zham(h, gamma)) <= 1e-9


# half-integer coefficients keep every value exact, so values tie often
half_integers = st.integers(-4, 4).map(lambda k: k / 2)
tied_hamiltonians = st.integers(0, 10).flatmap(
    lambda n: st.dictionaries(st.integers(0, (1 << n) - 1), half_integers, max_size=6).map(
        lambda terms: DiagonalHamiltonian(n, terms)
    )
)


@PROPERTY
@given(tied_hamiltonians, st.sampled_from([1e-9, 0.5, 1.0]))
def test_spectrum_matches_a_full_stable_sort(h, tol):
    diag = zham_diagonal(h)
    order = np.argsort(diag, kind="stable")
    values = diag[order]
    labels = tuple(basis_label(int(x), h.n_qubits) for x in order)
    spec = spectrum(h)
    assert spec.values.tobytes() == values.tobytes()
    lowest, highest = values[0], values[-1]
    assert spec.ground_states(tol) == tuple(
        lbl for v, lbl in zip(values, labels) if v <= lowest + tol
    )
    assert spec.top_states(tol) == tuple(
        lbl for v, lbl in zip(values, labels) if v >= highest - tol
    )


@PROPERTY
@given(formula_and_size)
def test_count_models_matches_the_truth_table(case):
    e, n = case
    h = compile_expr(e, n)
    assert count_models(h) == int(truth_table(e, n).sum())
    # shifted by 1/4, every value lies off {0, 1}
    with pytest.raises(VerificationError, match="not a projector"):
        count_models(h + DiagonalHamiltonian(n, {0: 0.25}))


# weights that are not multiples of 1/64, so clause sums carry rounding
# error and the 1e-12 match with the per-clause running sum means something
non_dyadic = st.floats(-5.0, 5.0, allow_nan=False).filter(lambda w: (w * 64) % 1 != 0)


def weighted_clauses(weights):
    """(n, [(w, f), ...]) with n <= 8 and up to six weighted formulas."""
    return st.integers(1, 8).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.tuples(weights, formulas(n)), max_size=6))
    )


@PROPERTY
@given(weighted_clauses(non_dyadic))
def test_compile_pseudo_is_the_running_sum(case):
    n, clauses = case
    obj = PseudoBooleanObjective(n, tuple(clauses))
    h = compile_pseudo(obj)
    running = DiagonalHamiltonian.zero(n)
    for w, e in clauses:
        running = running + w * compile_expr(e, n)
    assert h.max_coeff_diff(running) <= 1e-12
    for x in range(1 << n):
        assert abs(h.eval(x) - obj.value(x)) <= 1e-9


@PROPERTY
@given(
    weighted_clauses(non_dyadic.map(abs)),
    st.lists(coeffs, min_size=256, max_size=256),
)
def test_augment_penalties_is_the_running_sum(case, objective_coeffs):
    n, penalties = case
    objective = DiagonalHamiltonian(n, dict(enumerate(objective_coeffs[: 1 << n])))
    h = augment_penalties(PenaltySpec(objective, tuple(penalties)))
    running = objective
    for w, g in penalties:
        running = running + w * compile_expr(g, n)
    assert h.max_coeff_diff(running) <= 1e-12
    for x in range(1 << n):
        value = objective.eval(x) + sum(w * eval_expr(g, x) for w, g in penalties)
        assert abs(h.eval(x) - value) <= 1e-9
