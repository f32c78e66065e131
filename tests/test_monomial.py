"""The vector references of the evolution checks, and the faults the checks
catch.  ``_monomial`` and ``_monomial_maxdiff`` are references in
``conftest``: the first reads an H-free circuit as a permutation and a phase
vector, and the second gives the number ``phase_aligned_maxdiff`` gives on
the two matrices, to the bit.  The evolution rows of ``verify`` read
``oracle._phase_polynomial`` instead, with no 2^n vector; they catch the
faults an emitted circuit can have and hold no matrix."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from boolham import circuits as circuits_module
from boolham.boolexpr import parse_expr
from boolham.circuits import _GATE_SHAPE, Circuit, Gate, emit_evolution
from boolham.compiler import compile_expr
from boolham.errors import CapExceeded
from boolham.fourier import table_from_fourier
from boolham.oracle import phase_aligned_maxdiff, simulate_circuit
from boolham.verify import TOL, expression_checks, qubo_checks, random_expr, random_qubo
from boolham.zpoly import TABLE_CAP, DiagonalHamiltonian
from conftest import _monomial, _monomial_maxdiff, random_zham, reference_simulate
from test_fold import PROPERTY
from test_simulate import circuits

H_FREE = [name for name in _GATE_SHAPE if name != "h"]


def dense(rows: np.ndarray, vals: np.ndarray) -> np.ndarray:
    u = np.zeros((rows.size, rows.size), dtype=complex)
    u[rows, np.arange(rows.size)] = vals
    return u


def targets(n: int):
    """Unit-modulus diagonals with some entries zero, and all-zero ones."""
    entry = st.one_of(
        st.just(0.0),
        st.floats(-10.0, 10.0, allow_nan=False).map(lambda a: complex(np.exp(1j * a))),
    )
    return st.lists(entry, min_size=1 << n, max_size=1 << n).map(
        lambda xs: np.array(xs, dtype=complex)
    )


def assert_same_residual(t: np.ndarray, c: Circuit) -> None:
    want = phase_aligned_maxdiff(np.diag(t), simulate_circuit(c))
    got = _monomial_maxdiff(t, *_monomial(c))
    assert got.hex() == want.hex()


# -- _monomial and the vector comparison -------------------------------------


@PROPERTY
@given(circuits(names=H_FREE))
def test_monomial_is_the_reference_unitary_to_the_bit(c):
    assert np.array_equal(dense(*_monomial(c)), reference_simulate(c))


@PROPERTY
@given(circuits(names=H_FREE).flatmap(lambda c: st.tuples(st.just(c), targets(c.n_qubits))))
def test_residual_equals_the_dense_phase_aligned_maxdiff(case):
    c, t = case
    assert_same_residual(t, c)


@pytest.mark.parametrize("seed", range(4))
def test_residual_on_evolution_circuits_and_their_faults(seed):
    rng = np.random.default_rng(seed)
    h = random_zham(rng, 5, 12)
    t = np.exp(-0.7j * table_from_fourier(h))
    c = emit_evolution(h, 0.7)
    assert np.array_equal(_monomial(c)[0], np.arange(32))  # the identity map's fast path
    assert_same_residual(t, c)
    dropped = drop_first_cx(c)
    assert not np.array_equal(_monomial(dropped)[0], np.arange(32))
    assert_same_residual(t, dropped)
    for zero in (0, 5, 31):  # a zero target entry, and a target of zeros
        t0 = t.copy()
        t0[zero] = 0.0
        assert_same_residual(t0, dropped)
    assert_same_residual(np.zeros(32, dtype=complex), dropped)


def test_a_moved_pivot_takes_the_guard():
    # X on qubit 1 moves every column, so the pivot's column has no diagonal entry
    c = Circuit(2, (Gate("x", (1,)), Gate("rz", (2,), 0.4)), 0.3)
    t = np.exp(1j * np.array([0.1, 0.2, 0.3, 0.4]))
    assert_same_residual(t, c)
    assert _monomial_maxdiff(t, *_monomial(c)) == pytest.approx(1.0)


def test_monomial_refuses_an_h_gate_and_a_register_above_the_table_cap():
    with pytest.raises(ValueError, match="no H gate"):
        _monomial(Circuit(2, (Gate("rz", (1,), 0.5), Gate("h", (2,)))))
    with pytest.raises(ValueError, match="no H gate"):
        _monomial(Circuit(1, (Gate("h", (1,)),)))
    with pytest.raises(CapExceeded):
        _monomial(Circuit(TABLE_CAP + 1, ()))


# -- mutations the evolution checks catch --------------------------------------

EVOLUTION = "evolution circuit vs exponential"


def drop_first_cx(c: Circuit) -> Circuit:
    k = next(k for k, g in enumerate(c.gates) if g.name == "cx")
    return replace(c, gates=c.gates[:k] + c.gates[k + 1:])


def nudge_first_rz(c: Circuit) -> Circuit:
    k = next(k for k, g in enumerate(c.gates) if g.name == "rz")
    gates = list(c.gates)
    gates[k] = replace(gates[k], angle=gates[k].angle + 0.1)
    return replace(c, gates=tuple(gates))


def swap_two_rz_angles(c: Circuit) -> Circuit:
    rz = [k for k, g in enumerate(c.gates) if g.name == "rz"]
    a = rz[0]
    b = next(k for k in rz if c.gates[k].angle != c.gates[a].angle)
    gates = list(c.gates)
    gates[a] = replace(c.gates[a], angle=c.gates[b].angle)
    gates[b] = replace(c.gates[b], angle=c.gates[a].angle)
    return replace(c, gates=tuple(gates))


def shift_global_phase(c: Circuit) -> Circuit:
    return replace(c, global_phase=c.global_phase + 0.9)


def evolution_residual(checks) -> float:
    (check,) = [c for c in checks if c.name.endswith(EVOLUTION)]
    return check.residual


def mutated(monkeypatch, emitter: str, mutation):
    emit = getattr(circuits_module, emitter)
    monkeypatch.setattr(circuits_module, emitter, lambda *args: mutation(emit(*args)))


FAULTS = [drop_first_cx, nudge_first_rz, swap_two_rz_angles]
# "x1 ^ x2" is one term; these have CX ladders and rotations of distinct angles
FORMULAS = ["(x1 | !x2) & x3", "(x1 & x2) | (x3 ^ x4)"]


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("text", FORMULAS)
def test_expression_evolution_check_catches(monkeypatch, fault, text):
    e = parse_expr(text)
    assert evolution_residual(expression_checks("f", e)) <= TOL
    mutated(monkeypatch, "emit_evolution", fault)
    assert evolution_residual(expression_checks("f", e)) > TOL


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("n", [3, 8])
def test_qubo_evolution_check_catches(monkeypatch, fault, n):
    q = random_qubo(np.random.default_rng(n), n)
    assert evolution_residual(qubo_checks("q", q)) <= TOL
    mutated(monkeypatch, "emit_qubo_evolution", fault)
    assert evolution_residual(qubo_checks("q", q)) > TOL


def test_a_shifted_global_phase_still_passes(monkeypatch):
    e, q = parse_expr(FORMULAS[1]), random_qubo(np.random.default_rng(5), 5)
    mutated(monkeypatch, "emit_evolution", shift_global_phase)
    mutated(monkeypatch, "emit_qubo_evolution", shift_global_phase)
    assert evolution_residual(expression_checks("f", e)) <= TOL
    assert evolution_residual(qubo_checks("q", q)) <= TOL


# -- memory: no matrix in the checks, vectors in the reference ------------------


def traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_checks_at_8_qubits_hold_no_matrix():
    # a 256-square complex matrix is 1 MiB; the evolution rows read phase
    # polynomials, and the bound stays where it was set for 2^n vectors
    rng = np.random.default_rng(8)
    e, q = random_expr(rng, 8, depth=4), random_qubo(rng, 8)
    assert compile_expr(e, 8).degree >= 1
    for fn, args in ((expression_checks, ("e", e, 8)), (qubo_checks, ("q", q))):
        assert any(c.name.endswith(EVOLUTION) for c in fn(*args))
        assert traced_peak(fn, *args) < 512 << 10


def test_monomial_memory_does_not_grow_with_the_gate_count():
    # the conftest reference holds two 2^n vectors, whatever the gate count
    rng = np.random.default_rng(12)
    h = DiagonalHamiltonian(12, {m: float(rng.uniform(-1, 1)) for m in range(1, 1 << 12)})
    c = emit_evolution(h, math.pi / 3)
    assert len(c.gates) > 45_000
    assert traced_peak(_monomial, c) < 1 << 20
