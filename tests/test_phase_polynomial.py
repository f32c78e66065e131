"""The evolution checks read an H-free circuit as its phase polynomial:
``oracle._phase_polynomial`` tracks the parity map with int masks and sums
each rotation's angle onto its mask, with no 2^n vector, and
``verify._evolution_residual`` compares the sum with gamma H term by term.
The polynomial agrees with ``reference_walk`` (conftest), which runs the
gates on one basis state at a time, at any register size up to
MAX_QUBITS, and the check passes exactly where the vector check it
replaced (conftest's ``_monomial_maxdiff``) passes."""

import cmath
import json
import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from boolham import oracle
from boolham.boolexpr import parse_dimacs, parse_expr
from boolham.circuits import (
    Circuit,
    Gate,
    _bit_query,
    emit_controlled_evolution,
    emit_evolution,
    emit_qubo_evolution,
    lower_basic,
)
from boolham.cli import main
from boolham.compiler import QuboInstance, compile_expr, compile_pseudo, compile_qubo
from boolham.fourier import table_from_fourier
from boolham.oracle import _phase_polynomial
from boolham.verify import (
    QUBO_SAMPLE_SEED,
    TOL,
    _evolution_residual,
    random_qubo,
    verify_kickback_suite,
)
from boolham.zpoly import MAX_QUBITS, DiagonalHamiltonian
from conftest import _monomial, _monomial_maxdiff, random_cnf, random_zham, reference_walk
from test_fold import PROPERTY, formulas
from test_monomial import FAULTS, H_FREE, drop_first_cx
from test_simulate import angles, circuits

SAMPLE_DRAWS = 14


def samples(n: int) -> list[int]:
    """All-zeros, all-ones and QUBO_SAMPLE_SEED's draws, as the QUBO check samples."""
    rnd = random.Random(QUBO_SAMPLE_SEED)
    return [0, (1 << n) - 1, *(rnd.getrandbits(n) for _ in range(SAMPLE_DRAWS))]


def polynomial_at(poly: dict[int, float], x: int) -> float:
    return sum(-w if (m & x).bit_count() & 1 else w for m, w in poly.items())


def image(masks: list[int], x: int) -> int:
    """Where the parity map sends x: qubit q's bit is the parity of its mask
    on x with bit n set, the bit an X flip sits on."""
    lifted = x | (1 << len(masks))
    return sum(((m & lifted).bit_count() & 1) << q for q, m in enumerate(masks))


def assert_reads_as_the_walk(c: Circuit, xs) -> None:
    masks, poly = _phase_polynomial(c)
    for x in xs:
        y, phase = reference_walk(c, x)
        assert image(masks, x) == y
        assert abs(cmath.exp(-1j * polynomial_at(poly, x)) - cmath.exp(1j * phase)) <= TOL


def assert_evolution(c: Circuit, h: DiagonalHamiltonian, gamma: float) -> None:
    """c and its lowering fix every sampled state, with the phase of exp(-i gamma H),
    and the reader's polynomial gives the walk's phase."""
    for circ in (c, lower_basic(c)):
        xs = samples(circ.n_qubits)
        assert_reads_as_the_walk(circ, xs)
        assert _phase_polynomial(circ)[0] == [1 << q for q in range(circ.n_qubits)]
        for x in xs:
            y, phase = reference_walk(circ, x)
            assert y == x
            assert abs(cmath.exp(1j * phase) - cmath.exp(-1j * gamma * h.eval(x))) <= TOL


# -- the reader against the walk, at any register size ---------------------------

operators = st.integers(1, MAX_QUBITS).flatmap(
    lambda n: st.dictionaries(
        st.integers(0, (1 << n) - 1), st.floats(-2.0, 2.0, allow_nan=False), max_size=12
    ).map(lambda terms: DiagonalHamiltonian(n, terms))
)


def sparse_qubo(seed: int, n: int) -> QuboInstance:
    """A QUBO with up to 2n quadratic entries, so a large register stays cheap to walk."""
    rng = np.random.default_rng(seed)
    quad = np.zeros((n, n))
    for _ in range(2 * n):
        j, k = rng.integers(n, size=2)
        if j != k:
            quad[j, k] = quad[k, j] = rng.uniform(-2.0, 2.0)
    return QuboInstance(n, float(rng.uniform(-2.0, 2.0)), rng.uniform(-2.0, 2.0, size=n), quad)


@PROPERTY
@given(circuits(names=H_FREE))
def test_the_polynomial_is_the_walk_on_every_state(c):
    # X flips, CRZ and CCRZ splits, and maps that move states, on all 2^n inputs
    assert_reads_as_the_walk(c, range(1 << c.n_qubits))


@PROPERTY
@given(operators, angles)
def test_evolution_at_any_register_size(h, gamma):
    assert_evolution(emit_evolution(h, gamma), h, gamma)


@PROPERTY
@given(st.integers(1, MAX_QUBITS), st.integers(0, 2**32 - 1), angles)
def test_qubo_evolution_at_any_register_size(n, seed, t):
    q = sparse_qubo(seed, n)
    assert_evolution(emit_qubo_evolution(q, t), compile_qubo(q), t)


@PROPERTY
@given(
    st.integers(1, 4).flatmap(lambda k: st.tuples(formulas(k), st.just(k))),
    st.integers(1, MAX_QUBITS - 4),
    st.integers(0, 2**32 - 1),
    angles,
)
def test_controlled_evolution_at_any_register_size(control, n_data, seed, t):
    f, k = control
    ham = random_zham(np.random.default_rng(seed), n_data, 6)
    c = emit_controlled_evolution(f, ham, t, n_ctrl=k)
    assert_evolution(c, compile_expr(f, k).tensor(ham), t)


@PROPERTY
@given(st.integers(1, MAX_QUBITS - 1).flatmap(lambda n: st.tuples(formulas(min(n, 8)), st.just(n))))
def test_the_bit_query_middle_is_pi_x_a_h_f(case):
    # G_f = H_a e^(-i pi x_a H_f) H_a: the gates between the H gates, and the
    # lowering's CRZ halves, give e^(-i pi x_a H_f(x)) with the identity map
    e, n = case
    hf = compile_expr(e, n)
    c = _bit_query(hf)
    for circ in (c, lower_basic(c)):
        middle = replace(circ, gates=circ.gates[1:-1])
        xs = samples(n + 1)
        assert_reads_as_the_walk(middle, xs)
        assert _phase_polynomial(middle)[0] == [1 << q for q in range(n + 1)]
        for x in xs:
            y, phase = reference_walk(middle, x)
            want = cmath.exp(-1j * math.pi * (x >> n) * hf.eval(x & ((1 << n) - 1)))
            assert y == x
            assert abs(cmath.exp(1j * phase) - want) <= TOL


# -- the residual beyond the vector check's reach --------------------------------


def maxsat_operator(n: int, n_clauses: int, seed: int) -> DiagonalHamiltonian:
    rng = np.random.default_rng(seed)
    header, *clauses = random_cnf(rng, n, n_clauses).splitlines()
    weighted = [f"{rng.integers(1, 6)} {clause}" for clause in clauses]
    objective, _ = parse_dimacs("\n".join([header.replace("cnf", "wcnf"), *weighted]) + "\n")
    return compile_pseudo(objective, n)


@pytest.fixture(scope="module")
def maxsat60():
    h = maxsat_operator(60, 480, seed=60)  # clause ratio 8, as in MAX-SAT emit sizes
    gamma = 0.7
    return h, gamma, emit_evolution(h, gamma)


def first(c: Circuit, name: str) -> int:
    return next(k for k, g in enumerate(c.gates) if g.name == name)


def test_a_60_qubit_maxsat_circuit_reads_exactly(maxsat60):
    h, gamma, c = maxsat60
    assert c.n_qubits == 60 and h.size > 700 and c.cnot_count > 1000
    assert _evolution_residual(c, h, gamma) == 0.0


def test_a_dropped_cx_an_inserted_h_or_a_moved_control_reads_inf(maxsat60):
    h, gamma, c = maxsat60
    k = first(c, "cx")
    ctrl, tgt = c.gates[k].qubits
    moved = next(q for q in range(1, c.n_qubits + 1) if q not in (ctrl, tgt))
    middle = len(c.gates) // 2
    mutants = [
        drop_first_cx(c),
        replace(c, gates=c.gates[:middle] + (Gate("h", (1,)),) + c.gates[middle:]),
        replace(c, gates=c.gates[:k] + (Gate("cx", (moved, tgt)),) + c.gates[k + 1:]),
    ]
    for mutant in mutants:
        assert _evolution_residual(mutant, h, gamma) == math.inf


def test_a_raised_rz_reads_half_the_raise(maxsat60):
    h, gamma, c = maxsat60
    k = first(c, "rz")
    gates = list(c.gates)
    gates[k] = replace(gates[k], angle=gates[k].angle + 0.1)
    residual = _evolution_residual(replace(c, gates=tuple(gates)), h, gamma)
    assert residual == pytest.approx(0.05, abs=1e-12)


def test_a_term_outside_the_operator_reads_its_coefficient(maxsat60):
    h, gamma, c = maxsat60
    pairs = ((a, b) for a in range(1, 61) for b in range(a + 1, 61))
    a, b = next((a, b) for a, b in pairs if not h.coeff((1 << (a - 1)) | (1 << (b - 1))))
    extra = (Gate("cx", (a, b)), Gate("rz", (b,), 0.2), Gate("cx", (a, b)))  # 0.1 on Z_a Z_b
    residual = _evolution_residual(replace(c, gates=c.gates + extra), h, gamma)
    assert residual == pytest.approx(0.1, abs=1e-12)


def test_the_reader_refuses_an_h_gate():
    assert _phase_polynomial(Circuit(2, (Gate("rz", (1,), 0.5), Gate("h", (2,))))) is None


# -- the same verdict as the vector check, at n <= 8 -------------------------------


def mutant(c: Circuit, fault) -> Circuit:
    """c with the fault applied, or c itself where it has no CX, no RZ or
    no two distinct RZ angles for the fault to change."""
    try:
        return c if fault is None else fault(c)
    except (StopIteration, IndexError):
        return c


def assert_same_verdict(c: Circuit, h: DiagonalHamiltonian, gamma: float) -> None:
    vector = _monomial_maxdiff(np.exp(-1j * gamma * table_from_fourier(h)), *_monomial(c))
    assert (_evolution_residual(c, h, gamma) <= TOL) == (vector <= TOL)


@PROPERTY
@given(
    st.integers(0, 8).flatmap(lambda n: st.tuples(formulas(n), st.just(n))),
    st.sampled_from([0.3, 1.0, math.pi]),
    st.sampled_from([None, *FAULTS]),
)
def test_the_verdict_is_the_vector_checks_on_formulas(case, gamma, fault):
    e, n = case
    h = compile_expr(e, n)
    assert_same_verdict(mutant(emit_evolution(h, gamma), fault), h, gamma)


@PROPERTY
@given(
    st.integers(1, 8), st.integers(0, 2**32 - 1), st.booleans(), angles,
    st.sampled_from([None, *FAULTS]),
)
def test_the_verdict_is_the_vector_checks_on_operators(n, seed, qubo, gamma, fault):
    rng = np.random.default_rng(seed)
    h = compile_qubo(random_qubo(rng, n)) if qubo else random_zham(rng, n, 12)
    assert_same_verdict(mutant(emit_evolution(h, gamma), fault), h, gamma)


# -- no 2^n vector ----------------------------------------------------------------


def no_runs(c):
    raise AssertionError("a circuit went through oracle._runs")


def test_verify_reads_evolution_circuits_without_runs(monkeypatch, capsys, tmp_path):
    # evolution circuits, bit queries and the kickback suite: every tier reads
    # circuits as phase polynomials
    monkeypatch.setattr(oracle, "_runs", no_runs)
    assert main(["verify"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "1084 checks, 0 failures: PASS"
    rng = np.random.default_rng(8)
    q = random_qubo(rng, 8)
    doc = {
        "n": 8,
        "a": q.constant,
        "linear": q.linear.tolist(),
        "quadratic": [[j + 1, k + 1, q.quadratic[j, k]] for j in range(8) for k in range(j + 1, 8)],
    }
    path = tmp_path / "q.json"
    path.write_text(json.dumps(doc))
    text = "(x1 & x2) | (x3 ^ x4 ^ !x5) | (x6 => x7 & x8)"
    six = "(x1 & x2) | (x3 ^ x4 ^ !x5) | x6"
    for argv, rows in (
        (["-e", text, "-n", "8"], 0),
        (["-e", six, "-n", "6"], 3),  # the bit-query tier
        (["--qubo", str(path)], 0),
    ):
        assert main(["verify", *argv]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-1].endswith("0 failures: PASS")
        assert any("evolution circuit vs exponential" in line for line in out)
        assert sum("bit query" in line for line in out) == rows
    assert verify_kickback_suite(parse_expr("(x1 & x2) ^ (x3 | !x4) ^ x5"), 5).passed
