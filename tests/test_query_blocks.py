"""The block path of the bit-query and kickback checks.  ``oracle._query_blocks``
reads a bit query H_a M H_a as its 2^n 2x2 blocks from the phase polynomial
of its middle M, with one transform and no per-rotation vector; the blocks
agree with the dense unitary within 1e-14, and the checks built on them give
the dense checks' residuals within 1e-14.  ``reference_query_blocks``
(conftest, imported here as ``_query_blocks``) is the numeric block path
this replaced, equal to the dense entries to the bit.  Mutated bit queries
fail the checks, and the checks hold no matrix."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from boolham import circuits as circuits_module
from boolham import oracle
from boolham.boolexpr import Const, max_var, parse_expr, truth_table
from boolham.circuits import Circuit, crz, cx, h, rz, x
from boolham.cli import main
from boolham.compiler import compile_expr
from boolham.errors import CapExceeded
from boolham.fourier import table_from_fourier
from boolham.oracle import maxdiff, simulate_circuit
from boolham.verify import (
    TOL,
    _kickback_checks,
    _reference_blocks,
    _sandwich_residual,
    expression_checks,
    random_expr,
    verify_kickback_suite,
)
from boolham.zpoly import TABLE_CAP
from conftest import (
    reference_bit_query_matrix,
    reference_kickback_checks,
    reference_query_blocks as _query_blocks,
    reference_sandwich_residual,
    reference_walk,
)
from test_fold import PROPERTY, formulas
from test_monomial import H_FREE
from test_simulate import circuits

small_formulas = st.integers(0, 6).flatmap(lambda n: st.tuples(formulas(n), st.just(n)))


def dense_blocks(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The x-blocks of a 2^(n+1)-square matrix, [x, a', a], and its other entries."""
    half = g.shape[0] // 2
    xs = np.arange(half)
    rows = xs[:, None, None] + half * np.arange(2)[None, :, None]
    cols = xs[:, None, None] + half * np.arange(2)[None, None, :]
    in_block = np.zeros(g.shape, dtype=bool)
    in_block[rows, cols] = True
    return g[rows, cols], g[~in_block]


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.view(np.uint64).tobytes() == b.view(np.uint64).tobytes()


def by_name(checks) -> dict[str, float]:
    return {c.name.partition(": ")[2]: c.residual for c in checks}


# -- the blocks against the dense unitary --------------------------------------


@PROPERTY
@given(small_formulas)
def test_blocks_are_the_dense_bit_query_to_the_bit(case):
    e, n = case
    c = circuits_module._bit_query(compile_expr(e, n))
    blocks, others = dense_blocks(simulate_circuit(c))
    assert same_bits(_query_blocks(c), blocks)
    assert not others.any()


@PROPERTY
@given(circuits())
def test_any_circuit_is_its_dense_blocks_or_refused(c):
    # the last qubit is the ancilla; a circuit that moves x is refused
    blocks = _query_blocks(c)
    want, others = dense_blocks(simulate_circuit(c))
    if blocks is None:
        assert any(g.name == "h" and g.qubits[0] != c.n_qubits for g in c.gates) or any(
            g.name in ("cx", "x") and g.qubits[-1] != c.n_qubits for g in c.gates
        )
    else:
        assert same_bits(blocks, want)
        assert not others.any()


def test_ancilla_flips_are_row_swaps_inside_a_block():
    # X and data-controlled CX on the ancilla, around H gates and rotations
    c = Circuit(3, (h(3), x(3), cx(1, 3), rz(3, 0.4), crz(3, 2, 1.1), h(3), cx(2, 3)), 0.3)
    blocks = _query_blocks(c)
    want, others = dense_blocks(simulate_circuit(c))
    assert same_bits(blocks, want) and not others.any()
    # CNOT, data qubit 1 on the ancilla: I where x1 = 0, X where x1 = 1
    assert same_bits(_query_blocks(Circuit(2, (cx(1, 2),))), _reference_blocks(np.array([0.0, 1.0])))


def test_circuits_that_move_the_data_register_are_refused():
    assert _query_blocks(Circuit(2, (h(1),))) is None
    assert _query_blocks(Circuit(2, (cx(2, 1),))) is None
    assert _query_blocks(Circuit(3, (x(1), x(1), cx(1, 2)))) is None
    assert _query_blocks(Circuit(3, (cx(1, 2), cx(1, 2), h(3)))) is not None


def test_blocks_are_bounded_like_a_value_table():
    with pytest.raises(CapExceeded):
        _query_blocks(Circuit(TABLE_CAP + 1, ()))


# -- the library's blocks, read from the middle's phase polynomial ----------------


def is_bit_query(c: Circuit) -> bool:
    """H on the ancilla (the last qubit), an H-free middle that fixes every
    basis state (``reference_walk``), and H on the ancilla."""
    ancilla_h = lambda g: g.name == "h" and g.qubits == (c.n_qubits,)
    if len(c.gates) < 2 or not (ancilla_h(c.gates[0]) and ancilla_h(c.gates[-1])):
        return False
    middle = Circuit(c.n_qubits, c.gates[1:-1])
    if any(g.name == "h" for g in middle.gates):
        return False
    return all(reference_walk(middle, x)[0] == x for x in range(1 << c.n_qubits))


def in_ancilla_hadamards(c: Circuit) -> Circuit:
    return replace(c, gates=(h(c.n_qubits), *c.gates, h(c.n_qubits)))


@PROPERTY
@given(small_formulas)
def test_the_phase_polynomial_blocks_are_the_dense_bit_query(case):
    e, n = case
    c = circuits_module._bit_query(compile_expr(e, n))
    blocks, _ = dense_blocks(simulate_circuit(c))
    assert maxdiff(oracle._query_blocks(c), blocks) <= 1e-14


@PROPERTY
@given(
    st.one_of(
        circuits(),
        circuits(H_FREE).map(in_ancilla_hadamards),
        circuits(("rz", "crz", "ccrz")).map(in_ancilla_hadamards),
    )
)
def test_the_reader_gives_the_dense_blocks_or_refuses_what_is_not_a_bit_query(c):
    blocks = oracle._query_blocks(c)
    if is_bit_query(c):
        want, others = dense_blocks(simulate_circuit(c))
        assert maxdiff(blocks, want) <= 1e-12
        assert not others.any()
    else:
        assert blocks is None


@pytest.mark.parametrize(
    "text",
    [
        "(x1 & x2 & x3 & x4) ^ (x5 & x6 & !x7 & x8) ^ (x9 | x10 | x11 | x12)",
        "(x1 & x2 & x3 & x4) ^ (x5 & !x6 & x7 & x8) ^ (x9 & x10 & x11 & x12) ^ x13 ^ x14 ^ x15 ^ x16",
    ],
)
def test_the_reader_at_12_and_16_data_qubits(text):
    # over 4,000 terms each, on every qubit of the register
    e = parse_expr(text)
    n = max_var(e)
    hf = compile_expr(e, n)
    assert hf.size >= 4096
    blocks = oracle._query_blocks(circuits_module._bit_query(hf))
    assert maxdiff(blocks, _reference_blocks(truth_table(e, n))) <= TOL


def test_the_reader_refuses_each_broken_sandwich():
    c = circuits_module._bit_query(compile_expr(parse_expr("(x1 & x2) | x3"), 3))
    assert oracle._query_blocks(c) is not None
    gates = c.gates
    broken = {
        "no closing H": gates[:-1],
        "a rotation in place of the closing H": (*gates[:-1], rz(4, 0.3)),
        "an extra ancilla H": (*gates, h(4)),
        "an H on a data qubit": (gates[0], h(2), *gates[1:]),
        "an X on the ancilla in the middle": (gates[0], x(4), *gates[1:]),
    }
    for name, mutated in broken.items():
        assert oracle._query_blocks(replace(c, gates=mutated)) is None, name


def test_the_reader_does_not_check_the_middle_again(monkeypatch):
    # the middle's gates come from the checked query, so no Circuit re-checks them
    e = parse_expr("(x1 & x2) | x3")
    c = circuits_module._bit_query(compile_expr(e, 3))

    def refuse(n_qubits, gates):
        raise AssertionError("register checked again")

    monkeypatch.setattr(circuits_module, "_require_in_register", refuse)
    assert maxdiff(oracle._query_blocks(c), _reference_blocks(truth_table(e, 3))) <= TOL


def test_the_reader_is_bounded_like_a_value_table():
    big = TABLE_CAP + 1
    for c in (Circuit(big, ()), Circuit(big, (h(big), h(big)))):
        with pytest.raises(CapExceeded):
            oracle._query_blocks(c)


# -- the residuals against the dense checks ------------------------------------


def assert_near_with_its_verdict(got: float, want: float) -> None:
    assert abs(got - want) <= 1e-14
    assert (got <= TOL) == (want <= TOL)


@PROPERTY
@given(small_formulas)
def test_block_residuals_match_the_dense_checks(case):
    # the library's blocks come from the middle's phase polynomial, not from
    # simulate_circuit's ufunc calls, so its residuals match the dense ones within
    # 1e-14; the reference blocks still give the dense action and trace to the bit
    e, n = case
    hf, table = compile_expr(e, n), truth_table(e, n)
    c = circuits_module._bit_query(hf)
    g, g_ref = simulate_circuit(c), reference_bit_query_matrix(table)
    trace = np.trace(g)
    dense_trace = abs(trace.real / (1 << (n + 1)) - (1.0 - hf.identity_coeff)) + abs(
        trace.imag / (1 << (n + 1))
    )
    dense = {
        "bit query action": maxdiff(g, g_ref),
        "bit query involution": maxdiff(g @ g, np.eye(g.shape[0])),
        "bit query trace identity": dense_trace,
    }
    got = by_name(expression_checks("f", e, n))
    for name, want in dense.items():
        assert_near_with_its_verdict(got[name], want)

    diag = table_from_fourier(hf)
    dense_kickback = reference_kickback_checks(diag, table, g, g_ref)
    blocks = _kickback_checks(diag, table, oracle._query_blocks(c), _reference_blocks(table))
    for check, want in zip(blocks.checks, dense_kickback):
        assert_near_with_its_verdict(check.residual, want)

    ref = _query_blocks(c)
    assert maxdiff(ref, _reference_blocks(table)).hex() == dense["bit query action"].hex()
    ref_trace = np.concatenate((ref[:, 0, 0], ref[:, 1, 1])).sum()  # in np.trace's order
    assert (ref_trace.real.hex(), ref_trace.imag.hex()) == (trace.real.hex(), trace.imag.hex())
    on_ref = _kickback_checks(diag, table, ref, _reference_blocks(table)).checks
    assert on_ref[0].residual.hex() == dense_kickback[0].hex()
    assert abs(on_ref[2].residual - dense_kickback[2]) <= 1e-15


@PROPERTY
@given(st.integers(0, 6), st.integers(0, 2**32 - 1), st.booleans())
def test_the_one_product_sandwich_is_the_per_time_reference_to_the_bit(n, seed, rounded):
    # random complex blocks; rounded ones hold zeros and small integers, as bit queries do
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(1 << n, 2, 2)) + 1j * rng.normal(size=(1 << n, 2, 2))
    diag = rng.normal(size=1 << n)
    if rounded:
        g, diag = np.round(g), np.round(diag)
    assert _sandwich_residual(g, diag).hex() == reference_sandwich_residual(g, diag).hex()


@PROPERTY
@given(small_formulas)
def test_the_sandwich_on_bit_queries_is_the_per_time_reference_to_the_bit(case):
    e, n = case
    hf = compile_expr(e, n)
    g, diag = _query_blocks(circuits_module._bit_query(hf)), table_from_fourier(hf)
    assert _sandwich_residual(g, diag).hex() == reference_sandwich_residual(g, diag).hex()


def test_no_bit_query_reads_inf_in_the_sandwich():
    assert _sandwich_residual(None, np.zeros(4)) == reference_sandwich_residual(None, np.zeros(4))
    assert _sandwich_residual(None, np.zeros(4)) == math.inf


def test_reference_blocks_are_the_dense_reference():
    table = truth_table(parse_expr("(x1 | x2) ^ x3"), 3)
    blocks, others = dense_blocks(reference_bit_query_matrix(table))
    assert same_bits(_reference_blocks(table), blocks) and not others.any()


# -- mutated bit queries fail the checks that read them --------------------------


def first(c: Circuit, name: str) -> int:
    return next(i for i, g in enumerate(c.gates) if g.name == name)


def drop_a_ladder_cx(c: Circuit) -> Circuit:
    i = first(c, "cx")
    return replace(c, gates=c.gates[:i] + c.gates[i + 1:])


def drop_the_closing_h(c: Circuit) -> Circuit:
    assert c.gates[-1].name == "h"
    return replace(c, gates=c.gates[:-1])


def extra_ancilla_h(c: Circuit) -> Circuit:
    return replace(c, gates=(*c.gates, h(c.n_qubits)))


def data_h(c: Circuit) -> Circuit:
    return replace(c, gates=(h(1), *c.gates))


def crz_angle_off(c: Circuit) -> Circuit:
    i = first(c, "crz")
    gates = list(c.gates)
    gates[i] = crz(*gates[i].qubits, gates[i].angle + 0.1)
    return replace(c, gates=tuple(gates))


def crz_moved_control(c: Circuit) -> Circuit:
    # the ancilla's CRZ on a data target, controlled by another data qubit instead
    i = first(c, "crz")
    gates = list(c.gates)
    _, target = gates[i].qubits
    other = next(q for q in range(1, c.n_qubits) if q != target)
    gates[i] = crz(other, target, gates[i].angle)
    return replace(c, gates=tuple(gates))


MUTANTS = [drop_a_ladder_cx, drop_the_closing_h, extra_ancilla_h, data_h, crz_angle_off,
           crz_moved_control]


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.__name__ for m in MUTANTS])
@pytest.mark.parametrize("text", ["x1 & x2", "(x1 | x2) ^ x3", "(x1 & !x4) | (x2 ^ x5 ^ x3)",
                                  "(x1 & x6) | (x2 ^ x4)"])
def test_a_mutated_bit_query_fails_the_checks_built_on_it(text, mutant, monkeypatch):
    e = parse_expr(text)
    n = max_var(e)
    emit = circuits_module._bit_query
    assert by_name(expression_checks("f", e, n))["bit query action"] <= TOL
    monkeypatch.setattr(circuits_module, "_bit_query", lambda hf: mutant(emit(hf)))
    got = by_name(expression_checks("f", e, n))
    assert got["bit query action"] > TOL
    if mutant in (drop_a_ladder_cx, data_h):  # x moves: not a bit query
        assert got["bit query action"] == got["bit query involution"] == math.inf
    if n <= 5:
        assert got["kickback suite"] > TOL
        assert not verify_kickback_suite(e, n).passed
    else:
        assert "kickback suite" not in got


# -- no matrix ------------------------------------------------------------------


def no_matrix(*args, **kwargs):
    raise AssertionError("verify built a dense matrix")


def test_verify_builds_no_matrix(monkeypatch, capsys):
    monkeypatch.setattr(oracle, "simulate_circuit", no_matrix)
    assert main(["verify"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "1084 checks, 0 failures: PASS"
    for text in ["x1", "(x1 | x2) ^ x3", "(x1 & x6) | (x2 ^ x4 ^ !x5)"]:
        assert main(["verify", "-e", text]) == 0
        assert capsys.readouterr().out.endswith("0 failures: PASS\n")


def traced_peak(fn, *args) -> int:
    fn(*args)  # imports and caches outside the trace
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_bit_query_checks_hold_no_matrix():
    # the dense G_f at n = 6 is 256 KiB, and its products as large
    rng = np.random.default_rng(6)
    e = random_expr(rng, 6, depth=4)
    assert "f: bit query action" in [c.name for c in expression_checks("f", e, 6)]
    assert traced_peak(expression_checks, "f", e, 6) < 128 << 10
    assert traced_peak(verify_kickback_suite, random_expr(rng, 5, depth=4), 5) < 128 << 10


@pytest.mark.parametrize(
    "argv, count",
    [(["-e", "1", "-n", "0"], 15), (["-e", "0", "-n", "0"], 15), (["-e", "x1", "-n", "1"], 16)],
)
def test_verify_on_registers_of_one_and_two_blocks(argv, count, capsys):
    assert main(["verify", *argv]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == f"{count} checks, 0 failures: PASS"
    assert sum("bit query" in line for line in out) == 3
    assert sum("kickback suite" in line for line in out) == 1


def test_constant_queries_at_n_0():
    for value in (0, 1):
        c = circuits_module._bit_query(compile_expr(Const(value), 0))
        blocks = _query_blocks(c)
        assert blocks.shape == (1, 2, 2)
        assert maxdiff(blocks, _reference_blocks(np.array([float(value)]))) < 1e-15
