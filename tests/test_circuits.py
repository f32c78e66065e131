"""Unit tests for circuit emission, serialization, and lowering."""

import math

import numpy as np
import pytest

from boolham.boolexpr import Const, Var, parse_expr
from boolham.circuits import (
    Circuit,
    Gate,
    ccrz,
    crz,
    cx,
    emit_bit_query,
    emit_controlled_evolution,
    emit_evolution,
    emit_qubo_evolution,
    evolution_term_profile,
    h as h_gate,
    lower_basic,
    parse_circuit,
    rz,
    serialize,
)
from boolham.compiler import QuboInstance, compile_expr, compile_qubo
from boolham.errors import ParseError, QubitCountError
from boolham.oracle import dense_controlled, maxdiff, simulate_circuit
from boolham.verify import random_qubo
from boolham.zpoly import DiagonalHamiltonian
from conftest import random_zham, zham_diagonal


class TestGateValidation:
    def test_duplicate_qubits_rejected(self):
        with pytest.raises(ValueError):
            cx(1, 1)

    def test_angle_required(self):
        with pytest.raises(ValueError):
            Gate("rz", (1,))

    def test_angle_forbidden(self):
        with pytest.raises(ValueError):
            Gate("h", (1,), 0.5)

    def test_circuit_bounds(self):
        with pytest.raises(QubitCountError):
            Circuit(1, (cx(1, 2),))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Gate("rz", (1.5,), 0.3),
            lambda: Gate("rz", (True,), 0.3),
            lambda: Gate("cx", (1, np.int64(2))),
            lambda: Circuit(-1),
            lambda: Circuit(2.5),
            lambda: Circuit(True),
            lambda: Circuit(2, (), float("inf")),
            lambda: Circuit(2, (), float("nan")),
            lambda: Gate("rz", (1,), "0.3"),
            lambda: Gate("rz", (1,), 0.3j),
            lambda: Gate("rz", 1, 0.3),
            lambda: Circuit(2, (), "0"),
            lambda: Gate("rz", (1,), True),
            lambda: Circuit(2, (), True),
            lambda: Gate("rz", (1,), 10**400),
        ],
        ids=["float-qubit", "bool-qubit", "numpy-qubit", "negative-register",
             "float-register", "bool-register", "infinite-phase", "nan-phase",
             "string-angle", "complex-angle", "non-iterable-qubits", "string-phase",
             "bool-angle", "bool-phase", "huge-int-angle"],
    )
    def test_rejects_what_parse_circuit_rejects(self, make):
        with pytest.raises(ValueError):
            make()

    def test_qubit_list_is_stored_as_a_tuple(self):
        g = Gate("cx", [1, 2])
        assert g == cx(1, 2) and hash(g) == hash(cx(1, 2))


class TestEmitEvolution:
    def test_three_qubit_ladder_pattern(self):
        gamma = 0.7
        ham = DiagonalHamiltonian(3, {0b111: 1.0})
        circ = emit_evolution(ham, gamma)
        assert circ.gates == (
            cx(1, 2),
            cx(2, 3),
            rz(3, 2 * gamma),
            cx(2, 3),
            cx(1, 2),
        )
        assert circ.global_phase == 0.0

    def test_zero_operator(self):
        circ = emit_evolution(DiagonalHamiltonian.zero(2), 1.3)
        assert circ.gates == () and circ.global_phase == 0.0

    @pytest.mark.parametrize("gamma", [True, "1", math.nan, math.inf, 1j, pytest.param(10**400, id="10**400")], ids=repr)
    def test_gamma_must_be_a_finite_real_number(self, gamma):
        with pytest.raises(ValueError, match="^gamma must be a finite real number"):
            emit_evolution(DiagonalHamiltonian(1, {1: 0.5}), gamma)

    def test_or_at_pi_is_grover_query(self):
        e = parse_expr("x1 | x2")
        u = simulate_circuit(emit_evolution(compile_expr(e), math.pi))
        signs = np.diag([1.0, -1.0, -1.0, -1.0]).astype(complex)
        assert maxdiff(u, signs) < 1e-12

    def test_gate_counts_exact(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            ham = random_zham(rng, n, size=int(rng.integers(1, 10)))
            circ = emit_evolution(ham, 0.4)
            expected_cnots = sum(2 * (m.bit_count() - 1) for m, _ in ham.items() if m)
            expected_rzs = sum(1 for m, _ in ham.items() if m)
            assert circ.cnot_count == expected_cnots
            assert circ.rz_count == expected_rzs

    def test_gamma_zero_is_identity(self, rng):
        ham = random_zham(rng, 4, 6)
        u = simulate_circuit(emit_evolution(ham, 0.0))
        assert maxdiff(u, np.eye(16)) < 1e-12

    def test_angles_compose(self, rng):
        ham = random_zham(rng, 3, 4)
        u1 = simulate_circuit(emit_evolution(ham, 0.4))
        u2 = simulate_circuit(emit_evolution(ham, 0.9))
        u12 = simulate_circuit(emit_evolution(ham, 1.3))
        assert maxdiff(u2 @ u1, u12) < 1e-12

    def test_matches_exponential(self, rng):
        for gamma in (0.3, 1.0, math.pi):
            ham = random_zham(rng, 4, 8)
            u = simulate_circuit(emit_evolution(ham, gamma))
            target = np.diag(np.exp(-1j * gamma * zham_diagonal(ham)))
            assert maxdiff(u, target) < 1e-12


class TestEmitQuboEvolution:
    def test_single_coupling_block_structure(self):
        q = QuboInstance(2, 0.0, np.zeros(2), np.array([[0.0, 1.0], [1.0, 0.0]]))
        circ = emit_qubo_evolution(q, 1.0)
        profile = evolution_term_profile(compile_qubo(q))
        assert profile == {0: 1, 1: 2, 2: 1}  # phase, two RZ, one ZZ block
        assert circ.rz_count == 3 and circ.cnot_count == 2
        assert circ.global_phase != 0.0

    def test_constant_only(self):
        q = QuboInstance(2, 4.0)
        circ = emit_qubo_evolution(q, 0.5)
        assert circ.gates == ()
        assert circ.global_phase == pytest.approx(-0.5 * 4.0)

    def test_random_instance_matches_exponential(self, rng):
        q = random_qubo(rng, 4)
        t = 0.8
        u = simulate_circuit(emit_qubo_evolution(q, t))
        target = np.diag(np.exp(-1j * t * zham_diagonal(compile_qubo(q))))
        assert maxdiff(u, target) < 1e-9

    def test_rotation_count_bounds(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            q = random_qubo(rng, n)
            profile = evolution_term_profile(compile_qubo(q))
            assert profile.get(1, 0) <= n
            assert profile.get(2, 0) <= n * (n - 1) // 2
            assert max(profile, default=0) <= 2


class TestEmitBitQuery:
    def test_x1_is_cnot(self):
        u = simulate_circuit(emit_bit_query(Var(1), 1))
        cnot = np.array(
            [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
        )  # |x,a>: flips a when x=1 (indices 1 <-> 3)
        assert maxdiff(u, cnot) < 1e-12

    def test_and_is_toffoli(self):
        u = simulate_circuit(emit_bit_query(parse_expr("x1 & x2"), 2))
        toffoli = np.eye(8, dtype=complex)
        toffoli[[3, 7]] = toffoli[[7, 3]]
        assert maxdiff(u, toffoli) < 1e-12

    def test_unsatisfiable_gives_identity(self):
        u = simulate_circuit(emit_bit_query(parse_expr("x1 & !x1"), 1))
        assert maxdiff(u, np.eye(4)) < 1e-12

    def test_involution(self, rng):
        from boolham.verify import random_expr

        for _ in range(5):
            n = int(rng.integers(1, 5))
            u = simulate_circuit(emit_bit_query(random_expr(rng, n, 3), n))
            assert maxdiff(u @ u, np.eye(u.shape[0])) < 1e-9

    def test_uses_controlled_rotations(self):
        circ = emit_bit_query(parse_expr("x1 & x2"), 2)
        assert circ.gate_counts().get("crz", 0) > 0


class TestEmitControlledEvolution:
    def test_single_control_single_z(self):
        t = 0.9
        circ = emit_controlled_evolution(Var(1), DiagonalHamiltonian(1, {1: 1.0}), t)
        u = simulate_circuit(circ)
        target = dense_controlled(
            Var(1), np.diag(np.exp(-1j * t * np.array([1.0, -1.0])))
        )
        assert maxdiff(u, target) < 1e-12

    def test_constant_true_control_is_plain_evolution(self, rng):
        ham = random_zham(rng, 3, 4)
        assert emit_controlled_evolution(Const(1), ham, 0.7) == emit_evolution(ham, 0.7)

    def test_constant_false_control_is_identity(self, rng):
        ham = random_zham(rng, 3, 4)
        circ = emit_controlled_evolution(Const(0), ham, 0.7)
        assert circ.gates == () and circ.global_phase == 0.0

    def test_matches_block_operator(self, rng):
        from boolham.verify import random_expr

        for _ in range(5):
            k = int(rng.integers(1, 4))
            f = random_expr(rng, k, 2)
            ham = random_zham(rng, 2, 3)
            t = float(rng.uniform(0.2, 2.0))
            u = simulate_circuit(emit_controlled_evolution(f, ham, t, n_ctrl=k))
            target = dense_controlled(
                f, np.diag(np.exp(-1j * t * zham_diagonal(ham))), n_ctrl=k
            )
            assert maxdiff(u, target) < 1e-9


class TestPhaseQuery:
    def test_diag_signs(self, rng):
        from boolham.boolexpr import truth_table
        from boolham.verify import random_expr

        e = random_expr(rng, 3, 3)
        u = simulate_circuit(emit_evolution(compile_expr(e, 3), math.pi))
        signs = np.diag(1.0 - 2.0 * truth_table(e, 3)).astype(complex)
        assert maxdiff(u, signs) < 1e-12


class TestSerialization:
    def test_fig1_line_count(self):
        circ = emit_evolution(DiagonalHamiltonian(3, {0b111: 1.0}), 0.5)
        lines = serialize(circ).strip().splitlines()
        assert len(lines) == 2 + 5  # header (qubits, phase) + five gates
        assert lines[0] == "qubits 3"
        assert lines[1] == "phase 0"
        assert lines[2] == "cx 1 2"

    def test_empty_circuit(self):
        assert serialize(Circuit(2)) == "qubits 2\nphase 0\n"

    def test_angle_precision(self):
        # pi/2 needs all 17 digits to survive the round trip
        circ = Circuit(3, (rz(3, math.pi / 2),))
        assert "rz 3 1.5707963267948966" in serialize(circ)
        assert "rz 1 0.25" in serialize(Circuit(1, (rz(1, 0.25),)))

    def test_round_trip(self, rng):
        ham = random_zham(rng, 4, 6)
        for circ in (
            emit_evolution(ham, 0.3),
            emit_evolution(ham, math.pi),
            emit_bit_query(parse_expr("x1 & x2 | x3"), 3),
        ):
            assert parse_circuit(serialize(circ)) == circ

    def test_parsing_checks_each_line_without_the_gate_constructor(self, monkeypatch):
        text = serialize(lower_basic(emit_bit_query(parse_expr("x1 & x2 | x3"), 3)))

        def refused(gate):
            raise AssertionError("Gate.__post_init__ called")

        monkeypatch.setattr(Gate, "__post_init__", refused)
        assert serialize(parse_circuit(text)) == text

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_circuit("phase 0\n")
        with pytest.raises(ParseError):
            parse_circuit("qubits 2\nphase 0\nfoo 1\n")
        with pytest.raises(ParseError):
            parse_circuit("qubits 2\nphase 0\ncx 1\n")

    @pytest.mark.parametrize("bad", ["cx 2 3", "rz 2 nan", "cx 1 1", "crz 1 2"])
    def test_bad_line_after_repeated_lines_names_its_first_line(self, bad):
        # lines 3-1002 repeat two valid gates; the bad line is line 1003 and 1005
        text = "qubits 2\nphase 0\n" + "cx 1 2\nrz 2 0.5\n" * 500 + f"{bad}\ncx 1 2\n {bad}\n"
        with pytest.raises(ParseError, match=f"^line 1003: .*: {bad!r}$"):
            parse_circuit(text)


class TestLowering:
    def test_crz_lowering_exact(self, rng):
        for _ in range(5):
            theta = float(rng.uniform(-3, 3))
            circ = Circuit(2, (crz(1, 2, theta),))
            lowered = lower_basic(circ)
            assert all(g.name in ("cx", "rz") for g in lowered.gates)
            assert maxdiff(simulate_circuit(circ), simulate_circuit(lowered)) < 1e-12

    def test_ccrz_lowering_exact(self, rng):
        for _ in range(5):
            theta = float(rng.uniform(-3, 3))
            circ = Circuit(3, (ccrz(1, 2, 3, theta),))
            lowered = lower_basic(circ)
            assert all(g.name in ("cx", "rz") for g in lowered.gates)
            assert maxdiff(simulate_circuit(circ), simulate_circuit(lowered)) < 1e-12

    def test_bit_query_lowering(self):
        circ = emit_bit_query(parse_expr("x1 & x2"), 2)
        lowered = lower_basic(circ)
        assert all(g.name in ("cx", "rz", "h", "x") for g in lowered.gates)
        assert maxdiff(simulate_circuit(circ), simulate_circuit(lowered)) < 1e-12

    def test_other_gates_untouched(self):
        circ = Circuit(2, (h_gate(1), cx(1, 2)))
        assert lower_basic(circ) == circ
