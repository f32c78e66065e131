"""Unit tests for the dense brute-force oracle."""

import math

import numpy as np
import pytest

from boolham import circuits
from boolham.boolexpr import Const, Var, max_var, parse_expr, truth_table
from boolham.circuits import Circuit, ccrz, crz, cx, emit_bit_query, emit_evolution, h, rz, x
from boolham.compiler import compile_expr, compile_pseudo, ground_state_logic
from boolham.boolexpr import parse_dimacs
from boolham.errors import CapExceeded
from boolham.fourier import table_from_fourier
from boolham.oracle import (
    H2,
    X2,
    Y2,
    Z2,
    dense_controlled,
    dense_of_pauli,
    expm_zham,
    maxdiff,
    phase_aligned_maxdiff,
    Spectrum,
    _query_blocks,
    simulate_circuit,
    spectrum,
)
from boolham.pauli import PauliOperator
from boolham.verify import (
    _kickback_checks,
    _reference_blocks,
    expression_checks,
    random_expr,
    verify_kickback_suite,
)
from boolham.zpoly import DiagonalHamiltonian, basis_label, bit_projector
from conftest import (
    dense_of_zham,
    expm_hermitian,
    from_diagonal,
    kron_chain,
    random_zham,
    reference_bit_query_matrix,
    zham_diagonal,
)


class TestDenseRealizations:
    def test_bit_projector_diag(self):
        assert np.allclose(dense_of_zham(bit_projector(1, 1)), np.diag([0.0, 1.0]))

    def test_parity_diag(self):
        zz = DiagonalHamiltonian(2, {0b11: 1.0})
        assert np.allclose(dense_of_zham(zz), np.diag([1.0, -1.0, -1.0, 1.0]))

    def test_diag_matches_eval(self, rng):
        # the package's transform and the tests' parity sum alike
        ham = random_zham(rng, 5, 8)
        for diag in (table_from_fourier(ham), zham_diagonal(ham)):
            for x_val in range(32):
                assert diag[x_val] == pytest.approx(ham.eval(x_val), abs=1e-12)

    def test_pauli_y(self):
        assert np.allclose(
            dense_of_pauli(PauliOperator.single(1, "Y", 1)), np.array([[0, -1j], [1j, 0]])
        )

    def test_multi_qubit_pauli_matches_kron(self):
        op = PauliOperator.single(3, "X", 1) * PauliOperator.single(3, "Z", 3)
        assert np.allclose(dense_of_pauli(op), kron_chain([Z2, np.eye(2), X2]))

    def test_diagonal_pauli_consistency(self, rng):
        ham = random_zham(rng, 3, 5)
        assert np.allclose(
            dense_of_pauli(from_diagonal(ham)), dense_of_zham(ham)
        )

    def test_trace_is_identity_coeff(self, rng):
        ham = random_zham(rng, 6, 10)
        trace = np.trace(dense_of_zham(ham)).real
        assert trace / 64 == pytest.approx(ham.identity_coeff, abs=1e-9)

    def test_pauli_coefficient_extraction(self, rng):
        from boolham.pauli import PauliString

        for _ in range(5):
            n = int(rng.integers(1, 5))
            terms = [
                (
                    PauliString(n, int(rng.integers(1 << n)), int(rng.integers(1 << n))),
                    complex(rng.normal(), rng.normal()),
                )
                for _ in range(4)
            ]
            op = PauliOperator(n, terms)
            dense = dense_of_pauli(op)
            for s, c in op.items():
                alpha = dense_of_pauli(PauliOperator(n, {s: 1.0}))
                assert np.trace(alpha @ dense) / (1 << n) == pytest.approx(c, abs=1e-9)

    def test_cap_enforced(self):
        with pytest.raises(CapExceeded):
            expm_zham(DiagonalHamiltonian.identity(13), 1.0)
        with pytest.raises(CapExceeded):
            expm_zham(DiagonalHamiltonian.identity(13), 1.0, cap=20)
        with pytest.raises(CapExceeded):
            expm_zham(DiagonalHamiltonian.identity(3), 1.0, cap=2)
        assert expm_zham(DiagonalHamiltonian.identity(2), 1.0, cap=2).shape == (4, 4)


class TestSimulateCircuit:
    def test_empty_is_identity(self):
        assert np.allclose(simulate_circuit(Circuit(2)), np.eye(4))

    def test_each_gate_matches_kron_oracle(self):
        theta = 0.77
        rz_mat = np.array([[np.exp(-1j * theta / 2), 0], [0, np.exp(1j * theta / 2)]])
        cases = [
            (Circuit(2, (h(1),)), kron_chain([np.eye(2), H2])),
            (Circuit(2, (h(2),)), kron_chain([H2, np.eye(2)])),
            (Circuit(2, (x(2),)), kron_chain([X2, np.eye(2)])),
            (Circuit(2, (rz(1, theta),)), kron_chain([np.eye(2), rz_mat])),
            (
                Circuit(2, (cx(1, 2),)),
                np.array(
                    [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]],
                    dtype=complex,
                ),
            ),
        ]
        for circ, expected in cases:
            assert maxdiff(simulate_circuit(circ), expected) < 1e-12

    def test_crz_matches_block_matrix(self):
        theta = 1.3
        got = simulate_circuit(Circuit(2, (crz(1, 2, theta),)))
        # control qubit 1 (LSB): odd indices get the rotation on qubit 2
        expected = np.diag(
            [
                1.0,
                np.exp(-1j * theta / 2),
                1.0,
                np.exp(1j * theta / 2),
            ]
        )
        assert maxdiff(got, expected) < 1e-12

    def test_ccrz_fires_only_when_both_controls_set(self):
        theta = 0.9
        got = simulate_circuit(Circuit(3, (ccrz(1, 2, 3, theta),)))
        expected = np.eye(8, dtype=complex)
        expected[3, 3] = np.exp(-1j * theta / 2)  # c1=c2=1, target 0
        expected[7, 7] = np.exp(1j * theta / 2)  # c1=c2=1, target 1
        assert maxdiff(got, expected) < 1e-12

    def test_gate_order_is_application_order(self):
        circ = Circuit(1, (h(1), rz(1, math.pi)))
        rz_pi = np.diag([np.exp(-1j * math.pi / 2), np.exp(1j * math.pi / 2)])
        assert maxdiff(rz_pi @ H2, simulate_circuit(circ)) < 1e-12

    def test_global_phase_applied(self):
        circ = Circuit(1, (), global_phase=0.5)
        assert maxdiff(simulate_circuit(circ), np.exp(0.5j) * np.eye(2)) < 1e-12

    def test_fig1_pattern_exponential(self):
        gamma = 0.45
        ham = DiagonalHamiltonian(3, {0b111: 1.0})
        u = simulate_circuit(emit_evolution(ham, gamma))
        assert maxdiff(u, expm_zham(ham, gamma)) < 1e-12

    def test_bit_query_toffoli(self):
        u = simulate_circuit(emit_bit_query(parse_expr("x1 & x2"), 2))
        assert maxdiff(u, reference_bit_query_matrix(truth_table(parse_expr("x1 & x2"), 2))) < 1e-12


class TestDenseControlled:
    def test_cnot_from_predicate(self):
        got = dense_controlled(Var(1), X2)
        expected = np.array(
            [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
        )
        assert maxdiff(got, expected) < 1e-12

    def test_false_predicate_is_identity(self):
        got = dense_controlled(Const(0), X2, n_ctrl=2)
        assert maxdiff(got, np.eye(8)) < 1e-12

    def test_or_controlled_exponential_matches_tensor_hamiltonian(self):
        # Lambda_f(e^{-iX}) = exp(-i H_f (x) X) for f = OR2
        f = parse_expr("x1 | x2")
        u_data = expm_hermitian(X2, 1.0)
        got = dense_controlled(f, u_data)
        hf = dense_of_zham(compile_expr(f, 2)).real
        tensor_ham = np.kron(X2, hf)  # data qubit is the high bit
        assert maxdiff(got, expm_hermitian(tensor_ham, 1.0)) < 1e-9

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            dense_controlled(Var(1), np.zeros((3, 3)))

    def test_cap(self):
        with pytest.raises(CapExceeded):
            dense_controlled(Var(1), np.eye(1 << 12), n_ctrl=1)


class TestBitQueryExponentialForm:
    @pytest.mark.parametrize("text", ["x1", "x1 & x2", "x1 | x2 | x3", "x1 ^ x2"])
    def test_bit_query_equals_exponential_form(self, text):
        f = parse_expr(text)
        n = max(1, max((v for v in [1, 2, 3] if f"x{v}" in text), default=1))
        n = compile_expr(f).n_qubits
        g_block = dense_controlled(f, X2, n_ctrl=n)
        ham_tensor = np.kron(X2 - np.eye(2), dense_of_zham(compile_expr(f, n)).real)
        g_exp = expm_hermitian(ham_tensor, math.pi / 2)
        assert maxdiff(g_block, g_exp) < 1e-9
        # identity coefficient: tr(G_f)/2^(n+1) = 1 - mean(f)
        mean = compile_expr(f, n).identity_coeff
        assert np.trace(g_block).real / (1 << (n + 1)) == pytest.approx(
            1.0 - mean, abs=1e-9
        )

    def test_grover_query_from_exponential(self, rng):
        for _ in range(5):
            n = int(rng.integers(1, 6))
            e = random_expr(rng, n, 3)
            ham = compile_expr(e, n)
            u = expm_zham(ham, math.pi)
            signs = np.diag(1.0 - 2.0 * truth_table(e, n)).astype(complex)
            assert maxdiff(u, signs) < 1e-9


class TestKickbackSuite:
    def test_single_variable(self):
        report = verify_kickback_suite(Var(1), 1)
        assert report.passed

    def test_one_in_three(self):
        f = parse_expr("(x1 & !x2 & !x3) | (!x1 & x2 & !x3) | (!x1 & !x2 & x3)")
        report = verify_kickback_suite(f, 3)
        assert report.passed

    def test_unsatisfiable_degenerates_to_identity(self):
        report = verify_kickback_suite(parse_expr("x1 & !x1"), 1)
        assert report.passed
        g = simulate_circuit(emit_bit_query(parse_expr("x1 & !x1"), 1))
        assert phase_aligned_maxdiff(np.eye(4), g) < 1e-12

    def test_random_formulas(self, rng):
        for _ in range(5):
            n = int(rng.integers(1, 5))
            assert verify_kickback_suite(random_expr(rng, n, 3), n).passed

    def test_report_lines(self):
        report = verify_kickback_suite(Var(1), 1)
        assert len(report.lines()) == 5  # four checks and the summary
        assert all("ok" in line for line in report.lines()[:4])
        assert report.lines()[-1] == "4 checks, 0 failures: PASS"

    @pytest.mark.parametrize("text", ["x1 & x2", "x1 ^ x2 ^ x3", "x1 => x2"])
    def test_a_broken_bit_query_fails_the_checks_built_on_it(self, text, monkeypatch):
        # without its closing H the emitted G_f is wrong; the two checks built
        # from H_f and the truth table do not see the circuit and still pass
        emit = circuits._bit_query

        def without_closing_h(hf):
            c = emit(hf)
            assert c.gates[-1].name == "h"
            return Circuit(c.n_qubits, c.gates[:-1], c.global_phase)

        monkeypatch.setattr(circuits, "_bit_query", without_closing_h)
        report = verify_kickback_suite(parse_expr(text))
        passed = {c.name: c.passed for c in report.checks}
        assert passed == {
            "phase_from_bit": False,
            "bit_from_controlled_phase": True,
            "controlled_phase_from_bit": False,
            "controlled_phase_composite": True,
        }
        assert not report.passed
        # expression_checks reads G_f's blocks once for the bit-query checks
        # and the kickback suite: the shared blocks fail both
        checks = {c.name: c.passed for c in expression_checks("f", parse_expr(text))}
        assert checks["f: bit query action"] is False
        assert checks["f: kickback suite"] is False

    @pytest.mark.parametrize(
        "corruption, expected",
        [
            ("H_f diagonal", (True, False, False, False)),
            ("halved H_f diagonal", (True, False, False, False)),
            ("table bit", (False, True, True, True)),
            ("reference columns", (True, False, True, True)),
            ("ancilla H", (False, True, False, True)),
        ],
    )
    @pytest.mark.parametrize("text", ["x1 & x2", "x1 ^ x2 ^ x3", "x1 => x2"])
    def test_each_check_reads_only_its_own_inputs(self, text, corruption, expected):
        # one input corrupted at a time: a check fails exactly when it reads it
        # (phase_from_bit, bit_from_controlled_phase, controlled_phase_from_bit,
        # controlled_phase_composite)
        f = parse_expr(text)
        n = max_var(f)
        diag = table_from_fourier(compile_expr(f, n))
        table = truth_table(f, n)
        circuit = emit_bit_query(f, n)
        g_reference = _reference_blocks(truth_table(f, n))
        if corruption == "H_f diagonal":
            diag[1] += 0.1
        elif corruption == "halved H_f diagonal":  # still 0 where f is 0
            diag *= 0.5
        elif corruption == "table bit":
            table[1] = 1.0 - table[1]
        elif corruption == "reference columns":  # swapped inside each reference block
            g_reference = g_reference[:, :, ::-1]
        else:  # an extra H on the emitted circuit's ancilla
            circuit = Circuit(n + 1, (*circuit.gates, h(n + 1)), circuit.global_phase)
        report = _kickback_checks(diag, table, _query_blocks(circuit), g_reference)
        assert tuple(c.passed for c in report.checks) == expected


class TestSpectrum:
    def test_majority(self):
        maj = compile_expr(parse_expr("(x1 & x2) | (x1 & x3) | (x2 & x3)"))
        spec = spectrum(maj)
        assert spec.min_value == 0.0 and spec.max_value == 1.0
        assert sorted(spec.ground_states()) == ["000", "001", "010", "100"]

    def test_negated_maxsat_ground_energy(self):
        objective, _ = parse_dimacs("p cnf 2 3\n1 2 0\n-1 2 0\n1 -2 0\n")
        h_obj = compile_pseudo(objective)
        best = max(objective.value(x_val) for x_val in range(4))
        spec = spectrum(-h_obj)
        assert spec.min_value == pytest.approx(-best)

    def test_ground_state_logic_spectrum(self, rng):
        e = random_expr(rng, 3, 3)
        spec = spectrum(ground_state_logic(e, 3))
        assert len(spec.ground_states()) == 8
        assert spec.min_value == pytest.approx(0.0, abs=1e-12)


    @pytest.mark.parametrize("source", ["majority", "random"])
    def test_extremes_are_read_once(self, source, rng):
        class CountingTable(np.ndarray):
            scans = 0

            def max(self, *args, **kwargs):
                CountingTable.scans += 1
                return super().max(*args, **kwargs)

            def min(self, *args, **kwargs):
                CountingTable.scans += 1
                return super().min(*args, **kwargs)

        if source == "majority":  # ties at both ends
            h = compile_expr(parse_expr("(x1 & x2) | (x1 & x3) | (x2 & x3) | x4"))
        else:
            h = random_zham(rng, 5, 12)
        table = table_from_fourier(h)
        spec = Spectrum(table.copy().view(CountingTable))
        reads = [(spec.max_value, spec.top_states(), spec.min_value, spec.ground_states())
                 for _ in range(3)]
        assert CountingTable.scans == 2  # one max and one min, however often they are read
        # labels by value, ties by index, as a stable sort of the table orders them
        order = np.argsort(table, kind="stable")
        top = [basis_label(int(x), h.n_qubits)
               for x in order if table[x] >= table.max() - 1e-9]
        ground = [basis_label(int(x), h.n_qubits)
                  for x in order if table[x] <= table.min() + 1e-9]
        expected = (float(table.max()), tuple(top), float(table.min()), tuple(ground))
        assert reads == [expected] * 3
        assert spectrum(h).top_states() == expected[1]

class TestPhaseAlignment:
    def test_detects_real_difference(self):
        a = np.eye(2, dtype=complex)
        b = np.diag([1.0, -1.0]).astype(complex)
        assert phase_aligned_maxdiff(a, b) == pytest.approx(2.0)

    def test_ignores_global_phase(self, rng):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert phase_aligned_maxdiff(m, np.exp(0.7j) * m) < 1e-12
