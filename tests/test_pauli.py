"""Unit tests for the general Pauli string/operator algebra."""

import numpy as np
import pytest

from boolham.errors import QubitCountError
from boolham.pauli import (
    PauliOperator,
    PauliString,
    anticommutator,
    jordan_wigner,
    spin_lowering,
    spin_raising,
)
from boolham.zpoly import DiagonalHamiltonian, bit_projector
from conftest import kron_chain

I2 = np.eye(2, dtype=complex)
X2 = np.array([[0, 1], [1, 0]], dtype=complex)
Y2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z2 = np.array([[1, 0], [0, -1]], dtype=complex)
MATS = {"I": I2, "X": X2, "Y": Y2, "Z": Z2}


def string_matrix(s: PauliString) -> np.ndarray:
    m = kron_chain(MATS[s.letter(j)] for j in range(s.n_qubits, 0, -1))
    return s.phase * m


def operator_matrix(p: PauliOperator) -> np.ndarray:
    dim = 1 << p.n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for s, c in p.items():
        out += c * string_matrix(s)
    return out


class TestPauliString:
    def test_letters_from_masks(self):
        s = PauliString(3, x_mask=0b011, z_mask=0b110)
        assert [s.letter(j) for j in (1, 2, 3)] == ["X", "Y", "Z"]
        assert s.label() == "X1 Y2 Z3"

    @pytest.mark.parametrize("a", "IXYZ")
    @pytest.mark.parametrize("b", "IXYZ")
    def test_single_qubit_product_table(self, a, b):
        sa = PauliString.from_label(1, f"{a}1" if a != "I" else "I")
        sb = PauliString.from_label(1, f"{b}1" if b != "I" else "I")
        prod = sa * sb
        assert np.allclose(string_matrix(prod), string_matrix(sa) @ string_matrix(sb))

    def test_x_times_z_is_minus_i_y(self):
        prod = PauliString.single(1, "X", 1) * PauliString.single(1, "Z", 1)
        assert prod.x_mask == 1 and prod.z_mask == 1 and prod.phase_pow == 3

    def test_product_matches_dense_up_to_six_qubits(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 7))
            sa = PauliString(n, int(rng.integers(1 << n)), int(rng.integers(1 << n)))
            sb = PauliString(n, int(rng.integers(1 << n)), int(rng.integers(1 << n)))
            assert np.allclose(
                string_matrix(sa * sb), string_matrix(sa) @ string_matrix(sb)
            )

    def test_associativity(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 5))
            a, b, c = (
                PauliString(n, int(rng.integers(1 << n)), int(rng.integers(1 << n)))
                for _ in range(3)
            )
            assert (a * b) * c == a * (b * c)

    def test_anticommutation(self):
        x = PauliString.single(1, "X", 1)
        z = PauliString.single(1, "Z", 1)
        xz, zx = x * z, z * x
        assert xz.x_mask == zx.x_mask and xz.z_mask == zx.z_mask
        assert (xz.phase_pow - zx.phase_pow) % 4 == 2  # XZ = -ZX

    def test_label_round_trip(self):
        s = PauliString.from_label(4, "X1 Z3 Y4")
        assert PauliString.from_label(4, s.label()) == s


class TestPauliOperator:
    def test_phase_folded_into_coefficient(self):
        minus_i_y = PauliString(1, 1, 1, phase_pow=3)
        op = PauliOperator(1, [(minus_i_y, 2.0)])
        ((s, c),) = list(op.items())
        assert s.phase_pow == 0 and c == pytest.approx(-2j)

    def test_mul_matches_dense(self, rng):
        for _ in range(15):
            n = int(rng.integers(1, 5))
            ops = []
            for _ in range(2):
                terms = [
                    (
                        PauliString(n, int(rng.integers(1 << n)), int(rng.integers(1 << n))),
                        complex(rng.normal(), rng.normal()),
                    )
                    for _ in range(3)
                ]
                ops.append(PauliOperator(n, terms))
            a, b = ops
            assert np.allclose(
                operator_matrix(a * b), operator_matrix(a) @ operator_matrix(b)
            )

    def test_adjoint_of_spin_op(self):
        # adjoint(X/2 + iY/2) = X/2 - iY/2
        op = PauliOperator(
            1,
            [
                (PauliString.single(1, "X", 1), 0.5),
                (PauliString.single(1, "Y", 1), 0.5j),
            ],
        )
        assert op.adjoint() == spin_raising(1, 1)
        assert np.allclose(operator_matrix(op.adjoint()), operator_matrix(op).conj().T)

    def test_qubit_mismatch(self):
        with pytest.raises(QubitCountError):
            PauliOperator.identity(1) + PauliOperator.identity(2)
        with pytest.raises(QubitCountError):
            PauliOperator.identity(1) * PauliOperator.identity(2)

    def test_from_diagonal(self):
        h = DiagonalHamiltonian(2, {0: 0.75, 1: -0.25, 3: -0.25})
        op = PauliOperator.from_diagonal(h)
        diag = np.array([h.eval(x) for x in range(4)])
        assert np.allclose(operator_matrix(op), np.diag(diag))

    def test_coeff_lookup_honours_phase(self):
        op = PauliOperator.single(1, "Y", 1, 1.0)
        y_with_phase = PauliString(1, 1, 1, phase_pow=1)  # i Y
        assert op.coeff(y_with_phase) == pytest.approx(-1j)

    def test_json_round_trip(self):
        op = spin_lowering(2, 2) + PauliOperator.identity(2) * 0.25
        assert PauliOperator.from_json_dict(op.to_json_dict()) == op

    def test_text_form(self):
        assert spin_lowering(1, 1).to_text() == "0.5 X1 + 0.5i Y1"
        assert spin_raising(1, 1).to_text() == "0.5 X1 - 0.5i Y1"

    def test_does_not_mix_with_diagonal_operators(self):
        # the two operator types share their arithmetic but not their terms:
        # a diagonal operator enters a Pauli sum through from_diagonal
        h = bit_projector(2, 1)
        p = PauliOperator.from_diagonal(h)
        for a, b in ((h, p), (p, h)):
            with pytest.raises(TypeError):
                a + b
            with pytest.raises(TypeError):
                a - b
            assert not a == b and a != b


class TestSpinOperators:
    def test_lowering_action_on_basis(self):
        b = operator_matrix(spin_lowering(1, 1))
        ket0, ket1 = np.array([1, 0], complex), np.array([0, 1], complex)
        assert np.allclose(b @ ket1, ket0)  # maps |1> to |0>
        assert np.allclose(b @ ket0, 0)  # annihilates |0>

    def test_number_operator(self):
        b = spin_lowering(1, 1)
        number = b.adjoint() * b
        assert number == PauliOperator.from_diagonal(bit_projector(1, 1))

    def test_anticommutator_is_identity(self):
        b = spin_lowering(1, 1)
        assert anticommutator(b, b.adjoint()) == PauliOperator.identity(1)
        got = operator_matrix(anticommutator(b, b.adjoint()))
        assert np.allclose(got, np.eye(2))

    def test_index_range(self):
        with pytest.raises(QubitCountError):
            spin_lowering(2, 3)
        with pytest.raises(QubitCountError):
            spin_lowering(2, 0)


class TestJordanWigner:
    def test_first_mode_has_no_parity_prefix(self):
        assert jordan_wigner(3, 1) == spin_lowering(3, 1)

    def test_cross_mode_anticommutator_vanishes(self):
        a1 = operator_matrix(jordan_wigner(2, 1))
        a2dag = operator_matrix(jordan_wigner(2, 2, "raising"))
        assert np.max(np.abs(a1 @ a2dag + a2dag @ a1)) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_car_relations(self, n):
        lowering = [operator_matrix(jordan_wigner(n, j)) for j in range(1, n + 1)]
        raising = [m.conj().T for m in lowering]
        eye = np.eye(1 << n)
        for j in range(n):
            for k in range(n):
                assert np.max(np.abs(lowering[j] @ lowering[k] + lowering[k] @ lowering[j])) < 1e-12
                assert np.max(np.abs(raising[j] @ raising[k] + raising[k] @ raising[j])) < 1e-12
                mixed = lowering[j] @ raising[k] + raising[k] @ lowering[j]
                target = eye if j == k else 0 * eye
                assert np.max(np.abs(mixed - target)) < 1e-12

    def test_raising_is_adjoint(self):
        assert jordan_wigner(4, 3, "raising") == jordan_wigner(4, 3, "lowering").adjoint()

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            jordan_wigner(2, 1, "sideways")

    def test_index_out_of_range(self):
        with pytest.raises(QubitCountError):
            jordan_wigner(2, 3)


class TestTraceExtraction:
    def test_coefficients_recovered_by_trace(self, rng):
        # a_alpha = tr(alpha H) / 2^n for every stored term
        for _ in range(10):
            n = int(rng.integers(1, 5))
            terms = [
                (
                    PauliString(n, int(rng.integers(1 << n)), int(rng.integers(1 << n))),
                    complex(rng.normal(), rng.normal()),
                )
                for _ in range(4)
            ]
            op = PauliOperator(n, terms)
            dense = operator_matrix(op)
            for s, c in op.items():
                recovered = np.trace(string_matrix(s) @ dense) / (1 << n)
                assert recovered == pytest.approx(c, abs=1e-9)
