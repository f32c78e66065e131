"""Unit tests for the sparse diagonal Z-polynomial algebra."""

import json

import pytest

from boolham.errors import QubitCountError
from boolham.zpoly import (
    DiagonalHamiltonian,
    basis_index,
    basis_label,
    bit_projector,
    qubits_of,
    term_label,
)
from conftest import allclose, brute_fourier


def ham(n, terms):
    return DiagonalHamiltonian(n, terms)


class TestConstruction:
    def test_pruning_and_sorting(self):
        h = ham(2, [(3, 0.5), (0, 1e-15), (1, -0.25)])
        assert list(h.items()) == [(1, -0.25), (3, 0.5)]
        assert h.size == 2

    def test_duplicate_masks_accumulate(self):
        h = ham(1, [(1, 0.5), (1, -0.5)])
        assert h.size == 0

    def test_mask_out_of_range(self):
        with pytest.raises(QubitCountError):
            ham(1, {2: 1.0})

    def test_qubit_cap(self):
        with pytest.raises(QubitCountError):
            DiagonalHamiltonian(64)
        DiagonalHamiltonian(63)  # boundary allowed

    def test_zero_is_empty_map(self):
        z = DiagonalHamiltonian.zero(3)
        assert z.size == 0 and z.degree == 0 and z.identity_coeff == 0.0

    def test_mask_helpers(self):
        assert qubits_of(0b101) == (1, 3)
        assert term_label(0) == "I"
        assert term_label(0b101) == "Z1Z3"
        assert term_label(0b101, sep=" ") == "Z1 Z3"


class TestBasisConvention:
    def test_x1_is_lsb(self):
        assert basis_index("110", 3) == 3
        assert basis_label(3, 3) == "110"

    def test_rejects_bad_strings(self):
        with pytest.raises(QubitCountError):
            basis_index("01", 3)
        with pytest.raises(QubitCountError):
            basis_index(8, 3)


class TestAdd:
    def test_x_plus_not_x_is_identity(self):
        # (1/2 I - 1/2 Z1) + (1/2 I + 1/2 Z1) = I
        a = ham(1, {0: 0.5, 1: -0.5})
        b = ham(1, {0: 0.5, 1: 0.5})
        assert a + b == DiagonalHamiltonian.identity(1)

    def test_sum_of_two_bits(self):
        # truth-table oracle for f(x) = x1 + x2 over two bits
        expected = brute_fourier([0.0, 1.0, 1.0, 2.0])
        assert expected == {0: 1.0, 1: -0.5, 2: -0.5}
        got = bit_projector(2, 1) + bit_projector(2, 2)
        assert got == ham(2, expected)

    def test_additive_identity(self):
        h = ham(2, {1: 0.5, 3: -0.25})
        assert h + DiagonalHamiltonian.zero(2) == h

    def test_mismatch_raises(self):
        with pytest.raises(QubitCountError):
            ham(1, {0: 1.0}) + ham(2, {0: 1.0})


class TestMul:
    def test_and_row(self):
        got = bit_projector(2, 1) * bit_projector(2, 2)
        assert got == ham(2, {0: 0.25, 1: -0.25, 2: -0.25, 3: 0.25})

    def test_idempotent(self):
        h = bit_projector(3, 1)
        assert h * h == h

    def test_xor_product(self):
        # (1/2 I - 1/2 Z1Z2)(1/2 I - 1/2 Z2Z3) represents (x1^x2)&(x2^x3);
        # expected coefficients from the truth-table oracle
        f = [1.0 if x in (0b010, 0b101) else 0.0 for x in range(8)]
        expected = brute_fourier(f)
        a = ham(3, {0: 0.5, 0b011: -0.5})
        b = ham(3, {0: 0.5, 0b110: -0.5})
        assert allclose(a * b, ham(3, expected), tol=1e-12)

    def test_mul_matches_pointwise_eval(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 7))
            a = ham(n, {int(m): float(rng.normal()) for m in rng.choice(1 << n, size=min(5, 1 << n), replace=False)})
            b = ham(n, {int(m): float(rng.normal()) for m in rng.choice(1 << n, size=min(5, 1 << n), replace=False)})
            prod = a * b
            for x in range(1 << n):
                assert prod.eval(x) == pytest.approx(a.eval(x) * b.eval(x), abs=1e-9)

    def test_mismatch_raises(self):
        with pytest.raises(QubitCountError):
            ham(1, {0: 1.0}) * ham(2, {0: 1.0})


class TestScale:
    def test_zero_scale(self):
        assert (bit_projector(2, 1) * 0.0).size == 0

    def test_double(self):
        assert 2.0 * bit_projector(1, 1) == ham(1, {0: 1.0, 1: -1.0})

    def test_negated_or_at_11(self):
        or2 = ham(2, {0: 0.75, 1: -0.25, 2: -0.25, 3: -0.25})
        assert (-1.0 * or2).eval("11") == pytest.approx(-1.0)


class TestEval:
    AND2 = {0: 0.25, 1: -0.25, 2: -0.25, 3: 0.25}
    MAJ3 = {0: 0.5, 1: -0.25, 2: -0.25, 4: -0.25, 7: 0.25}

    def test_and_satisfying(self):
        assert ham(2, self.AND2).eval("11") == pytest.approx(1.0)

    def test_and_partial(self):
        assert ham(2, self.AND2).eval("01") == pytest.approx(0.0)

    def test_maj_two_ones(self):
        assert ham(3, self.MAJ3).eval("110") == pytest.approx(1.0)

    def test_accepts_sequences(self):
        assert ham(2, self.AND2).eval((1, 1)) == pytest.approx(1.0)

    def test_length_mismatch(self):
        with pytest.raises(QubitCountError):
            ham(2, self.AND2).eval("111")


class TestMetrics:
    def test_parity_degree_and_size(self):
        for k in (2, 4, 7):
            h = ham(k, {0: 0.5, (1 << k) - 1: -0.5})
            assert h.degree == k and h.size == 2

    def test_zero_operator(self):
        z = DiagonalHamiltonian.zero(4)
        assert (z.degree, z.size, z.identity_coeff) == (0, 0, 0.0)

    def test_or_identity_coeff(self):
        assert ham(2, {0: 0.75, 1: -0.25, 2: -0.25, 3: -0.25}).identity_coeff == 0.75


class TestStructure:
    def test_tensor(self):
        a = ham(1, {1: 2.0})
        b = ham(2, {0b10: 3.0})
        assert a.tensor(b) == ham(3, {0b101: 6.0})

    def test_tensor_with_scalar_register(self):
        unit = DiagonalHamiltonian.identity(0)
        h = ham(2, {3: 1.5})
        assert unit.tensor(h) == h

    def test_immutability_of_results(self):
        a = ham(1, {0: 1.0})
        b = ham(1, {1: 1.0})
        _ = a + b
        assert a == ham(1, {0: 1.0}) and b == ham(1, {1: 1.0})


class TestSerialization:
    OR2 = {0: 0.75, 1: -0.25, 2: -0.25, 3: -0.25}

    def test_text_form(self):
        assert ham(2, self.OR2).to_text() == "0.75 I - 0.25 Z1 - 0.25 Z2 - 0.25 Z1Z2"

    def test_text_zero(self):
        assert DiagonalHamiltonian.zero(1).to_text() == "0"

    def test_text_leading_negative(self):
        assert ham(1, {1: -0.5}).to_text() == "-0.5 Z1"

    def test_twelve_significant_digits(self):
        h = ham(1, {0: 1.0 / 3.0})
        assert h.to_text() == "0.333333333333 I"

    def test_json_round_trip(self):
        h = ham(3, {0: 0.375, 0b101: -0.125, 0b111: 0.25})
        doc = h.to_json_dict()
        assert doc["terms"][1]["paulis"] == "Z1 Z3"
        assert DiagonalHamiltonian.from_json(json.dumps(doc)) == h

    def test_json_identity_label(self):
        h = DiagonalHamiltonian.identity(2)
        assert h.to_json_dict()["terms"] == [{"paulis": "I", "coeff": 1.0}]
