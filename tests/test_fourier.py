"""Unit tests for the Walsh-Hadamard transforms and derived checkers."""

import numpy as np
import pytest

from boolham.boolexpr import parse_expr, truth_table
from boolham.compiler import compile_expr
from boolham.errors import CapExceeded, ParseError, VerificationError
from boolham.fourier import (
    approx_report,
    check_approx,
    count_models,
    fourier_from_table,
    fwht_inplace,
    parse_table,
    table_from_fourier,
)
from boolham.oracle import spectrum
from boolham.verify import random_expr
from boolham.zpoly import DiagonalHamiltonian
from conftest import allclose, brute_fourier


class TestFWHT:
    def test_matches_brute_force(self, rng):
        for n in range(0, 8):
            values = rng.normal(size=1 << n)
            arr = values.copy()
            fwht_inplace(arr)
            expected = brute_fourier(values)
            for mask in range(1 << n):
                assert arr[mask] / (1 << n) == pytest.approx(
                    expected.get(mask, 0.0), abs=1e-12
                )

    @pytest.mark.parametrize("n", [0, 1, 4, 10, 20])
    def test_double_application_scales_by_dimension(self, n, rng):
        values = rng.normal(size=1 << n)
        arr = values.copy()
        fwht_inplace(arr)
        fwht_inplace(arr)
        assert np.max(np.abs(arr - (1 << n) * values)) < 1e-12 * (1 << n)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            fwht_inplace(np.zeros(3))


class TestFourierFromTable:
    def test_single_bit(self):
        h = fourier_from_table(np.array([0.0, 1.0]))
        assert h == DiagonalHamiltonian(1, {0: 0.5, 1: -0.5})

    def test_all_zeros(self):
        assert fourier_from_table(np.zeros(4)).size == 0

    def test_one_in_three(self):
        e = parse_expr("(x1 & !x2 & !x3) | (!x1 & x2 & !x3) | (!x1 & !x2 & x3)")
        h = fourier_from_table(truth_table(e, 3))
        eighth = 1.0 / 8.0
        expected = DiagonalHamiltonian(
            3,
            {
                0: 3 * eighth,
                1: eighth,
                2: eighth,
                4: eighth,
                3: -eighth,
                5: -eighth,
                6: -eighth,
                7: -3 * eighth,
            },
        )
        assert allclose(h, expected, tol=1e-12)

    def test_random_tables_match_oracle(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 7))
            values = rng.normal(size=1 << n)
            h = fourier_from_table(values)
            expected = brute_fourier(values)
            for mask in range(1 << n):
                assert h.coeff(mask) == pytest.approx(expected.get(mask, 0.0), abs=1e-10)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            fourier_from_table(np.zeros(1 << 25, dtype=np.float64))

    @pytest.mark.parametrize(
        "table",
        [np.zeros(3), np.float64(1.0), np.array(0.5), np.zeros((2, 2)), np.zeros(0)],
        ids=["length-3", "numpy-scalar", "0-d", "2-d", "empty"],
    )
    def test_rejects_what_is_not_a_vector_of_2_to_the_n(self, table):
        with pytest.raises(ValueError, match="not one axis of power-of-two length"):
            fourier_from_table(table)


class TestParseTable:
    @pytest.mark.parametrize("text", ["0111", " 0111\n", "[0, 1, 1, 1]", "[0.0, 1, 1.0, 1]"])
    def test_bits_and_json_give_one_float_array(self, text):
        table = parse_table(text)
        assert table.dtype == np.float64 and table.tolist() == [0.0, 1.0, 1.0, 1.0]

    @pytest.mark.parametrize("text", ["011", "0112", "[1, 2, 3]", "[]", '{"a": 1}', "[NaN, 1]"])
    def test_malformed_tables_are_parse_errors(self, text):
        with pytest.raises(ParseError):
            parse_table(text)


class TestTableFromFourier:
    def test_round_trip(self, rng):
        values = rng.normal(size=16)
        table = table_from_fourier(fourier_from_table(values))
        assert np.max(np.abs(table - values)) < 1e-12

    def test_identity_gives_all_ones(self):
        table = table_from_fourier(DiagonalHamiltonian.identity(3))
        assert table.tolist() == [1.0] * 8

    def test_or_values(self):
        or2 = DiagonalHamiltonian(2, {0: 0.75, 1: -0.25, 2: -0.25, 3: -0.25})
        assert table_from_fourier(or2).tolist() == [0.0, 1.0, 1.0, 1.0]

    @pytest.mark.parametrize("read", [table_from_fourier, count_models, spectrum])
    def test_values_past_the_float_range_are_a_parse_error(self, read):
        # finite coefficients whose sum at x = 0 overflows; NaN from inf - inf too
        for terms in ({0: 1e308, 1: 1e308}, {0: 1e308, 1: 1e308, 2: 1e308, 3: 1e308}):
            with pytest.raises(ParseError, match="overflow the float range"):
                read(DiagonalHamiltonian(len(terms) // 2, terms))


class TestParseval:
    def test_generalized_parseval_random_tables(self, rng):
        # sum_S coeff^2 = 2^-n sum_x f(x)^2 for arbitrary real tables
        for _ in range(20):
            n = int(rng.integers(1, 8))
            values = rng.normal(size=1 << n)
            h = fourier_from_table(values)
            lhs = sum(c * c for _, c in h.items())
            rhs = float(np.mean(values**2))
            assert lhs == pytest.approx(rhs, abs=1e-9)


class TestCountModels:
    def test_or_has_three(self):
        or2 = DiagonalHamiltonian(2, {0: 0.75, 1: -0.25, 2: -0.25, 3: -0.25})
        assert count_models(or2) == 3

    def test_zero_operator_unsat(self):
        assert count_models(DiagonalHamiltonian.zero(3)) == 0

    def test_mod3_has_two(self):
        mod3 = DiagonalHamiltonian(3, {0: 0.25, 3: 0.25, 5: 0.25, 6: 0.25})
        assert count_models(mod3) == 2

    def test_rejects_non_boolean(self):
        h = DiagonalHamiltonian(2, {0: 0.4, 1: 0.3})
        with pytest.raises(VerificationError):
            count_models(h)

    def test_above_the_table_cap(self):
        # no value table at n = 30: the projector check runs on coefficients
        h = compile_expr(parse_expr("x1 & x2"), 30)
        assert count_models(h) == 1 << 28
        with pytest.raises(VerificationError):
            count_models(h + DiagonalHamiltonian(30, {0: 0.25}))


class TestMaxNormChecker:
    AND_APPROX = DiagonalHamiltonian(
        2, {0: 1.0 / 3.0, 1: -1.0 / 6.0, 2: -1.0 / 6.0}
    )

    def test_and_approximation_meets_bound(self):
        err, ok = check_approx(self.AND_APPROX, parse_expr("x1 & x2"))
        assert ok
        assert err == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_exact_compilation_has_zero_error(self):
        e = parse_expr("x1 ^ x2")
        err, ok = check_approx(compile_expr(e), e)
        assert ok and err == 0.0

    def test_printed_or_approximation_fails(self):
        # the degree-one candidate that works for AND misses OR by 2/3
        err, ok = check_approx(self.AND_APPROX, parse_expr("x1 | x2"))
        assert not ok
        assert err == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_report_golden_text(self):
        assert (
            approx_report(self.AND_APPROX, parse_expr("x1 & x2"))
            == "max_error 0.333333333333 bound 1/3 OK"
        )
        assert (
            approx_report(self.AND_APPROX, parse_expr("x1 | x2"))
            == "max_error 0.666666666667 bound 1/3 FAIL"
        )


class TestCentralCrossCheck:
    def test_transform_equals_compiler_on_random_expressions(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 8))
            e = random_expr(rng, n, 4)
            via_table = fourier_from_table(truth_table(e, n))
            via_rules = compile_expr(e, n)
            assert allclose(via_rules, via_table, tol=1e-9)
