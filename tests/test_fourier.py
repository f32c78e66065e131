"""Unit tests for the Walsh-Hadamard transforms and derived checkers."""

import hashlib
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolham import fourier
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
from conftest import allclose, brute_fourier, butterfly_fwht
from test_fold import PROPERTY


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

    @pytest.mark.parametrize("n", range(18))
    def test_equals_the_butterfly(self, n, rng):
        # n = 0..17 covers every pass shape, with blocks split along the
        # low axis once one (2^k, lo) slice outgrows the scratch (n >= 16)
        integers = rng.integers(-8, 9, size=1 << n).astype(np.float64)
        floats = rng.normal(size=1 << n)
        for values, tol in ((integers, 0.0), (floats, 1e-12 * (1 << n))):
            arr = values.copy()
            expected = values.copy()
            butterfly_fwht(expected)
            assert fwht_inplace(arr) is None
            assert np.max(np.abs(arr - expected)) <= tol

    @pytest.mark.parametrize(
        "values",
        [
            np.arange(-500, 524, dtype=np.int64),
            np.linspace(-1.0, 1.0, 1 << 9) + 1j * np.linspace(2.0, 0.0, 1 << 9),
        ],
        ids=["int64", "complex128"],
    )
    def test_other_dtypes_in_place(self, values):
        arr = values.copy()
        expected = values.copy()
        butterfly_fwht(expected)
        fwht_inplace(arr)
        assert arr.dtype == values.dtype
        np.testing.assert_allclose(arr, expected, rtol=0, atol=1e-12 * arr.size)  # exact on int64

    @pytest.mark.parametrize("step", [2, -2, 3])
    def test_strided_view_in_place(self, step, rng):
        base = rng.integers(-8, 9, size=3 << 16).astype(np.float64)
        positions = np.arange(base.size)[::step][: 1 << 16]
        expected = base.copy()
        column = expected[positions]
        butterfly_fwht(column)
        expected[positions] = column  # and every entry outside the view as it was
        fwht_inplace(base[::step][: 1 << 16])
        assert np.array_equal(base, expected)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            fwht_inplace(np.zeros(3))

    def test_rejects_a_2d_array_in_one_line(self):
        with pytest.raises(ValueError, match=r"^the transform takes a 1-D array, got shape \(4, 4\)$"):
            fwht_inplace(np.zeros((4, 4)))


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


@st.composite
def sparse_operators(draw):
    """A Z-polynomial on n = 0-18 qubits whose support is one term, a few
    random or low-degree masks, masks in the high bits only, or every mask;
    coefficients are dyadic or arbitrary floats of mixed magnitude."""
    n = draw(st.integers(0, 18))
    size = 1 << n
    kind = draw(st.sampled_from(["one", "random", "local", "high", "dense"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "one":
        masks = [draw(st.integers(0, size - 1))]
    elif kind == "random":
        masks = rng.integers(0, size, draw(st.integers(1, 3000)))
    elif kind == "local":  # clause-sum terms: degree at most 3
        bits = rng.integers(0, max(n, 1), (draw(st.integers(1, 600)), 3))
        masks = np.bitwise_or.reduce(1 << bits, axis=1)
    elif kind == "high":
        masks = rng.integers(0, size, draw(st.integers(1, 200))) & -(1 << (n // 2))
    else:  # every block live in the first pass
        masks = np.arange(min(size, 1 << 14))
    masks = np.unique(np.asarray(masks, dtype=np.int64) % size)
    if draw(st.booleans()):
        coeffs = rng.integers(-64, 65, masks.size) / 8.0
    else:
        coeffs = rng.normal(size=masks.size) * 10.0 ** rng.uniform(-6, 6, masks.size)
    return DiagonalHamiltonian(n, dict(zip(masks.tolist(), coeffs.tolist())))


class TestPrunedInverse:
    """table_from_fourier transforms only the blocks its terms have reached:
    the table is fwht_inplace of the scattered coefficients, to the byte."""

    @settings(PROPERTY, max_examples=120)
    @given(sparse_operators())
    def test_equals_the_full_transform(self, h):
        full = np.zeros(1 << h.n_qubits)
        for mask, coeff in h.items():
            full[mask] = coeff
        fwht_inplace(full)
        assert table_from_fourier(h).tobytes() == full.tobytes()

    @staticmethod
    def pruned_but_last(n):
        # live blocks in every pass but the last, under half of them; at n = 20
        # a block of the fourth pass is larger than the scratch's half
        masks = [0, 0b11, 1 << 5, 1 << 9, *(1 << b for b in range(n - 6, n))]
        return DiagonalHamiltonian(n, {m: 1.0 + i for i, m in enumerate(masks)})

    @staticmethod
    def second_call_peak(h):
        table_from_fourier(h)
        tracemalloc.start()
        try:
            table_from_fourier(h)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    @pytest.mark.parametrize("n", [17, 20])
    def test_extra_memory_is_the_scratch(self, n):
        peak = self.second_call_peak(self.pruned_but_last(n))
        table, scratch = 8 << n, 8 << 15
        assert peak <= table + scratch + 16_384  # and a few small per-term arrays

    @pytest.mark.parametrize("n", [17, 20])
    def test_a_warm_call_reuses_the_scratch(self, n):
        # the first call made this thread's scratch; the second allocates none
        assert self.second_call_peak(self.pruned_but_last(n)) <= (8 << n) + 16_384

    def test_threads_transform_at_once_through_scratches_of_their_own(self):
        # matmul releases the GIL, so these transforms overlap in time: a
        # scratch shared between threads would mix their blocks
        rng = np.random.default_rng(26)
        operators = []
        for _ in range(4):
            ops = []
            for n in (17, 20):  # clause-sum-like supports: degree <= 3, pruned passes
                bits = rng.integers(0, n, (4 * n, 3))
                masks = np.unique(np.bitwise_or.reduce(1 << bits, axis=1))
                coeffs = rng.integers(-64, 65, masks.size) / 8.0
                ops.append(DiagonalHamiltonian(n, dict(zip(masks.tolist(), coeffs.tolist()))))
            operators.append(ops)

        def results(h):  # digests of the table and of fwht_inplace applied to it
            table = table_from_fourier(h)
            assert table.flags.owndata and table.flags.writeable
            assert not np.shares_memory(table, fourier._float_scratch())
            first = hashlib.sha256(table).digest()
            fwht_inplace(table)
            return first, hashlib.sha256(table).digest()

        serial = [[results(h) for h in ops] for ops in operators]
        start = threading.Barrier(len(operators))
        got = [[] for _ in operators]
        errors = []

        def work(i):
            try:
                start.wait(timeout=60)
                for _ in range(3):
                    got[i].append([results(h) for h in operators[i]])
            except Exception as exc:  # re-raised below, in the test's thread
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(operators))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads inside the Python parts of a pass too
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        if errors:
            raise errors[0]
        assert got == [[expected] * 3 for expected in serial]

    @pytest.mark.parametrize("n", [3, 17])
    def test_values_near_the_float_limit(self, n):
        far = [0, 1 << (n - 1), 3]  # far apart: live blocks are pruned at n = 17
        with pytest.raises(ParseError, match="^function values overflow the float range$"):
            table_from_fourier(DiagonalHamiltonian(n, {m: 1e308 for m in far[:2]}))
        with pytest.raises(ParseError, match="^function values overflow the float range$"):
            table_from_fourier(DiagonalHamiltonian(n, {far[0]: 9e307, far[1]: -9e307, far[2]: 9e307}))
        # a 1-norm past 1e300 whose values all fit is read as it is
        table = table_from_fourier(DiagonalHamiltonian(n, {far[0]: 1e308, far[1]: -5e307}))
        assert set(table.tolist()) == {5e307, 1.5e308}


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
