import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from pmcs import specfun


def laguerre_series_exact(n, x):
    """Independent oracle: L_n(x) = sum_k C(n,k) (-x)^k / k!, summed in exact
    rational arithmetic at the exact binary value of x."""
    xf = Fraction(x)
    total = Fraction(0)
    for k in range(n + 1):
        total += Fraction(math.comb(n, k)) * (-xf) ** k / math.factorial(k)
    return float(total)


class TestLaguerre:
    def test_order_zero_is_one(self):
        assert specfun.laguerre_eval(0, 7.3) == 1.0

    def test_order_one(self):
        assert specfun.laguerre_eval(1, 2.0) == -1.0

    def test_order_two_closed_form(self):
        # L_2(x) = (x^2 - 4x + 2)/2
        assert specfun.laguerre_eval(2, -1.0) == pytest.approx(3.5, rel=1e-14)

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            specfun.laguerre_eval(65, 0.5)
        with pytest.raises(ValueError):
            specfun.laguerre_eval(-1, 0.5)

    @given(st.integers(min_value=0, max_value=30), st.floats(min_value=-10, max_value=10))
    def test_matches_series_summation(self, n, x):
        value = specfun.laguerre_eval(n, x)
        ref = laguerre_series_exact(n, x)
        # relative 1e-10 away from zeros; near zeros the attainable absolute
        # accuracy is set by the largest intermediate of the recurrence
        largest = max(abs(v) for v in specfun.laguerre_table(n, x))
        assert abs(value - ref) <= max(1e-10 * abs(ref), 1e-12 * largest)

    def test_vectorized(self):
        x = np.linspace(-3, 3, 7)
        out = specfun.laguerre_eval(4, x)
        assert out.shape == x.shape
        assert out[3] == specfun.laguerre_eval(4, 0.0)

    @given(
        st.integers(min_value=0, max_value=specfun.MAX_POLY_DEGREE),
        st.floats(min_value=-50, max_value=50),
    )
    @example(64, 0.0)
    @example(64, -0.0)
    @example(64, 50.0)
    @example(64, -50.0)
    def test_table_bit_identical_to_eval(self, n, x):
        row = specfun.laguerre_table(n, x)
        assert len(row) == n + 1
        for k, value in enumerate(row):
            assert value == specfun.laguerre_eval(k, x)

    @pytest.mark.parametrize("n", [0, 1, 7, specfun.MAX_POLY_DEGREE])
    def test_array_eval_bit_identical_to_table(self, n):
        x = np.array([[-50.0, -3.25, -0.0], [0.0, 0.5, 49.0]])
        got = specfun.laguerre_eval(n, x)
        assert got.shape == x.shape
        for idx in np.ndindex(x.shape):
            assert got[idx] == specfun.laguerre_table(n, float(x[idx]))[n]

    def test_table_degree_cap(self):
        assert len(specfun.laguerre_table(specfun.MAX_POLY_DEGREE, 0.5)) == 65
        with pytest.raises(ValueError):
            specfun.laguerre_table(65, 0.5)
        with pytest.raises(ValueError):
            specfun.laguerre_table(-1, 0.5)


class TestHermite:
    def test_low_orders(self):
        assert specfun.hermite_eval(0, 3.0) == 1.0
        assert specfun.hermite_eval(1, 0.5) == 1.0

    def test_h4(self):
        # H_4(x) = 16x^4 - 48x^2 + 12
        assert specfun.hermite_eval(4, 1.0) == -20.0

    @given(st.integers(min_value=0, max_value=12), st.floats(min_value=-4, max_value=4))
    def test_recurrence_matches_explicit_sum(self, n, x):
        # H_n(x) = n! sum_m (-1)^m (2x)^(n-2m) / (m! (n-2m)!)
        ref = sum(
            (-1) ** m * (2 * x) ** (n - 2 * m) * math.factorial(n) / (math.factorial(m) * math.factorial(n - 2 * m))
            for m in range(n // 2 + 1)
        )
        assert specfun.hermite_eval(n, x) == pytest.approx(ref, rel=1e-10, abs=1e-9)


class TestPHermite:
    def test_zero_order(self):
        assert specfun.p_hermite_eval(0, 2.0) == 1.0

    def test_excluded_indices(self):
        for n in (1, 2):
            with pytest.raises(ValueError):
                specfun.p_hermite_eval(n, 0.0)

    def test_n3_at_origin(self):
        # H_3(0) = 0 and H_1(0) = 0; the n-3 factor kills the undefined term.
        assert specfun.p_hermite_eval(3, 0.0) == 0.0

    def test_n4_at_origin(self):
        # H_4(0) + 16 H_2(0) + 16 H_0(0) = 12 - 32 + 16
        assert specfun.p_hermite_eval(4, 0.0) == -4.0

    @pytest.mark.parametrize("n", [0, 3, 4, 5, 6, 7, 8])
    def test_parity(self, n):
        x = np.linspace(0.1, 4.0, 9)
        left = specfun.p_hermite_eval(n, -x)
        right = (-1.0) ** n * specfun.p_hermite_eval(n, x)
        assert np.allclose(left, right, rtol=0, atol=1e-12 * np.max(np.abs(right)))


class TestSignedLogSum:
    def test_empty(self):
        assert specfun.signed_log_sum([]) == 0j

    def test_cancellation(self):
        out = specfun.signed_log_sum([(2.0, 1.0), (2.0, -1.0)])
        assert out == 0j

    def test_overflow_guard(self):
        with pytest.raises(ValueError):
            specfun.signed_log_sum([(800.0, 1.0), (800.0, 1.0)])

    def test_large_terms_cancel_safely(self):
        out = specfun.signed_log_sum([(50.0, 1.0), (50.0, -1.0), (0.0, 1.0)])
        assert out == pytest.approx(1.0, rel=1e-12)


def _bits_or_error(evaluate):
    try:
        return float(evaluate()).hex()
    except ValueError as exc:
        return str(exc)


class TestLogSum:
    @given(st.lists(st.one_of(st.just(-math.inf), st.floats(-800.0, 800.0)), max_size=40))
    @example([])
    @example([-math.inf, -math.inf])
    @example([709.0, 709.0])  # the sum leaves the double range
    def test_equals_the_real_part_of_the_signed_sum_bit_for_bit(self, logs):
        want = _bits_or_error(lambda: specfun.signed_log_sum([(lm, 1.0) for lm in logs]).real)
        assert _bits_or_error(lambda: specfun.log_sum(logs)) == want
