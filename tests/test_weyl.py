import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import dense_reference
import exact_reference
from pmcs import fock, nonclassical, states, weyl

MU_GRID = (1.0, 0.5 - 0.3j, -0.7 + 0.2j, 1.1j)
NU_GRID = (1.0, 0.8 + 0.1j, -0.4j, 0.6 - 0.5j)


def dense_power(mu, nu, n_pow, dim):
    a, ad = dense_reference.ladder_ops(dim)
    return np.linalg.matrix_power(mu * a.matrix + nu * ad.matrix, n_pow)


class TestModulationParams:
    def test_power_cap(self):
        with pytest.raises(ValueError):
            weyl.ModulationParams(1, 1, 33)

    def test_double_zero_rejected(self):
        with pytest.raises(ValueError):
            weyl.ModulationParams(0, 0, 2)
        weyl.ModulationParams(0, 0, 0)  # N = 0 is the identity regardless

    @pytest.mark.parametrize("mu,nu", [(math.nan, 1), (1, complex(0, math.inf)), (1, complex(math.nan, 0))])
    def test_non_finite_coefficients_rejected(self, mu, nu):
        with pytest.raises(ValueError, match="mu and nu must be finite"):
            weyl.ModulationParams(mu, nu, 2)


class TestLatticeTable:
    def test_table_depends_only_on_moduli(self):
        weyl._lattice_table.cache_clear()
        first = weyl._lattice(weyl.ModulationParams(0.6, -0.8j, 5))
        assert weyl._lattice(weyl.ModulationParams(-0.6j, 0.8, 5)) is first
        assert weyl._lattice_table.cache_info().misses == 1
        assert weyl._lattice_table.cache_info().maxsize == 64

    def test_terms_in_lattice_order_with_their_weights(self):
        mu, nu, n_pow = 0.5 - 0.3j, 1.1, 7
        table = weyl._lattice(weyl.ModulationParams(mu, nu, n_pow))
        assert isinstance(table, tuple)
        lattice = [(k, l) for k in range(8) for l in range(min(7 - k, k) + 1)]
        assert [(n, m) for _, n, m in table] == [(k - l, n_pow - k - l) for k, l in lattice]
        f = math.factorial
        for (k, l), (log_t2, _, _) in zip(lattice, table):
            t = f(n_pow) * abs(mu) ** k * abs(nu) ** (n_pow - k) / (2**l * f(l) * f(k - l) * f(n_pow - k - l))
            assert math.exp(log_t2) == pytest.approx(t * t, rel=1e-13)

    @given(
        st.floats(0.0, 10.0), st.floats(0.0, 10.0), st.integers(0, weyl.MAX_POWER),
    )
    def test_terms_are_the_kl_lattice_with_its_monomial_powers(self, abs_mu, abs_nu, n_pow):
        # each term's (n, m) is (k - l, N - k - l) in (k, l) order and its
        # weight is bit for bit the (k, l) walk's
        assume(n_pow == 0 or abs_mu or abs_nu)
        params = weyl.ModulationParams(abs_mu, abs_nu, n_pow)
        got = [(log_t2.hex(), n, m) for log_t2, n, m in weyl._lattice(params)]
        assert got == [(log_t2.hex(), k - l, n_pow - k - l) for k, l, log_t2 in dense_reference.lattice_kl(params)]


class TestSuperposedPowerSeries:
    def test_empty_power(self):
        series = weyl.expand_superposed_power(weyl.ModulationParams(2, 3, 0))
        assert dict(series.terms) == {(0, 0): 1.0 + 0j}

    def test_linear(self):
        mu, nu = 0.5 - 0.2j, 1.5j
        series = weyl.expand_superposed_power(weyl.ModulationParams(mu, nu, 1))
        assert series.terms[(1, 0)] == pytest.approx(nu)
        assert series.terms[(0, 1)] == pytest.approx(mu)
        assert len(series.terms) == 2

    def test_quadratic_unit_coefficients(self):
        series = weyl.expand_superposed_power(weyl.ModulationParams(1, 1, 2))
        expected = {(2, 0): 1, (1, 1): 2, (0, 2): 1, (0, 0): 1}
        assert set(series.terms) == set(expected)
        for key, val in expected.items():
            assert series.terms[key] == pytest.approx(val, rel=1e-14)

    def test_pure_subtraction(self):
        series = weyl.expand_superposed_power(weyl.ModulationParams(2.0, 0.0, 3))
        assert dict(series.terms) == {(0, 3): pytest.approx(8.0 + 0j)}

    def test_pure_addition(self):
        series = weyl.expand_superposed_power(weyl.ModulationParams(0.0, 2.0j, 2))
        assert dict(series.terms) == {(2, 0): pytest.approx(-4.0 + 0j)}

    @given(
        st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
        st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
        st.integers(0, weyl.MAX_POWER),
    )
    def test_terms_are_the_kl_walks_bit_for_bit(self, mu, nu, n_pow):
        # keyed (m, n) from the table's powers and phased by k = (N + n - m)/2,
        # every coefficient is the one the (k, l) walk builds, in its order
        assume(n_pow == 0 or mu or nu)
        params = weyl.ModulationParams(mu, nu, n_pow)
        got, want = weyl.expand_superposed_power(params).terms, dense_reference.superposed_power_kl(params).terms
        bits = lambda terms: [(key, c.real.hex(), c.imag.hex()) for key, c in terms.items()]
        assert bits(got) == bits(want)

    def test_degree_bound_invariant(self):
        series = weyl.expand_superposed_power(weyl.ModulationParams(0.3, 0.9j, 7))
        assert all(m + n <= 7 for m, n in series.terms)

    @pytest.mark.parametrize("n_pow", range(6))
    def test_matrix_reconstruction_matches_power(self, n_pow):
        dim = 32
        for mu, nu in ((1, 1), (0.5 - 0.3j, 0.8 + 0.1j), (1.1j, -0.4j)):
            series = weyl.expand_superposed_power(weyl.ModulationParams(mu, nu, n_pow))
            got = dense_reference.series_to_matrix(series, dim).matrix
            ref = dense_power(mu, nu, n_pow, dim)
            half = dim // 2
            assert np.max(np.abs((got - ref)[:half, :half])) < 1e-10

    def test_adjoint_pairing(self):
        # ((mu a + nu a†)^N)† = (nu* a + mu* a†)^N: the pairing swaps the
        # roles and conjugates.
        dim = 32
        mu, nu = 0.7 - 0.4j, 1.2 + 0.9j
        left = dense_reference.series_to_matrix(
            weyl.expand_superposed_power(weyl.ModulationParams(mu, nu, 4)), dim
        ).matrix
        right = dense_reference.series_to_matrix(
            weyl.expand_superposed_power(weyl.ModulationParams(nu.conjugate(), mu.conjugate(), 4)), dim
        ).matrix
        half = dim // 2
        assert np.max(np.abs((left.conj().T - right)[:half, :half])) < 1e-10

    @given(st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False))
    def test_symbol_matches_bivariate_hermite_route(self, z):
        # Independent route: <z|(mu a + nu a†)^N|z> is both the series' symbol
        # sum t_mn z*^m z^n and sum_m b_m z*^m, b the coefficients of the
        # power applied to |z> factor by factor.
        mu, nu = 0.6 + 0.2j, 0.9 - 0.5j
        for n_pow in range(5):
            series = weyl.expand_superposed_power(weyl.ModulationParams(mu, nu, n_pow))
            direct = sum(c * z.conjugate() ** m * z**n for (m, n), c in series.terms.items())
            b = exact_reference.coefficients(mu, nu, n_pow, z)
            via_coefficients = sum(bm * z.conjugate() ** m for m, bm in enumerate(b))
            assert direct == pytest.approx(via_coefficients, rel=1e-10, abs=1e-10)


def stirling2_reference(j, i):
    """Signed-sum definition in exact rationals."""
    total = Fraction(0)
    for r in range(i + 1):
        total += Fraction((-1) ** r * (i - r) ** j, math.factorial(r) * math.factorial(i - r))
    return int(total)


class TestClosedFormsAtVacuum:
    """At zeta = 0 the diagonal-only closed forms are exact, so they must
    agree with the Weyl series whose lattice they sum: (mu a + nu a†)^N |0>
    = sum_m c_{m,0} sqrt(m!) |m>."""

    CASES = [(1 / 3, 2 / 3, 2), (0.3 + 0.4j, -0.7j, 7), (1, 1, 20)]

    @pytest.mark.parametrize("mu,nu,n_pow", CASES)
    def test_norm_is_the_series_vacuum_column(self, mu, nu, n_pow):
        params = weyl.ModulationParams(mu, nu, n_pow)
        terms = weyl.expand_superposed_power(params).terms
        series = sum(abs(c) ** 2 * math.factorial(m) for (m, n), c in terms.items() if n == 0)
        paper = states.paper_norm_sq(params, 0)
        assert paper == pytest.approx(series, rel=1e-12)
        assert paper == pytest.approx(states.build_state(params, 0).norm_sq_oracle, rel=1e-12)

    @pytest.mark.parametrize("mu,nu,n_pow", CASES)
    def test_fidelity_is_the_series_constant_term(self, mu, nu, n_pow):
        params = weyl.ModulationParams(mu, nu, n_pow)
        norm_sq = states.paper_norm_sq(params, 0)
        c00 = weyl.expand_superposed_power(params).terms.get((0, 0), 0)
        assert nonclassical.fidelity_paper(params, 0, norm_sq) == pytest.approx(abs(c00) ** 2 / norm_sq, rel=1e-12)


class TestNumberPowerSeries:
    def test_linear(self):
        assert dict(weyl.expand_number_power(1).terms) == {(1, 1): 1.0 + 0j}

    def test_quadratic(self):
        assert dict(weyl.expand_number_power(2).terms) == {(1, 1): 1.0 + 0j, (2, 2): 1.0 + 0j}

    def test_cubic(self):
        assert dict(weyl.expand_number_power(3).terms) == {
            (1, 1): 1.0 + 0j,
            (2, 2): 3.0 + 0j,
            (3, 3): 1.0 + 0j,
        }

    @pytest.mark.parametrize("j", range(1, 9))
    def test_coefficients_match_signed_sum(self, j):
        series = weyl.expand_number_power(j)
        for i in range(1, j + 1):
            assert series.terms[(i, i)] == stirling2_reference(j, i)

    @pytest.mark.parametrize("j", range(1, 9))
    def test_diagonal_reconstruction_exact(self, j):
        dim = 48
        got = np.diag(dense_reference.series_to_matrix(weyl.expand_number_power(j), dim).matrix).real
        ref = np.arange(dim, dtype=float) ** j
        assert np.array_equal(got[:21], ref[:21])

    def test_range_guard(self):
        for j in (0, 9):
            with pytest.raises(ValueError):
                weyl.expand_number_power(j)


class TestExpNumberForm:
    @pytest.mark.parametrize("lam", [math.log(2.0), 1 + 0.3j])
    @pytest.mark.parametrize("alpha", [0.4, 1.1 - 0.8j, 1.9j])
    def test_coherent_elements_match_oracle(self, lam, alpha):
        # <alpha| exp(-lam n̂) |alpha> = exp(-(1 - e^(-lam)) |alpha|^2)
        vec, _ = fock.coherent_state(alpha, 60)
        got = fock.expectation(dense_reference.operator_exp_number(lam, 60), vec)
        assert got == pytest.approx(cmath.exp(-(1.0 - cmath.exp(-lam)) * abs(alpha) ** 2), rel=1e-9)

    def test_diagonal_elements_are_exponential(self):
        op = dense_reference.operator_exp_number(math.log(2.0), 16)
        assert np.allclose(np.diag(op.matrix), np.exp(-math.log(2.0) * np.arange(16)), rtol=1e-14)


class TestSeriesToMatrix:
    def test_constant_series(self):
        series = weyl.NormalOrderedSeries({(0, 0): 2.5 - 1j})
        mat = dense_reference.series_to_matrix(series, 8).matrix
        assert np.array_equal(mat, (2.5 - 1j) * np.eye(8))

    def test_headroom_guard(self):
        series = weyl.expand_superposed_power(weyl.ModulationParams(1, 1, 5))
        with pytest.raises(ValueError):
            dense_reference.series_to_matrix(series, 8)


class TestJsonDump:
    def test_terms_sorted_and_complete(self):
        doc = weyl.series_as_json_dict(weyl.ModulationParams(1.0, 1.0, 2))
        keys = [(t["m"], t["n"]) for t in doc["terms"]]
        assert keys == sorted(keys)
        assert {"m", "n", "re", "im"} == set(doc["terms"][0])
        assert doc["N"] == 2
