import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import dense_reference
import exact_reference
from pmcs import nonclassical as nc, states, weyl
from pmcs.nonclassical import QuasiProbParams, UndefinedRatioError
from pmcs.weyl import ModulationParams


def coherent_state_wrapper(zeta, dim=None):
    return states.build_state(ModulationParams(0, 1, 0), zeta, dim)


def logical_fock_state(n):
    """|n> on the logical ladder, built as a photon-added vacuum."""
    return states.build_state(ModulationParams(0, 1, n), 0.0)


class TestMomentsOracle:
    def test_coherent_normal_moments(self):
        zeta = 1.1 - 0.5j
        m = nc.moments_oracle(coherent_state_wrapper(zeta))
        for j, value in enumerate(m, start=1):
            assert value == pytest.approx(abs(zeta) ** (2 * j), rel=1e-9)

    def test_fock_two_moments(self):
        m = nc.moments_oracle(logical_fock_state(2))
        assert m == pytest.approx((2.0, 2.0, 0.0, 0.0), abs=1e-12)
        # mu = (2, 4, 8, 16) is rank one: det mu = 0, det m = -8, A3 = -1
        result = nc.a3(m)
        assert abs(result.det_mu) <= 1e-11
        assert result.det_m == pytest.approx(-8.0, rel=1e-12)
        assert result.a3 == pytest.approx(-1.0, abs=1e-12)

    def test_vacuum_moments(self):
        assert nc.moments_oracle(coherent_state_wrapper(0.0)) == pytest.approx((0.0,) * 4, abs=1e-14)

    def test_first_moments_agree(self):
        state = states.build_state(ModulationParams(1 / 3, 2 / 3, 2), 1.2)
        m = nc.moments_oracle(state)
        pop = np.abs(state.amplitudes) ** 2
        assert m[0] == pytest.approx(float(np.dot(np.arange(pop.size), pop)), rel=1e-12)  # m_1 = <n>
        assert m[1] + m[0] >= m[0] ** 2 - 1e-12  # variance nonnegativity: mu_2 = m_2 + m_1
        assert all(isinstance(v, float) for v in m)


class TestMomentsPaper:
    def test_first_moment_consistency(self):
        # mu_1 = m_1 and mu_j = sum_i S(j, i) m_i: a3's det mu on the closed
        # form's sums is the Hankel determinant of those number moments
        params = ModulationParams(1 / 3, 2 / 3, 2)
        m = nc.moments_paper(params, 1.2, states.paper_norm_sq(params, 1.2))
        mu = exact_reference.number_moments(m)
        assert mu[0] == m[0]
        hankel = np.array([([1.0] + mu)[i:i + 3] for i in range(3)])
        assert nc.a3(m).det_mu == pytest.approx(float(np.linalg.det(hankel)), rel=1e-12)

    @pytest.mark.parametrize(
        "params,zetas",
        [
            (ModulationParams(0, 1, 0), (0.0, 0.7, 1.5, 3.0)),
            (ModulationParams(0, 1, 1), (0.5, 1.0, 2.0)),
            (ModulationParams(0, 1, 2), (0.5, 1.0, 2.0)),
            (ModulationParams(0, 0.7j, 3), (0.5, 1.0 - 1.0j, 2.0)),
            (ModulationParams(1, 0, 2), (0.5, 1.0, 2.0)),
            (ModulationParams(0.6, 0, 3), (1.3, 0.8j, 2.5)),
        ],
        ids=["N0", "added-1", "added-2", "added-3", "subtracted-2", "subtracted-3"],
    )
    def test_sums_are_anti_normal_in_the_exact_regimes(self, params, zetas):
        # Where the closed form is exact (mu = 0, nu = 0 or N = 0) its shift-j
        # sums are <a^j a†^j>, not the m_j = <a†^j a^j> that a3 reads them as
        # (at N = 0, zeta = 0 they are j!, where every m_j is 0).
        for zeta in zetas:
            paper = nc.moments_paper(params, zeta, states.paper_norm_sq(params, zeta))
            anti = exact_reference.anti_normal_moments(params.mu, params.nu, params.N, zeta)
            assert paper == pytest.approx(anti, rel=1e-12)

    @pytest.mark.parametrize("n_pow", [1, 2, 20])
    def test_two_lattice_walks(self, monkeypatch, n_pow):
        # one walk for the norm and one for all four shifts; both walks read
        # one cached term table
        walks = []
        original = weyl._lattice

        def spy(*args, **kwargs):
            walks.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(weyl, "_lattice", spy)
        weyl._lattice_table.cache_clear()
        params = ModulationParams(1 / 3, 2 / 3, n_pow)
        nc.moments_paper(params, 0.7, states.paper_norm_sq(params, 0.7))
        assert len(walks) == 2
        assert weyl._lattice_table.cache_info().misses == 1

    @pytest.mark.parametrize(
        "m_like,mu",
        [({1: 0.0, 2: 0.0, 3: 0.0, 4: 0.7}, (0.0, 0.0, 0.0, 0.7)), ({1: 1.0, 2: 2.0, 3: 4.0, 4: 8.0}, (1.0, 3.0, 11.0, 47.0))],
        ids=["shift-4-only", "powers-of-two"],
    )
    def test_exact_stirling_weights(self, monkeypatch, m_like, mu):
        # mu_j = sum_i S(j, i) m_i with integer S(j, i): a3's determinants are
        # exact where the m_i are (powers-of-two: det mu = 12, det m = 0; an
        # m_4 alone reaches only mu_4, leaving both zero and A3 undefined)
        monkeypatch.setattr(nc, "_laguerre_sum", lambda params, r2, shifts: tuple(m_like[j] for j in shifts))
        got = nc.moments_paper(ModulationParams(1 / 3, 2 / 3, 2), 0.7, 1.0)
        assert got == tuple(m_like[j] for j in (1, 2, 3, 4))
        try:
            result = nc.a3(got)
        except UndefinedRatioError as err:
            result = err
        assert (result.det_m, result.det_mu) == tuple(exact_reference.hankel_det(*v) for v in (got, mu))


def exact_m_like(mu2, nu2, n_pow, r2, shift):
    """The closed-form (k, l) double sum with the L_{N-k-l+shift} factor, in
    exact rationals; shift 0 is the squared norm."""
    total = Fraction(0)
    for k in range(n_pow + 1):
        for l in range(min(n_pow - k, k) + 1):
            order = n_pow - k - l + shift
            total += (
                mu2**k * nu2 ** (n_pow - k) * Fraction(1, 4) ** l * r2 ** (k - l)
                * math.factorial(order) * exact_reference.laguerre(order, -r2)
                / (math.factorial(l) * math.factorial(k - l) * math.factorial(n_pow - k - l)) ** 2
            )
    return math.factorial(n_pow) ** 2 * total


class TestExactGolden:
    """Norm, moments and A3 at mu = 1/3, nu = 2/3 against exact rational
    sums, independent of double rounding; mu_j = sum_i S(j, i) m_i."""

    @pytest.mark.parametrize("n_pow", [1, 2, 3])
    @pytest.mark.parametrize("zeta", [Fraction(1), Fraction(1, 2)], ids=["1", "1/2"])
    def test_closed_forms_match_rationals(self, n_pow, zeta):
        mu2, nu2 = Fraction(1, 9), Fraction(4, 9)
        nsq = exact_m_like(mu2, nu2, n_pow, zeta**2, 0)
        m = [exact_m_like(mu2, nu2, n_pow, zeta**2, j) / nsq for j in (1, 2, 3, 4)]
        det_m = exact_reference.hankel_det(*m)
        det_mu = exact_reference.hankel_det(*exact_reference.number_moments(m))

        params = ModulationParams(1 / 3, 2 / 3, n_pow)
        norm_sq = states.paper_norm_sq(params, float(zeta))
        assert norm_sq == pytest.approx(float(nsq), rel=1e-13)
        got = nc.moments_paper(params, float(zeta), norm_sq)
        assert got == pytest.approx([float(v) for v in m], rel=1e-13)
        result = nc.a3(got)
        assert result.det_m == pytest.approx(float(det_m), rel=1e-13)
        assert result.det_mu == pytest.approx(float(det_mu), rel=1e-13)
        assert result.a3 == pytest.approx(float(det_m / (det_mu - det_m)), rel=1e-13)


class TestPaperA3Witness:
    """mu = 0, nu = 1, N = 2, zeta = 1, the state a†^2 |1>: the oracle's m_j
    and A3 are exact rationals, and the paper column's A3 is the A3 of the
    anti-normal sums <a^j a†^j>, a different number, held here by value."""

    PARAMS = ModulationParams(0, 1, 2)
    M = (Fraction(27, 7), Fraction(87, 7), Fraction(235, 7), Fraction(543, 7))

    def test_oracle_moments_and_a3(self):
        assert exact_reference.factorial_moments(0, 1, 2, 1) == self.M
        m = nc.moments_oracle(states.build_state(self.PARAMS, 1.0))
        assert m == pytest.approx([float(v) for v in self.M], rel=1e-12)
        assert exact_reference.a3(self.M) == Fraction(-3104, 4095)
        assert nc.a3(m).a3 == pytest.approx(-3104 / 4095, rel=1e-12)

    def test_paper_column_is_the_a3_of_the_anti_normal_sums(self):
        anti = exact_reference.anti_normal_moments(0, 1, 2, 1)
        assert anti == (Fraction(34, 7), Fraction(209, 7), Fraction(1546, 7), Fraction(13327, 7))
        assert exact_reference.a3(anti) == Fraction(101500, 477559)
        paper = nc.moments_paper(self.PARAMS, 1.0, states.paper_norm_sq(self.PARAMS, 1.0))
        assert paper == pytest.approx([float(v) for v in anti], rel=1e-12)
        assert nc.a3(paper).a3 == pytest.approx(101500 / 477559, rel=1e-12)


class TestA3:
    def test_coherent_is_classical(self):
        result = nc.a3(nc.moments_oracle(coherent_state_wrapper(1.0)))
        assert abs(result.a3) <= 1e-10
        assert abs(result.det_m) <= 1e-12

    def test_fock_three_reaches_minus_one(self):
        result = nc.a3(nc.moments_oracle(logical_fock_state(3)))
        assert result.det_m == pytest.approx(-36.0, rel=1e-10)
        assert abs(result.det_mu) <= 1e-9
        assert result.a3 == pytest.approx(-1.0, abs=1e-9)

    def test_vacuum_ratio_undefined(self):
        with pytest.raises(UndefinedRatioError) as err:
            nc.a3(nc.moments_oracle(coherent_state_wrapper(0.0)))
        assert err.value.det_m == pytest.approx(0.0, abs=1e-12)
        assert err.value.det_mu == pytest.approx(0.0, abs=1e-12)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=4, max_size=4))
    def test_equals_the_per_call_stirling_lookup(self, m):
        # the Stirling weights as a3 read them before they became constant
        # rows: one expand_number_power lookup per j and its dict iterated
        mu = [sum(c.real * m[i - 1] for (i, _), c in weyl.expand_number_power(j).terms.items()) for j in (1, 2, 3, 4)]
        det_m, det_mu = nc._hankel_det(*m), nc._hankel_det(*mu)
        denom = det_mu - det_m
        defined = abs(denom) > 64 * np.finfo(float).eps * (nc._hankel_size(*m) + nc._hankel_size(*mu))
        try:
            result = nc.a3(m)
        except UndefinedRatioError as err:
            assert not defined and str(err) == str(UndefinedRatioError(det_m, det_mu))
            return
        assert defined
        got = (result.det_m.hex(), result.det_mu.hex(), result.a3.hex())
        assert got == (det_m.hex(), det_mu.hex(), (det_m / denom).hex())

    @pytest.mark.parametrize("params", [ModulationParams(0, 1, 0), ModulationParams(1, 0, 2)], ids=["N0", "subtracted-2"])
    def test_coherent_near_the_origin_is_classical(self, params):
        # a^2 |zeta> is coherent too.  At r = 0.005 both determinants are
        # O(r^6) ~ 3e-14, below any fixed threshold, yet A3 = 0 is defined.
        result = nc.a3(nc.moments_oracle(states.build_state(params, 0.005)))
        assert abs(result.a3) <= 1e-12

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 3.0])
    def test_modulated_states_nonclassical_window(self, r):
        state = states.build_state(ModulationParams(1 / 3, 2 / 3, 2), r)
        result = nc.a3(nc.moments_oracle(state))
        assert -1.0 < result.a3 < 0.0
        assert result.det_m < 0.0
        assert result.det_mu >= -1e-10  # non-Fock physical states


class TestSqueezing:
    def test_coherent_no_squeezing(self):
        i1, i2 = nc.squeezing_identities(coherent_state_wrapper(0.9 + 0.2j))
        assert i1 == pytest.approx(0.0, abs=1e-10)
        assert i2 == pytest.approx(0.0, abs=1e-10)

    def test_fock_one(self):
        i1, i2 = nc.squeezing_identities(logical_fock_state(1))
        assert i1 == pytest.approx(2.0, abs=1e-12)
        assert i2 == pytest.approx(2.0, abs=1e-12)

    def test_hand_derived_anchor(self):
        # mu=1/3, nu=2/3, N=1, zeta=1, acceptance criterion 6's counterexample:
        # I1 = -40/169 < 0 and I2 = 8/13 > 0 in exact rationals
        exact = exact_reference.squeezing(Fraction(1, 3), Fraction(2, 3), 1, Fraction(1))
        assert exact == (Fraction(-40, 169), Fraction(8, 13))
        state = states.build_state(ModulationParams(1 / 3, 2 / 3, 1), 1.0)
        assert nc.squeezing_identities(state) == pytest.approx([float(v) for v in exact], abs=1e-12)

    @pytest.mark.parametrize(
        "params,zeta",
        [
            (ModulationParams(0, 1, 0), 1.2 - 0.4j),
            (ModulationParams(1 / 3, 2 / 3, 1), 1.0),
            (ModulationParams(1 / 3, 2 / 3, 3), 2.0),
            (ModulationParams(0.2j, 0.9, 2), 0.8 + 0.8j),
        ],
    )
    def test_identities_match_variances(self, params, zeta):
        # I_k = 2 (Delta q)^2 - 1 against the dense truncated variances, whose
        # a a† drops the top level: they are (1 + I)/2 less d p_{d-1}/2
        state = states.build_state(params, zeta)
        i1, i2 = nc.squeezing_identities(state)
        amp = state.amplitudes
        a, ad = dense_reference.ladder_ops(amp.size)
        top = amp.size * abs(amp[-1]) ** 2 / 2.0
        for q, ident in (((a + ad) / math.sqrt(2.0), i1), (1j * (ad - a) / math.sqrt(2.0), i2)):
            mean, mean_sq = (complex(np.vdot(amp, op @ amp)) for op in (q, q @ q))
            assert (mean_sq - mean**2).real + top == pytest.approx((1.0 + ident) / 2.0, abs=1e-10)

    def test_uncertainty_anchors(self):
        coherent = nc.squeezing_identities(coherent_state_wrapper(1.3))
        assert nc.uncertainty_product(*coherent) == pytest.approx(0.25, abs=1e-10)
        assert nc.uncertainty_product(*nc.squeezing_identities(logical_fock_state(1))) == pytest.approx(2.25, abs=1e-10)

    @pytest.mark.parametrize("r", [0.25, 1.0, 2.5])
    @pytest.mark.parametrize("n_pow", [1, 2, 6])
    def test_uncertainty_bound(self, r, n_pow):
        state = states.build_state(ModulationParams(1 / 3, 2 / 3, n_pow), r)
        assert nc.uncertainty_product(*nc.squeezing_identities(state)) >= 0.25 - 1e-10


class TestQuasiProbOracle:
    def test_convention_pin_coherent_peak(self):
        # N = 0, gamma = zeta, s = -1 must give exactly the Husimi peak 1.
        zeta = 0.8 + 0.3j
        state = coherent_state_wrapper(zeta)
        assert nc.quasiprob_oracle(state, QuasiProbParams(zeta, -1.0)) == pytest.approx(1.0, abs=1e-9)

    def test_wigner_vacuum_value(self):
        state = coherent_state_wrapper(0.0)
        assert nc.quasiprob_oracle(state, QuasiProbParams(0.0, 0.0)) == pytest.approx(2.0, abs=1e-12)

    def test_husimi_nonnegative_on_grid(self):
        state = states.build_state(ModulationParams(1 / 3, 2 / 3, 2), 1.0)
        for re in np.linspace(-2.5, 2.5, 7):
            for im in np.linspace(-2.5, 2.5, 7):
                val = nc.quasiprob_oracle(state, QuasiProbParams(complex(re, im), -1.0))
                assert val >= -1e-10

    def test_s_equal_one_rejected(self):
        state = coherent_state_wrapper(0.5)
        with pytest.raises(ValueError):
            nc.quasiprob_oracle(state, QuasiProbParams(0.0, 1.0))

    def test_s_above_one_converges_at_origin(self):
        state = states.build_state(ModulationParams(0.001, 1.2, 2), 1j, dim=120)
        value = nc.quasiprob_oracle(state, QuasiProbParams(0.0, 1.2))
        assert value < 0.0

    def test_husimi_matches_overlap_formula(self):
        zeta, gamma = 1.1, 0.4 - 0.7j
        state = coherent_state_wrapper(zeta)
        got = nc.quasiprob_oracle(state, QuasiProbParams(gamma, -1.0))
        ref = abs(np.exp(-(abs(gamma) ** 2 + abs(zeta) ** 2) / 2 + np.conj(gamma) * zeta)) ** 2
        assert got == pytest.approx(ref, rel=1e-9, abs=1e-12)


class TestQuasiProbPaper:
    @pytest.mark.parametrize("s", [0.0, 1.0, -2.0])
    def test_closed_form_poles_rejected(self, s):
        with pytest.raises(ValueError):
            params = ModulationParams(0.001, 1.2, 2)
            nc.quasiprob_paper(params, 1j, QuasiProbParams(0.5, s), states.paper_norm_sq(params, 1j))

    @pytest.mark.parametrize(
        "gamma", [complex(math.nan, 0.0), complex(math.inf, 0.0), complex(math.inf, math.nan)],
        ids=["nan", "inf", "inf-nan"],
    )
    def test_non_finite_gamma_rejected(self, gamma):
        params = ModulationParams(0.001, 1.2, 2)
        with pytest.raises(ValueError, match="^gamma must be finite"):
            nc.quasiprob_paper(params, 1j, QuasiProbParams(gamma, -0.5), states.paper_norm_sq(params, 1j))

    @pytest.mark.parametrize("n_pow,gamma", [(1, 1e154), (20, 1e60)])
    def test_s2_terms_vanish_where_the_laguerre_row_overflows(self, n_pow, gamma):
        # at s = 2 every order > 0 term carries ((s-2)/s)^order = 0; its lag
        # is NaN (|gamma|^2 overflows) or inf (L_20 overflows) and must not
        # turn the sum NaN: the Gaussian prefactor underflows to 0
        params = ModulationParams(0.3, 0.5, n_pow)
        value = nc.quasiprob_paper(params, 1e-5, QuasiProbParams(gamma, 2.0), 1.0)
        assert value == 0.0

    def test_fig_regime_attains_negative_values(self):
        params = ModulationParams(0.001, 1.2, 2)
        norm_sq = states.paper_norm_sq(params, 1j)
        values = [
            nc.quasiprob_paper(params, 1j, QuasiProbParams(r * cmath.exp(1j * th), 1.2), norm_sq)
            for r in (0.5, 1.0, 2.0, 3.0)
            for th in (0.0, math.pi / 3, math.pi / 2, math.pi)
        ]
        assert min(values) < 0.0

    def test_exact_regime_gap_reported_not_asserted(self):
        # Even at N = 0 the closed form misses the coherent state's F: at
        # gamma = zeta = i and s = -1, the Husimi peak, it gives e^2/pi^2
        # where F is 1.  The gap is held by value on all three sides.
        params, zeta = ModulationParams(0, 1, 0), 1j
        qp = QuasiProbParams(zeta, -1.0)
        paper = nc.quasiprob_paper(params, zeta, qp, states.paper_norm_sq(params, zeta))
        assert paper == pytest.approx(math.e**2 / math.pi**2, rel=1e-12)
        assert exact_reference.quasiprob(0, 1, 0, zeta, zeta, -1.0) == 1.0
        assert nc.quasiprob_oracle(coherent_state_wrapper(zeta), qp) == pytest.approx(1.0, abs=1e-12)


class TestFidelity:
    def test_identity_power_is_one(self):
        params = ModulationParams(0.4, 0.7, 0)
        assert nc.fidelity_paper(params, 1.3, states.paper_norm_sq(params, 1.3)) == 1.0
        state = states.build_state(params, 1.3)
        assert nc.fidelity_oracle(state) == pytest.approx(1.0, abs=1e-10)

    def test_hand_derived_photon_added_point(self):
        # |<z|a†|z>|^2 / (1! L_1(-1)) = 1/2 at z = 1
        params = ModulationParams(0, 1, 1)
        state = states.build_state(params, 1.0)
        assert nc.fidelity_oracle(state) == pytest.approx(0.5, abs=1e-9)
        assert nc.fidelity_paper(params, 1.0, states.paper_norm_sq(params, 1.0)) == pytest.approx(
            0.5, rel=1e-12
        )

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n_pow", [1, 2, 3])
    def test_photon_added_paths_agree(self, r, n_pow):
        params = ModulationParams(0, 1, n_pow)
        state = states.build_state(params, r)
        paper = nc.fidelity_paper(params, r, states.paper_norm_sq(params, r))
        assert paper == pytest.approx(nc.fidelity_oracle(state), rel=1e-6)

    def test_photon_subtracted_is_unity(self):
        params = ModulationParams(1, 0, 2)
        state = states.build_state(params, 1.5)
        assert nc.fidelity_oracle(state) == pytest.approx(1.0, abs=1e-9)
        assert nc.fidelity_paper(params, 1.5, states.paper_norm_sq(params, 1.5)) == pytest.approx(
            1.0, rel=1e-12
        )

    @pytest.mark.parametrize(
        "params,zeta",
        [
            (ModulationParams(1 / 3, 2 / 3, 1), 0.5),
            (ModulationParams(1 / 3, 2 / 3, 3), 1.0),
            (ModulationParams(0.5, 0.5, 2), 1.0 + 1.0j),
            (ModulationParams(0, 1, 5), 2.0),
        ],
    )
    def test_bounds(self, params, zeta):
        state = states.build_state(params, zeta)
        paper = nc.fidelity_paper(params, zeta, states.paper_norm_sq(params, zeta))
        for value in (nc.fidelity_oracle(state), paper):
            assert -1e-12 <= value <= 1.0 + 1e-10

    @given(
        st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
        st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
        st.integers(0, weyl.MAX_POWER),
        st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False),
    )
    def test_paper_is_the_kl_walk_bit_for_bit(self, mu, nu, n_pow, zeta):
        # the exponent n + m of |zeta|^2 is N - 2l in integers, so every
        # term and the sum are the (k, l) walk's
        assume(n_pow == 0 or mu or nu)
        params = ModulationParams(mu, nu, n_pow)
        norm_sq = states.paper_norm_sq(params, zeta)
        assume(norm_sq > 0.0)  # a tiny |mu| or |nu| can underflow it
        got = nc.fidelity_paper(params, zeta, norm_sq)
        assert got.hex() == dense_reference.fidelity_paper_kl(params, zeta, norm_sq).hex()

    def test_photon_added_fidelity_grows_with_radius(self):
        params = ModulationParams(0, 1, 1)
        values = [nc.fidelity_oracle(states.build_state(params, r)) for r in (1.0, 2.0, 4.0)]
        assert values[0] < values[1] < values[2] < 1.0
