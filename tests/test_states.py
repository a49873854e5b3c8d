import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import dense_reference
from pmcs import fock, states
from pmcs.errors import DegenerateStateError
from pmcs.specfun import laguerre_eval
from pmcs.weyl import ModulationParams


class TestPaperNormSq:
    def test_identity_power(self):
        assert states.paper_norm_sq(ModulationParams(0.4, 0.9, 0), 1.3) == 1.0

    @pytest.mark.parametrize("n_pow", [1, 2, 3, 5])
    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
    def test_photon_added_laguerre_form(self, n_pow, r):
        got = states.paper_norm_sq(ModulationParams(0, 1, n_pow), r)
        ref = math.factorial(n_pow) * laguerre_eval(n_pow, -(r**2))
        assert got == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("n_pow", [1, 2, 3, 5])
    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
    def test_photon_subtracted_power_form(self, n_pow, r):
        got = states.paper_norm_sq(ModulationParams(1, 0, n_pow), r)
        assert got == pytest.approx(r ** (2 * n_pow), rel=1e-12)

    def test_hand_evaluated_mixture(self):
        # k = 0 term (2/3)^2 L_1(-1) 1! + k = 1 term (1/3)^2 |z|^2 = 8/9 + 1/9
        got = states.paper_norm_sq(ModulationParams(1 / 3, 2 / 3, 1), 1.0)
        assert got == pytest.approx(1.0, rel=1e-12)


coefficient = st.one_of(st.just(0j), st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False))


def outcome(evaluate):
    """Bit patterns of the returned floats, or the exception's type and text."""
    try:
        return [value.hex() for value in evaluate()]
    except ValueError as exc:
        return [type(exc).__name__, str(exc)]


class TestFusedLaguerreSum:
    @settings(max_examples=100, deadline=None)
    @given(coefficient, coefficient, st.integers(0, 32), st.one_of(st.just(0.0), st.floats(0.0, 1e4)))
    @example(1 / 3, 2j / 3, 32, 1e4)
    @example(0j, 1e3 + 0j, 32, 1e4)  # past the double range: both raise the same error
    def test_fused_shifts_equal_one_walk_per_shift_bit_for_bit(self, mu, nu, n_pow, r2):
        assume(n_pow == 0 or mu != 0 or nu != 0)
        params = ModulationParams(mu, nu, n_pow)
        for shifts in ((0,), (1, 2, 3, 4)):
            fused = outcome(lambda: states._laguerre_sum(params, r2, shifts))
            reference = outcome(lambda: [dense_reference.laguerre_sum_one_shift(params, r2, j) for j in shifts])
            assert fused == reference


class TestBuildState:
    def test_identity_power_returns_coherent(self):
        zeta = 0.8 - 0.2j
        state = states.build_state(ModulationParams(0.3, 0.7, 0), zeta)
        ref, _ = fock.coherent_state(zeta, state.dim)
        assert np.allclose(state.amplitudes, ref, atol=1e-12)
        assert state.norm_sq_paper == 1.0
        assert state.norm_sq_oracle == pytest.approx(1.0, abs=1e-12)
        assert state.discrepancy <= 1e-12

    def test_photon_added_norm_matches_oracle(self):
        state = states.build_state(ModulationParams(0, 1, 2), 1.0)
        assert state.norm_sq_paper == pytest.approx(7.0, rel=1e-12)  # 2! L_2(-1)
        assert state.norm_sq_oracle == pytest.approx(7.0, rel=1e-9)
        assert state.discrepancy <= 1e-9

    def test_photon_subtracted_norm_matches_oracle(self):
        state = states.build_state(ModulationParams(1, 0, 3), 2.0)
        assert state.norm_sq_paper == pytest.approx(64.0, rel=1e-12)
        assert state.norm_sq_oracle == pytest.approx(64.0, rel=1e-9)

    def test_degenerate_zero_state(self):
        with pytest.raises(DegenerateStateError):
            states.build_state(ModulationParams(1, 0, 1), 0.0)

    @pytest.mark.parametrize("zeta", [complex(math.nan, 0), complex(1, math.inf)])
    def test_non_finite_zeta_rejected(self, zeta):
        with pytest.raises(ValueError, match="zeta must be finite"):
            states.build_state(ModulationParams(1, 1, 2), zeta)

    def test_tiny_norm_is_not_degenerate(self):
        # (mu r)^(2N) = (1/6)^64 = 1.6e-50: tiny, yet far inside the double range
        state = states.build_state(ModulationParams(2 / 3, 0, 32), 0.25)
        assert state.norm_sq_oracle == pytest.approx((0.25 * 2 / 3) ** 64, rel=1e-12)
        assert state.discrepancy <= 1e-12

    def test_underflowing_norm_is_degenerate(self):
        # (mu r)^(2N) = 1e-320: nonzero, but subnormal and imprecise
        with pytest.raises(DegenerateStateError, match="underflow"):
            states.build_state(ModulationParams(4e-5, 0, 32), 0.25)

    def test_photon_added_matches_ladder_action(self):
        zeta, n_pow = 0.9 + 0.4j, 2
        state = states.build_state(ModulationParams(0, 1, n_pow), zeta)
        base, _ = fock.coherent_state(zeta, state.dim)
        _, ad = dense_reference.ladder_ops(state.dim)
        raw = np.linalg.matrix_power(ad, n_pow) @ base
        raw /= np.linalg.norm(raw)
        assert np.allclose(state.amplitudes, raw, atol=1e-12)

    def test_added_vacuum_has_no_low_levels(self):
        state = states.build_state(ModulationParams(0, 1, 3), 0.0)
        assert np.all(state.amplitudes[:3] == 0)
        assert abs(state.amplitudes[3]) == pytest.approx(1.0, abs=1e-12)

    @given(st.complex_numbers(min_magnitude=0.1, max_magnitude=3.0, allow_nan=False, allow_infinity=False))
    def test_global_rescaling_invariance(self, scale):
        params = ModulationParams(0.4, 0.8, 2)
        scaled = ModulationParams(scale * 0.4, scale * 0.8, 2)
        zeta = 0.7
        a = states.build_state(params, zeta, dim=48)
        b = states.build_state(scaled, zeta, dim=48)
        # normalization cancels the scale up to a global phase of scale^N
        phase = (scale / abs(scale)) ** 2
        assert np.allclose(b.amplitudes, phase * a.amplitudes, atol=1e-12)
        assert b.norm_sq_oracle == pytest.approx(abs(scale) ** 4 * a.norm_sq_oracle, rel=1e-9)

    def test_continuity_in_zeta(self):
        params = ModulationParams(1 / 3, 2 / 3, 2)
        eps = 1e-6
        v0 = states.build_state(params, 1.0, dim=64).amplitudes
        v1 = states.build_state(params, 1.0 + eps, dim=64).amplitudes
        assert np.max(np.abs(v1 - v0)) < 100 * eps


class TestCompareNorms:
    def test_cross_term_magnitude(self):
        # <z|(mu* a† + nu* a)(mu a + nu a†)|z> = |mu z|^2 + |nu|^2 (1 + |z|^2)
        # + 2 Re(mu* nu z*^2): at mu = nu = 1/sqrt2, z = 1 the oracle gives
        # 2.5 while the diagonal-only closed form gives 1.5.
        params = ModulationParams(1 / math.sqrt(2), 1 / math.sqrt(2), 1)
        cmp_ = states.compare_norms(params, 1.0)
        assert cmp_.norm_sq_oracle == pytest.approx(2.5, rel=1e-9)
        assert cmp_.norm_sq_paper == pytest.approx(1.5, rel=1e-12)
        assert cmp_.rel_gap == pytest.approx(0.4, abs=1e-6)
        assert not cmp_.exact_regime

    def test_cross_term_killed_by_phase(self):
        # zeta^2 purely imaginary makes Re(mu* nu z*^2) vanish
        params = ModulationParams(1 / math.sqrt(2), 1 / math.sqrt(2), 1)
        zeta = cmath.exp(1j * math.pi / 4)
        cmp_ = states.compare_norms(params, zeta)
        assert cmp_.rel_gap <= 1e-9

    @pytest.mark.parametrize(
        "params,zeta",
        [
            (ModulationParams(0, 1, 3), 1.5),
            (ModulationParams(1, 0, 2), 0.8 + 0.6j),
            (ModulationParams(0.3, 0.6, 0), 2.0),
        ],
    )
    def test_exact_regimes_agree(self, params, zeta):
        cmp_ = states.compare_norms(params, zeta)
        assert cmp_.exact_regime
        assert cmp_.rel_gap <= 1e-8
