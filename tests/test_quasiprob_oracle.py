"""The displaced-frame quasi-probability oracle against two references.

``exact_reference.quasiprob`` is truncation-free: F(gamma, s) is a Gram form
over the displaced state's coefficients, with no Fock dimension.  The dense
reference displaces the truncated state vector with ``fock.displacement``
and takes the weighted trace with ``fock.density_and_trace``.
"""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import exact_reference
from pmcs import fock, nonclassical as nc, states, sweeps
from pmcs.errors import ConvergenceError, PmcsError
from pmcs.nonclassical import QuasiProbParams
from pmcs.sweeps import GammaGrid, QuasiSpec, SweepConfig, ZetaGrid
from pmcs.weyl import ModulationParams

coefficient = st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False)
plane = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
s_values = st.sampled_from([-3.0, -1.0, -0.5, 0.0, 0.5, 1.2, 3.0, 5.0])


def agrees(got: float, ref: float, s: float, rel: float) -> bool:
    """Relative agreement, measured against the distribution's scale 2/|1-s|
    where F is smaller: below that scale the oracle's accuracy is absolute
    (``fock.trace_rows`` compares cancellation with max(|sum|, 1))."""
    return abs(got - ref) <= rel * max(abs(ref), 2.0 / abs(1.0 - s))


def oracle_or_skip(params, zeta, gamma, s, dim=None) -> float:
    try:
        state = states.build_state(params, zeta, dim)
        return nc.quasiprob_oracle(state, QuasiProbParams(gamma, s))
    except (PmcsError, ValueError):
        assume(False)


class TestAgainstTruncationFreeReference:
    @settings(max_examples=150, deadline=None)
    @given(coefficient, coefficient, st.integers(0, 3), plane, plane, s_values)
    @example(mu=1, nu=-1.06e-54, n_pow=2, zeta=0, gamma=1, s=-1.0)  # the oracle refuses: see TestRefusals
    def test_matches_reference(self, mu, nu, n_pow, zeta, gamma, s):
        # 1e-10 is the truncation the decay rule accepts: at mu = 1, nu = 0,
        # N = 2, zeta = 0.9375, gamma = 0, s = 1.2 the default 39 levels leave
        # 1.8e-11 of F outside.  The presets below hold 1e-12.
        assume(n_pow == 0 or mu != 0 or nu != 0)
        params = ModulationParams(mu, nu, n_pow)
        got = oracle_or_skip(params, zeta, gamma, s)
        assert agrees(got, exact_reference.quasiprob(mu, nu, n_pow, zeta, gamma, s), s, 1e-10)

    def test_s_above_one_off_origin_matches_reference(self):
        # The dense oracle refused this point: its displacement left ~1e-16
        # noise that the weight 11^n amplified.  The displaced frame has none.
        params = ModulationParams(0.001, 1.2, 2)
        state = states.build_state(params, 1j, dim=160)
        got = nc.quasiprob_oracle(state, QuasiProbParams(0.5, 1.2))
        assert got == pytest.approx(exact_reference.quasiprob(0.001, 1.2, 2, 1j, 0.5, 1.2), rel=1e-12)
        assert got == pytest.approx(-1.0742056334e10, rel=1e-10)

    def test_displacement_beyond_the_state_dimension(self):
        # |zeta - gamma| = 3.5 does not fit the state's 40 levels; the
        # displaced frame takes default_dim(zeta - gamma, N) = 75 instead
        params = ModulationParams(0.3, 0.8, 2)
        state = states.build_state(params, 0.5, dim=40)
        got = nc.quasiprob_oracle(state, QuasiProbParams(-3.0, -0.5))
        assert got == pytest.approx(exact_reference.quasiprob(0.3, 0.8, 2, 0.5, -3.0, -0.5), rel=1e-12)

    def test_s_above_one_refuses_summand_peak_in_top_decile(self):
        # w |zeta - gamma|^2 = 11 * 3.7^2 = 150.6 sits in the top decile of 160 levels
        params = ModulationParams(0.001, 1.2, 2)
        state = states.build_state(params, 1j, dim=160)
        gamma = -2.7j
        w = (1.0 + 1.2) / (1.2 - 1.0)
        assert w * abs(1j - gamma) ** 2 >= 0.9 * state.dim
        assert fock.default_dim(1j - gamma, 2) <= state.dim  # no dimension raise
        with pytest.raises(ConvergenceError, match="s=1.2"):
            nc.quasiprob_oracle(state, QuasiProbParams(gamma, 1.2))

    @pytest.mark.parametrize("name", ["fig3a", "fig3b"])
    def test_figure_presets(self, name):
        cfg = sweeps.preset_config(name)
        rows = sweeps.run_sweep(cfg)
        converged = 0
        for row in rows:
            if row.oracle_value is None:
                assert "oracle: ConvergenceError: trace summand does not decay" in row.error
                continue
            zeta = row.r * cmath.exp(1j * row.theta)
            assert math.isfinite(row.oracle_value)
            assert row.oracle_value == pytest.approx(
                exact_reference.quasiprob(row.mu, row.nu, row.N, zeta, row.gamma, row.s), rel=1e-12
            )
            converged += 1
        assert converged == {"fig3a": 100, "fig3b": 13}[name]


class TestRefusals:
    @pytest.mark.parametrize("nu", [-1.06e-54, -1e-20])
    def test_displaced_frame_of_rounding_noise_is_refused(self, nu):
        # At gamma = 1 the displaced frame (a + nu a† + 1 + nu)^2 |-1> keeps
        # the state only in its nu terms; in doubles it is rounding noise, 0
        # at the one level s = -1 weighs, where F is e^-1.
        exact = exact_reference.quasiprob(1, Fraction(nu), 2, 0, 1, Fraction(-1))
        assert exact == pytest.approx(math.exp(-1.0), rel=1e-12)
        state = states.build_state(ModulationParams(1, nu, 2), 0.0)
        with pytest.raises(ConvergenceError, match="cancels"):
            nc.quasiprob_oracle(state, QuasiProbParams(1.0, -1.0))

    def test_shift_cancelling_the_state_is_refused(self):
        # nu = 0 and |zeta| ~ 1e-8: the state (a^3 |zeta>, normalized) is the
        # near-vacuum, but in the displaced frame (a + gamma)^3 |zeta - gamma>
        # keeps it only as a difference of O(|gamma|^3) terms.
        params = ModulationParams(0.2137 + 0.0854j, 0, 3)
        zeta = -1.3e-8 + 1.14e-8j
        state = states.build_state(params, zeta)
        with pytest.raises(ConvergenceError, match="cancels"):
            nc.quasiprob_oracle(state, QuasiProbParams(-0.13 + 0.148j, 1.2))

    def test_alternating_weight_above_one_is_refused(self):
        # s = 0.5: w = -3, so sum (-3)^n p_n cancels from ~1e6 to ~1e-12
        params = ModulationParams(-0.4237 + 0.7844j, -0.0062 + 0.0664j, 3)
        zeta, gamma = 0.8695 - 0.4994j, -1.5042 - 1.1358j
        state = states.build_state(params, zeta)
        with pytest.raises(ConvergenceError):
            nc.quasiprob_oracle(state, QuasiProbParams(gamma, 0.5))

    @pytest.mark.parametrize("s", [0.9999, 1.0001])
    def test_weight_overflow_near_s_one_is_an_error_row(self, s):
        cfg = SweepConfig(
            family="quasiprob", mu=(0.001,), nu=(1.2,), n_values=(2,),
            zeta=ZetaGrid(1.0, 1.0, 1, (math.pi / 2,)),
            quasi=QuasiSpec(s=s, gamma=GammaGrid(0.3, 3.0, 4, (0.0, 2.0))),
            dim_override=192,
        )
        rows = sweeps.run_sweep(cfg)
        assert rows
        for row in rows:
            assert row.oracle_value is None
            assert "oracle: ValueError" in row.error and "overflows the double range" in row.error
            assert row.paper_value is None or math.isfinite(row.paper_value)


class TestAgainstDense:
    @settings(max_examples=60, deadline=None)
    @given(coefficient, coefficient, st.integers(0, 3), plane, plane,
           st.sampled_from([-3.0, -1.0, -0.5, -0.2, 0.0]), st.integers(32, 64))
    def test_matches_dense_displacement(self, mu, nu, n_pow, zeta, gamma, s, dim):
        assume(n_pow == 0 or mu != 0 or nu != 0)
        # the dense reference is only valid where the displaced state fits its space
        assume(fock.default_dim(zeta - gamma, n_pow) <= dim)
        params = ModulationParams(mu, nu, n_pow)
        got = oracle_or_skip(params, zeta, gamma, s, dim)
        state = states.build_state(params, zeta, dim)
        disp = fock.displacement(gamma, dim).matrix
        displaced = fock.FockVector(disp.conj().T @ state.amplitudes)
        weight = fock.FockOperator(np.diag(((1.0 + s) / (s - 1.0)) ** np.arange(dim)))
        try:
            trace = fock.density_and_trace(displaced, weight)
        except ConvergenceError:
            assume(False)
        assert agrees(got, 2.0 / (1.0 - s) * trace.real, s, 1e-10)
