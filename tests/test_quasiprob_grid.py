"""The quasi-probability oracle over a gamma grid: one row-batched pass per
dimension group must give every gamma exactly what it gets alone."""

import cmath
import math
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pmcs import fock, nonclassical as nc, states
from pmcs.errors import ConvergenceError, PmcsError
from pmcs.nonclassical import QuasiProbParams
from pmcs.weyl import ModulationParams

coefficient = st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False)
plane = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
wide = st.complex_numbers(max_magnitude=12.0, allow_nan=False, allow_infinity=False)
S_VALUES = [-3.0, -1.0, -0.5, 0.0, 0.5, 1.2, 3.0, 0.9999, 1.0001]


def outcome(value):
    """A grid entry as something equal only bit for bit (values) or by class
    and message (errors)."""
    if isinstance(value, Exception):
        return type(value), str(value)
    return value.hex()


def one_at_a_time(state, gammas, s):
    return [outcome(nc.quasiprob_grid(state, [gamma], s)[0]) for gamma in gammas]


def dims_of(state, gammas):
    return [max(state.dim, fock.default_dim(state.zeta - g, state.params.N)) for g in gammas]


class TestBatchInvariance:
    @settings(max_examples=40, deadline=None)
    @given(coefficient, coefficient, st.integers(0, 4), plane, st.lists(wide, min_size=1, max_size=6),
           st.sampled_from(S_VALUES), st.booleans())
    @example(0.3, 0.8, 2, 0.5j, [0.4, 3.0 - 2.0j, 9.0], 1.2, True)
    @example(0.0, 1.0, 0, 1.0, [-0.7j], -1.0, True)
    def test_grid_equals_one_gamma_at_a_time(self, mu, nu, n_pow, zeta, base, s, long):
        assume(n_pow == 0 or mu != 0 or nu != 0)
        try:
            state = states.build_state(ModulationParams(mu, nu, n_pow), zeta)
        except (PmcsError, ValueError):
            assume(False)
        # gamma = 0 has no shift, gamma = zeta a vacuum coherent row; the long
        # grids run past one block of rows
        gammas = base + [0j, zeta]
        if long:
            gammas += [base[k % len(base)] * (1.0 + k / 50.0) for k in range(fock.GRID_ROWS + 2)]
        got = [outcome(value) for value in nc.quasiprob_grid(state, gammas, s)]
        assert got == one_at_a_time(state, gammas, s)

    @pytest.mark.parametrize("s", S_VALUES)
    @pytest.mark.parametrize("n_pow", [0, 1, 2, 3, 4])
    def test_several_dimensions_and_blocks(self, n_pow, s):
        # 96 of these gammas fit the state's 96 levels, the rest need up to 256
        state = states.build_state(ModulationParams(0.6 - 0.2j, 0.9, n_pow), 1.2 + 0.4j, dim=96)
        gammas = [r * cmath.exp(2j * math.pi * k / 24) for r in (0.0, 0.4, 1.5, 3.0, 7.5) for k in range(24)]
        gammas.append(state.zeta)
        dims = dims_of(state, gammas)
        assert len(set(dims)) >= 3 and max(dims.count(d) for d in dims) > fock.GRID_ROWS
        got = [outcome(value) for value in nc.quasiprob_grid(state, gammas, s)]
        assert got == one_at_a_time(state, gammas, s)

    def test_oracle_raises_what_the_grid_returns(self):
        state = states.build_state(ModulationParams(0.001, 1.2, 2), 1j, dim=160)
        gammas = [0.5, -2.7j]
        values = nc.quasiprob_grid(state, gammas, 1.2)
        assert nc.quasiprob_oracle(state, QuasiProbParams(gammas[0], 1.2)) == values[0]
        assert isinstance(values[1], ConvergenceError)
        with pytest.raises(ConvergenceError) as info:
            nc.quasiprob_oracle(state, QuasiProbParams(gammas[1], 1.2))
        assert str(info.value) == str(values[1])

    def test_the_state_refusal_comes_before_the_bound_refusal(self):
        # the shifted power and its magnitude bound both leave mass in the top
        # decile of 256 levels; the row reports the state's own fraction
        params = ModulationParams(0, -1.32 + 0.39j, 6)
        zeta, gamma = -1.24 - 1.27j, 9.5 - 6.05j
        state = states.build_state(params, zeta, dim=256)
        coherent, _ = fock.coherent_state(zeta - gamma, 256)
        with pytest.raises(ConvergenceError, match="top decile") as info:
            fock.apply_superposed_power(params, coherent, params.nu * gamma.conjugate())
        (value,) = nc.quasiprob_grid(state, [gamma], -1.0)
        assert outcome(value) == (ConvergenceError, str(info.value))

    def test_a_gamma_without_a_dimension_refuses_alone(self):
        # a NaN gamma (from an overflowing gamma-grid step) has no d_gamma;
        # its entry is that ValueError and the rest of the grid still runs
        state = states.build_state(ModulationParams(0.3, 0.8, 1), 0.5)
        gammas = [complex(math.nan, math.nan), 0.5, complex(math.inf, math.nan)]
        got = [outcome(value) for value in nc.quasiprob_grid(state, gammas, -0.5)]
        assert got[0] == (ValueError, "cannot convert float NaN to integer")
        assert isinstance(got[1], str)
        assert got[2] == (ValueError, "amplitudes must be finite")
        assert got == one_at_a_time(state, gammas, -0.5)

    def test_s_one_fills_the_grid(self):
        state = states.build_state(ModulationParams(0.3, 0.8, 1), 0.5)
        values = nc.quasiprob_grid(state, [0.0, 1.0, 2.0j], 1.0)
        assert [outcome(v) for v in values] == [(ValueError, "the operator form diverges at s = 1 (prefactor 2/(1-s))")] * 3


def test_peak_memory_is_bounded_by_the_block_not_the_grid():
    # one unblocked 4096 x 256 complex array alone would take 16.8 MB
    state = states.build_state(ModulationParams(0.3, 0.8, 2), 0.5, dim=256)

    def peak(count: int) -> int:
        gammas = [0.5 * (k % 7) / 7 * cmath.exp(2j * math.pi * k / count) for k in range(count)]
        assert set(dims_of(state, gammas)) == {256}
        tracemalloc.start()
        try:
            values = nc.quasiprob_grid(state, gammas, -0.5)
            used = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not any(isinstance(v, Exception) for v in values)
        return used

    small, large = peak(2 * fock.GRID_ROWS), peak(4096)
    assert large < 4096 * 256 * 16 / 4
    assert large - small < 1_000_000  # the per-gamma results and bookkeeping only
