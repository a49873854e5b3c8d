"""Every oracle quantity against the truncation-free ``exact_reference``: the
squared norm, the four factorial moments, I1, I2 and the fidelity."""

import math

import pytest
from hypothesis import assume, given, settings, strategies as st

import exact_reference
from pmcs import nonclassical as nc, states
from pmcs.errors import PmcsError
from pmcs.weyl import ModulationParams

coefficient = st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False)
plane = st.complex_numbers(max_magnitude=2.9, allow_nan=False, allow_infinity=False)


@settings(max_examples=150, deadline=None)
@given(coefficient, coefficient, st.integers(0, 8), plane)
def test_oracle_matches_the_exact_reference(mu, nu, n_pow, zeta):
    assume(n_pow == 0 or mu != 0 or nu != 0)
    try:
        state = states.build_state(ModulationParams(mu, nu, n_pow), zeta)
        moments, squeezing = nc.moments_oracle(state), nc.squeezing_identities(state)
    except PmcsError:
        assume(False)
    exact = (mu, nu, n_pow, zeta)
    assert state.norm_sq_oracle == pytest.approx(exact_reference.norm_sq(*exact), rel=1e-10)
    assert moments == pytest.approx(exact_reference.factorial_moments(*exact), rel=1e-10)
    # I_k + 1 = 2 (Delta q)^2 is a variance in units of the vacuum's 1, and the
    # overlap sqrt(F) is a sum that cancels to rounding where F is tiny (to
    # 5e-14 at mu = nu = 1+1j, N = 7, zeta = 2.9j): both get an absolute floor
    assert squeezing == pytest.approx(exact_reference.squeezing(*exact), rel=1e-10, abs=1e-10)
    overlap = math.sqrt(exact_reference.fidelity(*exact))
    assert math.sqrt(nc.fidelity_oracle(state)) == pytest.approx(overlap, rel=1e-10, abs=1e-12)
