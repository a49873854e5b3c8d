import math

import numpy as np
import pytest

import wavefunction_checks as checks
from pmcs import wavefunctions as wf
from pmcs.errors import ConvergenceError
from pmcs.specfun import p_hermite_eval

VALID_LEVELS = (0, 3, 4, 5, 6, 7)


class TestPotential:
    def test_origin_exact(self):
        assert wf.potential(0.0) == -8.0

    def test_numerator_zero_point(self):
        assert wf.potential(1 / math.sqrt(2)) == pytest.approx(0.5, abs=1e-12)

    def test_harmonic_asymptote(self):
        assert 1.0 < wf.potential(10.0) / 100.0 < 1.01


class TestEigenfunctions:
    def test_ground_state_at_origin(self):
        assert wf.eigenfunction(0, 0.0) == pytest.approx(math.sqrt(2 / math.sqrt(math.pi)), rel=1e-14)

    def test_n3_vanishes_at_origin(self):
        assert wf.eigenfunction(3, 0.0) == 0.0

    @pytest.mark.parametrize("n", [0, 3, 4, 5, 6, 7, 8, 9, 10])
    def test_gaussian_decay(self, n):
        # |psi_n(8)| < 1e-10 only holds through n = 6 (n = 10 gives ~9e-9);
        # higher levels need a slightly larger abscissa for the same bound.
        if n <= 6:
            assert abs(wf.eigenfunction(n, 8.0)) < 1e-10
        assert abs(wf.eigenfunction(n, 9.5)) < 1e-10

    def test_zero_where_the_gaussian_underflows(self):
        # P_64 overflows at 1e5; psi is 0 wherever exp(-x^2/2) is, and finite
        psi = wf.eigenfunction(64, np.array([-1e5, -40.0, 0.0, 38.0, 1e5]))
        assert np.isfinite(psi).all()
        assert psi[0] == psi[1] == psi[4] == 0.0 and psi[3] != 0.0
        assert psi[2] == wf.eigenfunction(64, 0.0)

    def test_values_where_the_gaussian_lives_are_the_formula(self):
        x = np.linspace(-7.0, 7.0, 101)
        ref = wf.norm_const(40) * np.asarray(p_hermite_eval(40, x)) * np.exp(-(x**2) / 2.0) / (1.0 + 2.0 * x**2)
        assert np.array_equal(wf.eigenfunction(40, x), ref)

    @pytest.mark.parametrize("n", [1, 2, -1])
    def test_invalid_levels_rejected(self, n):
        with pytest.raises(ValueError):
            wf.eigenfunction(n, 0.0)
        with pytest.raises(ValueError):
            checks.energy(n)

    @pytest.mark.parametrize("n", VALID_LEVELS)
    def test_parity(self, n):
        x = np.linspace(0.05, 6.0, 37)
        left = wf.eigenfunction(n, -x)
        right = (-1.0) ** n * wf.eigenfunction(n, x)
        assert np.max(np.abs(left - right)) <= 1e-12 * max(1.0, np.max(np.abs(right)))

    def test_eigenstate_record(self):
        assert checks.energy(4) == 2.5
        assert wf.norm_const(4) == pytest.approx(math.sqrt(6 / (16 * 24 * math.sqrt(math.pi))), rel=1e-14)
        with pytest.raises(ValueError):
            wf.norm_const(2)

    @pytest.mark.parametrize("n", VALID_LEVELS)
    def test_linear_spectrum(self, n):
        assert checks.energy(n) == n - 1.5


class TestOrthonormality:
    def test_ground_state_normalized(self):
        assert checks.orthonormality_check(0, 0) == pytest.approx(1.0, abs=1e-8)

    def test_parity_orthogonality(self):
        assert checks.orthonormality_check(3, 4) == pytest.approx(0.0, abs=1e-8)

    def test_n3_normalized(self):
        assert checks.orthonormality_check(3, 3) == pytest.approx(1.0, abs=1e-8)

    def test_full_matrix(self):
        for i, n1 in enumerate(VALID_LEVELS):
            for n2 in VALID_LEVELS[i:]:
                value = checks.orthonormality_check(n1, n2)
                target = 1.0 if n1 == n2 else 0.0
                assert abs(value - target) < 1e-7

    def test_under_resolved_grid_rejected(self):
        with pytest.raises(ConvergenceError):
            checks.orthonormality_check(6, 6, checks.GaussLegendreSpec(half_width=9.0, panels=1, order=2))


class TestSchrodingerResidual:
    @pytest.mark.parametrize("n", [0, 3, 4, 5])
    def test_residual_small(self, n):
        assert checks.schrodinger_residual(n) < 1e-4

    def test_wrong_energy_has_large_residual(self):
        # sanity: the residual is actually sensitive to the eigenvalue
        x = np.arange(-8.0, 8.0 + 5e-4, 1e-3)
        psi = wf.eigenfunction(0, x)
        lap = (psi[:-2] - 2 * psi[1:-1] + psi[2:]) / 1e-6
        wrong = 0.5 * (-lap + wf.potential(x[1:-1]) * psi[1:-1]) - (checks.energy(0) + 1.0) * psi[1:-1]
        assert np.linalg.norm(wrong) / np.linalg.norm(psi[1:-1]) > 0.5
