"""Position-space layer of the generalized isotonic oscillator.

Potential and eigenfunctions of

    V(x) = x^2 + 8 (2x^2 - 1)/(2x^2 + 1)^2,
    psi_n = N_n P_n(x) exp(-x^2/2)/(1 + 2x^2),   n = 0, 3, 4, ...
    E_n = n - 3/2.

Unit convention: with these eigenvalues the stationary equation reads
(1/2)(-psi'' + V psi) = E_n psi, i.e. both the kinetic term and V carry the
same absorbed 1/2 (the tests pin it by the n = 0 residual; neither
-psi'' + V psi = E psi nor -psi''/2 + V psi = E psi vanishes).
"""

from __future__ import annotations

import math

import numpy as np

from .specfun import MAX_POLY_DEGREE, _check_degree, p_hermite_eval


def _check_level(n: int) -> None:
    """Refuse a level that is no eigenstate or exceeds P_n's degree cap; the
    cap is checked here because 2^n n! in ``norm_const`` overflows from n = 171."""
    if n in (1, 2) or n < 0:
        raise ValueError(f"level {n} is not an eigenstate (allowed: 0 and n >= 3)")
    _check_degree(n, MAX_POLY_DEGREE, "modified Hermite")


def potential(x):
    x = np.asarray(x, dtype=float)
    out = x**2 + 8.0 * (2.0 * x**2 - 1.0) / (2.0 * x**2 + 1.0) ** 2
    return out.item() if out.ndim == 0 else out


def norm_const(n: int) -> float:
    _check_level(n)
    return math.sqrt((n - 1) * (n - 2) / (2**n * math.factorial(n) * math.sqrt(math.pi)))


def eigenfunction(n: int, x):
    """psi_n(x) = N_n P_n(x) exp(-x^2/2)/(1 + 2x^2); 0 where the Gaussian
    underflows, P_n evaluated only where it does not (P_n itself can overflow
    there)."""
    _check_level(n)
    x = np.asarray(x, dtype=float)
    gauss = np.exp(-(x**2) / 2.0)
    live = gauss != 0.0
    out = np.zeros_like(x)
    out[live] = norm_const(n) * p_hermite_eval(n, x[live]) * gauss[live] / (1.0 + 2.0 * x[live] ** 2)
    return out.item() if out.ndim == 0 else out
