"""Checks of the position-space layer for the tests: the eigenvalues
E_n = n - 3/2, composite Gauss-Legendre orthonormality integrals with a
panel-doubling refinement check, and the finite-difference residual of the
stationary equation (1/2)(-psi'' + V psi) = E_n psi."""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from pmcs.errors import ConvergenceError
from pmcs.wavefunctions import _check_level, eigenfunction, potential


def energy(n: int) -> float:
    _check_level(n)
    return n - 1.5


@dataclass(frozen=True)
class GaussLegendreSpec:
    """Composite Gauss-Legendre quadrature on [-half_width, half_width]."""

    half_width: float
    panels: int = 16
    order: int = 12


def default_grid(n_max: int) -> GaussLegendreSpec:
    half_width = max(8.0, math.sqrt(2.0 * max(n_max, 1)) + 4.0)
    return GaussLegendreSpec(half_width=half_width)


@lru_cache(maxsize=32)
def _panel_nodes(half_width: float, panels: int, order: int):
    base_x, base_w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(-half_width, half_width, panels + 1)
    xs, ws = [], []
    for left, right in zip(edges[:-1], edges[1:]):
        mid, half = (left + right) / 2.0, (right - left) / 2.0
        xs.append(mid + half * base_x)
        ws.append(half * base_w)
    x = np.concatenate(xs)
    w = np.concatenate(ws)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _integrate_product(n1: int, n2: int, spec: GaussLegendreSpec) -> float:
    x, w = _panel_nodes(spec.half_width, spec.panels, spec.order)
    return float(np.sum(w * eigenfunction(n1, x) * eigenfunction(n2, x)))


def orthonormality_check(n1: int, n2: int, grid: GaussLegendreSpec | None = None) -> float:
    """integral of psi_{n1} psi_{n2} dx, with a panel-doubling refinement check.

    Raises ConvergenceError when doubling the panel count moves the result by
    more than 1e-8 (under-resolved grid).
    """
    _check_level(n1)
    _check_level(n2)
    if grid is None:
        grid = default_grid(max(n1, n2))
    coarse = _integrate_product(n1, n2, grid)
    fine = _integrate_product(
        n1, n2, GaussLegendreSpec(grid.half_width, 2 * grid.panels, grid.order)
    )
    if abs(fine - coarse) > 1e-8:
        raise ConvergenceError(
            f"quadrature not converged for ({n1}, {n2}): refinement moved the "
            f"integral by {abs(fine - coarse):.3e}"
        )
    return fine


def schrodinger_residual(n: int, step: float = 1e-3, half_width: float = 8.0) -> float:
    """Relative residual || (1/2)(-psi'' + V psi) - E_n psi || / ||psi|| on a
    uniform grid, the second derivative by central differences."""
    x = np.arange(-half_width, half_width + step / 2.0, step)
    psi = eigenfunction(n, x)
    lap = (psi[:-2] - 2.0 * psi[1:-1] + psi[2:]) / step**2
    inner = slice(1, -1)
    h_psi = 0.5 * (-lap + potential(x[inner]) * psi[inner])
    resid = h_psi - energy(n) * psi[inner]
    return float(np.linalg.norm(resid) / np.linalg.norm(psi[inner]))
