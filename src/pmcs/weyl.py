"""Ordering engine: normal-ordered series for (mu a + nu a†)^N, (a†a)^j and
exp(-lam a†a), plus dense-matrix reconstruction for oracle comparison.

Because mu a + nu a† commutes with itself, the symmetric-ordered expansion of
its N-th power is the operator power itself; rebuilding the series as a matrix
must therefore reproduce the dense matrix power exactly (up to rounding).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

import numpy as np

from . import fock
from .specfun import log_factorial_value, signed_log_sum

MAX_POWER = 32
_LN2 = math.log(2.0)


@dataclass(frozen=True)
class ModulationParams:
    """Definition of the superposed ladder operator (mu a + nu a†)^N."""

    mu: complex
    nu: complex
    N: int

    def __post_init__(self):
        object.__setattr__(self, "mu", complex(self.mu))
        object.__setattr__(self, "nu", complex(self.nu))
        if self.N < 0 or self.N > MAX_POWER:
            raise ValueError(f"N must be in [0, {MAX_POWER}], got {self.N}")
        if self.N > 0 and self.mu == 0 and self.nu == 0:
            raise ValueError("mu and nu cannot both vanish for N > 0")


@dataclass(frozen=True, eq=False)
class NormalOrderedSeries:
    """Finite map (creation power m, annihilation power n) -> coefficient."""

    terms: Mapping[tuple[int, int], complex]

    def __post_init__(self):
        clean = {key: complex(c) for key, c in self.terms.items() if c != 0}
        for c in clean.values():
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise ValueError("series coefficients must be finite")
        object.__setattr__(self, "terms", MappingProxyType(clean))

    def max_degree(self) -> int:
        return max((m + n for m, n in self.terms), default=0)

    def symbol(self, z: complex) -> complex:
        """The normal-ordered symbol sum c_{m,n} (z*)^m z^n."""
        z = complex(z)
        return sum(c * z.conjugate() ** m * z**n for (m, n), c in self.terms.items())


def _log_polar(value: complex) -> tuple[float, float]:
    value = complex(value)
    if value == 0:
        return -math.inf, 0.0
    return math.log(abs(value)), math.atan2(value.imag, value.real)  # cmath.phase raises on underflow


def expand_superposed_power(params: ModulationParams) -> NormalOrderedSeries:
    """Normal-ordered series of (mu a + nu a†)^N:

        N! sum_k mu^k nu^(N-k) sum_l (1/2)^l :a†^(N-k-l) a^(k-l): /
            (l! (k-l)! (N-k-l)!)

    with l = 0 .. min(N-k, k).  The prefactor is kept as mu^k nu^(N-k) so the
    nu = 0 case degenerates cleanly to the single k = N term (pure a^N) and
    mu = 0 to the single k = 0 term (pure a†^N).
    """
    n_pow = params.N
    if n_pow == 0:
        return NormalOrderedSeries({(0, 0): 1.0 + 0.0j})
    log_mu, arg_mu = _log_polar(params.mu)
    log_nu, arg_nu = _log_polar(params.nu)
    lfn = log_factorial_value(n_pow)

    buckets: dict[tuple[int, int], list[tuple[float, complex]]] = {}
    for k in range(n_pow + 1):
        if params.mu == 0 and k > 0:
            continue
        if params.nu == 0 and k < n_pow:
            continue
        for l in range(min(n_pow - k, k) + 1):
            key = (n_pow - k - l, k - l)
            log_mag = (
                lfn
                - log_factorial_value(l)
                - log_factorial_value(k - l)
                - log_factorial_value(n_pow - k - l)
                - l * _LN2
                + (k * log_mu if k else 0.0)
                + ((n_pow - k) * log_nu if n_pow - k else 0.0)
            )
            phase = cmath.exp(1j * (k * arg_mu + (n_pow - k) * arg_nu))
            buckets.setdefault(key, []).append((log_mag, phase))
    return NormalOrderedSeries({key: signed_log_sum(entries) for key, entries in buckets.items()})


@lru_cache(maxsize=None)
def _stirling2_row(j: int) -> tuple[int, ...]:
    """Stirling numbers of the second kind S(j, i) for i = 0..j, exact."""
    row = [1]
    for level in range(1, j + 1):
        prev = row
        row = [0] * (level + 1)
        for i in range(1, level + 1):
            row[i] = i * (prev[i] if i < level else 0) + prev[i - 1]
    return tuple(row)


def expand_number_power(j: int) -> NormalOrderedSeries:
    """(a†a)^j as the normal-ordered series sum_i S(j, i) a†^i a^i."""
    if not 1 <= j <= 8:
        raise ValueError(f"number power must be in [1, 8], got {j}")
    row = _stirling2_row(j)
    return NormalOrderedSeries({(i, i): complex(row[i]) for i in range(1, j + 1)})


def expand_exp_number(lam: complex) -> tuple[complex, complex]:
    """Scalars (A, c) of the symmetric-ordered form of exp(-lam a†a):

        A = 2 / (1 + e^(-lam)),   c = -2 (1 - e^(-lam)) / (1 + e^(-lam)).

    The pair represents the operator through its ordered symbol A exp(c |alpha|^2);
    use ``exp_number_coherent_expectation`` to evaluate coherent-state elements.
    """
    lam = complex(lam)
    w = cmath.exp(-lam)
    denom = 1.0 + w
    if abs(denom) < 1e-12:
        raise ValueError(f"pole at exp(-lam) = -1 (lam = {lam})")
    return 2.0 / denom, -2.0 * (1.0 - w) / denom


def exp_number_coherent_expectation(lam: complex, alpha: complex) -> complex:
    """<alpha| exp(-lam n̂) |alpha> reconstructed from the ordered scalars.

    A symbol A exp(c |.|^2) turns into a coherent expectation through Gaussian
    smoothing: (2A / (2 - c)) exp(2c |alpha|^2 / (2 - c)); for the scalars of
    ``expand_exp_number`` this collapses to exp(-(1 - e^(-lam)) |alpha|^2).
    """
    pref, coeff = expand_exp_number(lam)
    denom = 2.0 - coeff
    if abs(denom) < 1e-12:
        raise ValueError("smoothing denominator vanished")
    return (2.0 * pref / denom) * cmath.exp(2.0 * coeff * abs(alpha) ** 2 / denom)


def _falling(a: int, b: int) -> int:
    return math.perm(a, b)


def _ladder_amplitude(level: int, n_low: int, m_up: int) -> float:
    """sqrt(level!/(level-n)!) * sqrt((level-n+m)!/(level-n)!) for the monomial
    a†^m a^n mapping |level> to |level - n + m>; exact for perfect squares."""
    base = level - n_low
    p = _falling(level, n_low) * _falling(base + m_up, m_up)
    r = math.isqrt(p)
    if r * r == p:
        return float(r)
    if p.bit_length() < 1024:
        return math.sqrt(p)
    return math.exp(
        0.5
        * (
            log_factorial_value(level)
            + log_factorial_value(base + m_up)
            - 2.0 * log_factorial_value(base)
        )
    )


def series_to_matrix(series: NormalOrderedSeries, dim: int) -> fock.FockOperator:
    """Dense matrix of sum c_{m,n} (a†)^m (a)^n on the truncated ladder."""
    max_deg = series.max_degree()
    if 2 * max_deg > dim:
        raise ValueError(f"series degree {max_deg} needs dim >= {2 * max_deg}, got {dim}")
    mat = np.zeros((dim, dim), dtype=complex)
    for (m, n), coeff in sorted(series.terms.items()):
        for level in range(n, dim):
            out = level - n + m
            if out >= dim:
                continue
            mat[out, level] += coeff * _ladder_amplitude(level, n, m)
    return fock.FockOperator(mat, label="series")


def series_as_json_dict(params: ModulationParams) -> dict:
    """JSON-ready dump of the superposed-power series, terms sorted by (m, n)."""
    series = expand_superposed_power(params)
    return {
        "mu": [params.mu.real, params.mu.imag],
        "nu": [params.nu.real, params.nu.imag],
        "N": params.N,
        "terms": [
            {"m": m, "n": n, "re": c.real, "im": c.imag}
            for (m, n), c in sorted(series.terms.items())
        ],
    }
