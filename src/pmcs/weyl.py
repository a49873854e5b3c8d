"""Ordering engine: normal-ordered series for (mu a + nu a†)^N and (a†a)^j.

Because mu a + nu a† commutes with itself, the symmetric-ordered expansion of
its N-th power is the operator power itself, so the series rebuilt as a
truncated matrix reproduces the dense matrix power up to rounding (the tests
hold it to that).  The series' (k, l) lattice has one builder, ``_lattice``,
a cached table of one (log |t_kl|^2, n, m) term per monomial a†^m a^n that
depends only on (|mu|, |nu|, N), so every radius and angle of a sweep shares
it.  Every closed form of ``states`` and ``nonclassical`` is a |t_kl|^2-weighted
sum over its terms.  The closed-form moments take their Stirling weights
S(j, i) from ``expand_number_power``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from .specfun import log_factorial_value, signed_log_sum

MAX_POWER = 32
_LN4 = math.log(4.0)


@dataclass(frozen=True)
class ModulationParams:
    """Definition of the superposed ladder operator (mu a + nu a†)^N."""

    mu: complex
    nu: complex
    N: int

    def __post_init__(self):
        object.__setattr__(self, "mu", complex(self.mu))
        object.__setattr__(self, "nu", complex(self.nu))
        if not (cmath.isfinite(self.mu) and cmath.isfinite(self.nu)):
            raise ValueError(f"mu and nu must be finite, got mu={self.mu}, nu={self.nu}")
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


def _lattice(params: ModulationParams) -> tuple[tuple[float, int, int], ...]:
    """The (log |t_kl|^2, n, m) terms of the normal-ordered series

        (mu a + nu a†)^N = sum_kl t_kl :a†^m a^n:,  n = k - l,  m = N - k - l,
        t_kl = N! mu^k nu^(N-k) 2^(-l) / (l! n! m!),

    in (k, l) order, l = 0 .. min(N-k, k).  mu = 0 leaves only k = 0 (pure
    a†^N) and nu = 0 only k = N (pure a^N).  The series and every closed form
    read this one table, cached per (|mu|, |nu|, N) for the last 64.
    """
    return _lattice_table(abs(params.mu), abs(params.nu), params.N)


@lru_cache(maxsize=64)
def _lattice_table(abs_mu: float, abs_nu: float, n_pow: int) -> tuple[tuple[float, int, int], ...]:
    log_mu2 = 2.0 * math.log(abs_mu) if abs_mu else -math.inf
    log_nu2 = 2.0 * math.log(abs_nu) if abs_nu else -math.inf
    lf = log_factorial_value
    base = 2.0 * lf(n_pow)
    return tuple(
        ((
            base + (k * log_mu2 if k else 0.0) + ((n_pow - k) * log_nu2 if n_pow - k else 0.0)
            - l * _LN4 - 2.0 * (lf(l) + lf(k - l) + lf(n_pow - k - l))
        ), k - l, n_pow - k - l)
        for k in range(0 if abs_nu else n_pow, (n_pow if abs_mu else 0) + 1)
        for l in range(min(n_pow - k, k) + 1)
    )


def expand_superposed_power(params: ModulationParams) -> NormalOrderedSeries:
    """Normal-ordered series of (mu a + nu a†)^N: coefficient t_kl of
    a†^m a^n, one lattice term per (m, n)."""
    arg_mu = math.atan2(params.mu.imag, params.mu.real)  # cmath.phase raises on underflow
    arg_nu = math.atan2(params.nu.imag, params.nu.real)
    terms = {}
    for log_t2, n, m in _lattice(params):
        k = (params.N + n - m) // 2  # n - m = 2k - N
        terms[(m, n)] = signed_log_sum([(0.5 * log_t2, cmath.exp(1j * (k * arg_mu + (params.N - k) * arg_nu)))])
    return NormalOrderedSeries(terms)


@lru_cache(maxsize=None)
def expand_number_power(j: int) -> NormalOrderedSeries:
    """(a†a)^j as the normal-ordered series sum_i S(j, i) a†^i a^i, the
    Stirling numbers of the second kind exact from S(l, i) = i S(l-1, i) +
    S(l-1, i-1)."""
    if not 1 <= j <= 8:
        raise ValueError(f"number power must be in [1, 8], got {j}")
    row = [1]
    for level in range(1, j + 1):
        row = [0] + [i * (row[i] if i < level else 0) + row[i - 1] for i in range(1, level + 1)]
    return NormalOrderedSeries({(i, i): complex(row[i]) for i in range(1, j + 1)})


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
