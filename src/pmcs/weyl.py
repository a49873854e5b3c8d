"""Ordering engine: normal-ordered series for (mu a + nu a†)^N, (a†a)^j and
exp(-lam a†a).

Because mu a + nu a† commutes with itself, the symmetric-ordered expansion of
its N-th power is the operator power itself, so the series rebuilt as a
truncated matrix reproduces the dense matrix power up to rounding (the tests
hold it to that).  The series' (k, l) lattice has one walker, ``_lattice``;
``diagonal_sum`` reads it for every closed form of ``states`` and
``nonclassical``, each a |t_kl|^2-weighted sum over its terms.  The
closed-form moments take their Stirling weights S(j, i) from
``expand_number_power``.
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

    def symbol(self, z: complex) -> complex:
        """The normal-ordered symbol sum c_{m,n} (z*)^m z^n."""
        z = complex(z)
        return sum(c * z.conjugate() ** m * z**n for (m, n), c in self.terms.items())


def _lattice(params: ModulationParams):
    """Yield (k, l, log |t_kl|^2) for the terms of the normal-ordered series

        (mu a + nu a†)^N = sum_kl t_kl :a†^(N-k-l) a^(k-l):,
        t_kl = N! mu^k nu^(N-k) 2^(-l) / (l! (k-l)! (N-k-l)!),

    l = 0 .. min(N-k, k).  mu = 0 leaves only k = 0 (pure a†^N) and nu = 0
    only k = N (pure a^N).  This is the one walk of the lattice: the series
    and every closed form read it.
    """
    n_pow = params.N
    abs_mu, abs_nu = abs(params.mu), abs(params.nu)
    log_mu2 = 2.0 * math.log(abs_mu) if abs_mu else -math.inf
    log_nu2 = 2.0 * math.log(abs_nu) if abs_nu else -math.inf
    lf = log_factorial_value
    base = 2.0 * lf(n_pow)
    for k in range(0 if abs_nu else n_pow, (n_pow if abs_mu else 0) + 1):
        for l in range(min(n_pow - k, k) + 1):
            yield k, l, (
                base + (k * log_mu2 if k else 0.0) + ((n_pow - k) * log_nu2 if n_pow - k else 0.0)
                - l * _LN4 - 2.0 * (lf(l) + lf(k - l) + lf(n_pow - k - l))
            )


def expand_superposed_power(params: ModulationParams) -> NormalOrderedSeries:
    """Normal-ordered series of (mu a + nu a†)^N: coefficient t_kl of
    a†^(N-k-l) a^(k-l), one lattice term per (m, n)."""
    arg_mu = math.atan2(params.mu.imag, params.mu.real)  # cmath.phase raises on underflow
    arg_nu = math.atan2(params.nu.imag, params.nu.real)
    n_pow = params.N
    return NormalOrderedSeries({
        (n_pow - k - l, k - l): signed_log_sum(
            [(0.5 * log_t2, cmath.exp(1j * (k * arg_mu + (n_pow - k) * arg_nu)))]
        )
        for k, l, log_t2 in _lattice(params)
    })


def diagonal_sum(params: ModulationParams, extra) -> float:
    """The diagonal-only sum behind every closed form,

        sum_kl |t_kl|^2 extra(k, l),

    with ``extra`` returning (log magnitude, sign) of the term's factor.
    """
    entries = []
    for k, l, log_t2 in _lattice(params):
        log_extra, sign = extra(k, l)
        entries.append((log_t2 + log_extra, sign))
    return signed_log_sum(entries).real


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
