"""Stable evaluation of the special functions behind all closed-form expressions.

Laguerre and physicists' Hermite polynomials go through three-term
recurrences, each written once: ``laguerre_table`` is the row L_0 .. L_n
that the closed forms index, and ``laguerre_eval`` its last entry,
elementwise on arrays.  Every evaluator returns the value itself.  The
closed-form sums take their factorial weights as logs
(``log_factorial_value``) and add their terms with ``signed_log_sum``, or
with its real-valued case ``log_sum`` where every term is positive, so that
modulation powers up to the supported caps never overflow an intermediate
product.
"""

from __future__ import annotations

import math

import numpy as np

MAX_POLY_DEGREE = 64
MAX_FACTORIAL_ARG = 128

_LOG_DBL_MAX = math.log(np.finfo(float).max)


def _check_degree(n: int, cap: int, what: str) -> None:
    if not isinstance(n, (int, np.integer)):
        raise ValueError(f"{what} degree must be an integer, got {n!r}")
    if n < 0:
        raise ValueError(f"{what} degree must be nonnegative, got {n}")
    if n > cap:
        raise ValueError(f"{what} degree {n} exceeds the supported cap {cap}")


def _as_value(arr: np.ndarray):
    return arr.item() if arr.ndim == 0 else arr


def laguerre_table(n: int, x) -> list:
    """[L_0(x), ..., L_n(x)] by the three-term recurrence
    (k+1) L_{k+1} = (2k+1-x) L_k - k L_{k-1}.

    A float x gives plain floats; an array x gives arrays from L_1 on.
    """
    _check_degree(n, MAX_POLY_DEGREE, "Laguerre")
    row = [1.0]
    if n == 0:
        return row
    prev, cur = 1.0, 1.0 - x
    row.append(cur)
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 - x) * cur - k * prev) / (k + 1)
        row.append(cur)
    return row


def laguerre_eval(n: int, x):
    """Laguerre polynomial L_n(x), elementwise for an array x: entry n of
    ``laguerre_table``."""
    x = np.asarray(x, dtype=float)
    return _as_value(laguerre_table(n, x)[n] * np.ones_like(x))


def hermite_eval(n: int, x):
    """Physicists' Hermite polynomial H_n(x) via H_{k+1} = 2x H_k - 2k H_{k-1}."""
    _check_degree(n, MAX_POLY_DEGREE, "Hermite")
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if n == 0:
        return _as_value(prev)
    cur = 2.0 * x
    for k in range(1, n):
        prev, cur = cur, 2.0 * x * cur - 2.0 * k * prev
    return _as_value(cur)


def p_hermite_eval(n: int, x):
    """Modified Hermite combination H_n + 4n H_{n-2} + 4n(n-3) H_{n-4},
    defined for n = 0 and n >= 3 (the quantum numbers the oscillator admits).

    At n = 3 the last term carries coefficient 4n(n-3) = 0, which annihilates
    the otherwise undefined H_{-1}; the term is simply skipped.
    """
    if n in (1, 2):
        raise ValueError(f"index {n} is excluded (supported: 0 and n >= 3)")
    _check_degree(n, MAX_POLY_DEGREE, "modified Hermite")
    x = np.asarray(x, dtype=float)
    if n == 0:
        return _as_value(np.ones_like(x))
    out = np.asarray(hermite_eval(n, x)) + 4.0 * n * np.asarray(hermite_eval(n - 2, x))
    if n > 3:
        out = out + 4.0 * n * (n - 3) * np.asarray(hermite_eval(n - 4, x))
    return _as_value(out)


_LOG_FACTORIALS = [math.log(math.factorial(k)) for k in range(MAX_FACTORIAL_ARG + 1)]


def log_factorial_value(n: int) -> float:
    """Natural log of n! (exact-integer based for n <= 128, lgamma beyond)."""
    if n < 0:
        raise ValueError(f"factorial argument must be nonnegative, got {n}")
    if n <= MAX_FACTORIAL_ARG:
        return _LOG_FACTORIALS[n]
    return math.lgamma(n + 1)


def signed_log_sum(entries) -> complex:
    """Sum of terms given as (log_magnitude, unit_phase) pairs.

    The accumulation factors out the largest magnitude first, so individual
    terms may exceed the double range as long as the final sum does not.
    """
    entries = [(lm, ph) for lm, ph in entries if lm != -math.inf and ph != 0]
    if not entries:
        return 0.0 + 0.0j
    top = max(lm for lm, _ in entries)
    acc = 0.0 + 0.0j
    for lm, ph in entries:
        acc += math.exp(lm - top) * ph
    if acc == 0:
        return 0.0 + 0.0j
    log_total = top + math.log(abs(acc))
    if log_total > _LOG_DBL_MAX:
        raise ValueError(f"sum magnitude exp({log_total:.1f}) exceeds the double range")
    return math.exp(top) * acc


def log_sum(logs) -> float:
    """Sum of positive terms given as their logs: the real part of
    ``signed_log_sum`` with every phase 1, bit for bit, in real arithmetic."""
    logs = [lm for lm in logs if lm != -math.inf]
    if not logs:
        return 0.0
    top = max(logs)
    acc = 0.0
    for lm in logs:
        acc += math.exp(lm - top)
    log_total = top + math.log(acc)
    if log_total > _LOG_DBL_MAX:
        raise ValueError(f"sum magnitude exp({log_total:.1f}) exceeds the double range")
    return math.exp(top) * acc
