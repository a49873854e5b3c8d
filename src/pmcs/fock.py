"""Truncated Fock-space linear algebra: the brute-force oracle.

Everything here acts on the logical ladder n = 0, 1, 2, ...; the physical
oscillator level it labels is n + BASIS_OFFSET (offset 3: the potential's
levels 1 and 2 are excluded and its detached ground state sits below the
ladder, bookkeeping that only matters in the position-space layer).

One representation: a vector is a complex row of levels, an operator a
square complex array.  Sweeps work on blocks of rows (the ``*_rows``
kernels); ``coherent_state`` and ``apply_superposed_power`` are one-row
calls of them, and these and the dense references return read-only arrays.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError
from .specfun import log_factorial_value
from .weyl import ModulationParams

DIM_CAP = 256
BASIS_OFFSET = 3
TAIL_TOL = 1e-12
GRID_ROWS = 64  # rows per array pass: bounds a block's working set at 64 x 256 levels
_HALF_LOG_FACTORIALS = 0.5 * np.array([log_factorial_value(k) for k in range(DIM_CAP)])
_ROOTS = np.sqrt(np.arange(1, DIM_CAP, dtype=float))
_LOW, _HIGH = np.s_[..., :-1], np.s_[..., 1:]  # levels 0..d-2 and 1..d-1 of a row
_NON_FINITE = "amplitudes must be finite"
_ZERO_NORM = "cannot normalize the zero vector"


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _tail_fractions(weights: np.ndarray, own: list[int] | None = None) -> list[float]:
    """Per row: fraction of its weight carried by the top 10% of its levels,
    row i's first own[i] levels where ``own`` is given."""
    if own is not None:
        return [_tail_fraction(weights[i, :dim]) for i, dim in enumerate(own)]
    totals = weights.sum(axis=1).tolist()
    tails = weights[:, -max(1, weights.shape[1] // 10):].sum(axis=1).tolist()
    return [0.0 if total <= 0.0 else tail / total for tail, total in zip(tails, totals)]


def _tail_fraction(weights: np.ndarray) -> float:
    """Fraction of total weight carried by the top 10% of levels: one row of
    ``_tail_fractions``, whose row sums a 1-D sum repeats bit for bit."""
    total = float(weights.sum())
    return 0.0 if total <= 0.0 else float(weights[-max(1, weights.size // 10):].sum()) / total


def _norms_sq(amps: np.ndarray, own: list[int] | None = None) -> list[float]:
    """<v|v> of each row (of its first own[i] levels where ``own`` is
    given), by the row's own vdot."""
    rows = amps if own is None else (row[:dim] for row, dim in zip(amps, own))
    return [float(np.vdot(row, row).real) for row in rows]


def _check_dim(dim: int, minimum: int = 2) -> None:
    if dim < minimum:
        raise ValueError(f"dimension {dim} below the minimum {minimum}")
    if dim > DIM_CAP:
        raise ValueError(f"dimension {dim} exceeds the level cap {DIM_CAP}")


def _modulus(z: complex) -> float:
    """abs(z), or inf where the modulus of a finite z leaves the double range
    (abs raises OverflowError there)."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def default_dim(zeta: complex, n_power: int = 0) -> int:
    """Poisson-tail bound for the coherent occupation plus creation headroom."""
    r = _modulus(zeta)
    mean = r * r
    if mean >= DIM_CAP:
        return DIM_CAP
    return min(math.ceil(mean + 10.0 * math.sqrt(mean + 1.0)) + 4 * n_power + 16, DIM_CAP)


@lru_cache(maxsize=None)
def _ladder_matrix(dim: int) -> np.ndarray:
    a = np.zeros((dim, dim), dtype=complex)
    for n in range(1, dim):
        a[n - 1, n] = math.sqrt(n)
    a.setflags(write=False)
    return a


def coherent_rows(zetas, width: int, own: list[int] | None = None) -> tuple[np.ndarray, list[float], list]:
    """``coherent_state`` for each z, as rows of ``width`` levels (row i's
    first own[i], 4 <= own[i] <= width, where ``own`` is given, zeros above):
    (amplitudes, tail masses, errors), errors[i] being the exception of row i
    or None.  Per-row scalars are Python floats and row reductions are the
    row's own, so a row does not depend on the others."""
    _check_dim(width, minimum=4)
    zetas = [complex(z) for z in zetas]
    row_dims = own or [width] * len(zetas)
    errors: list = [None if cmath.isfinite(z) else ValueError(_NON_FINITE) for z in zetas]
    logs, halves, turns = [], [], []
    for i, z in enumerate(zetas):
        if errors[i] is None and _modulus(z) == math.inf:
            errors[i] = ConvergenceError(
                f"coherent state |zeta| overflows the double range (zeta={z}): "
                "its occupation lies above every truncation"
            )
        z = z if errors[i] is None else 0j  # a refused z stays out of the array arithmetic
        r = abs(z)
        logs.append(math.log(r) if z else 0.0)
        halves.append(r * r / 2.0)
        turns.append(1j * math.atan2(z.imag, z.real))  # cmath.phase raises when the angle underflows
    n = np.arange(width)
    log_mag = np.array(logs)[:, None] * n - _HALF_LOG_FACTORIALS[:width]
    log_mag -= np.array(halves)[:, None]
    amp = np.exp(np.maximum(log_mag, -745.0)) * np.exp(np.array(turns)[:, None] * n)
    amp[log_mag < -745.0] = 0.0
    if own is not None:
        amp[n >= np.array(own)[:, None]] = 0.0
    nonzero = amp.any(axis=1).tolist()
    for i, z in enumerate(zetas):
        if errors[i] is not None:
            amp[i] = 0.0
        elif not z:
            amp[i] = 0.0
            amp[i, 0] = 1.0
        elif not nonzero[i]:
            errors[i] = ConvergenceError(
                f"coherent state |zeta|={abs(z):.3g} underflows at every level of dim {row_dims[i]}: "
                "its occupation lies above the truncation"
            )
    nsq = _norms_sq(amp, own)
    amp, _ = normalize_rows(amp, nsq, errors)
    tails = _tail_fractions(np.abs(amp) ** 2, own)
    for i, tail in enumerate(tails):
        if errors[i] is None and not tail < TAIL_TOL:
            errors[i] = ConvergenceError(
                f"coherent state |zeta|={abs(zetas[i]):.3g} not converged at dim {row_dims[i]}: "
                f"tail mass {tail:.3e} >= {TAIL_TOL:.0e}"
            )
    return amp, tails, errors


def normalize_rows(amps: np.ndarray, nsq: list[float], errors: list) -> tuple[np.ndarray, np.ndarray]:
    """Each row over its norm, and the norms as a column, given the rows'
    squared norms.  A row of norm 0 without an error gets the zero-vector
    ValueError in ``errors`` and stays 0."""
    for i, norm_sq in enumerate(nsq):
        if errors[i] is None and norm_sq == 0.0:
            errors[i] = ValueError(_ZERO_NORM)
    norms = np.array([math.sqrt(v) or 1.0 for v in nsq])[:, None]
    return amps / norms, norms


def coherent_state(zeta: complex, dim: int) -> tuple[np.ndarray, float]:
    """Truncated coherent vector exp(-|z|^2/2) sum_n z^n/sqrt(n!) |n>,
    renormalized, and the tail mass its top 10% of levels carry.

    Raises ConvergenceError when that tail mass is >= TAIL_TOL.  A one-row
    call of ``coherent_rows``.
    """
    amps, tails, (error,) = coherent_rows([zeta], dim)
    if error is not None:
        raise error
    return _read_only(amps[0]), tails[0]


def superposed_power_rows(
    params: ModulationParams, amps: np.ndarray, shifts, own: list[int] | None = None
) -> tuple[np.ndarray, list[float], list]:
    """``apply_superposed_power`` on each row of ``amps`` (rows x width), row
    i shifted by shifts[i] and, given ``own``, holding own[i] levels and
    zeros above them: (amplitudes, squared norms, errors), errors[i] being
    the exception of row i or None: a ValueError where N exceeds a quarter
    of the row's levels, a ConvergenceError where the squared norm overflows
    the double range or the row's top decile holds TAIL_TOL of the mass.
    """
    rows, width = amps.shape
    row_dims = own or [width] * rows
    need = f"power N={params.N} needs dim >= {4 * params.N}, got "
    errors: list = [ValueError(f"{need}{dim}") if params.N > dim // 4 else None for dim in row_dims]
    if params.N == 0:
        return amps, _norms_sq(amps, own), errors
    root = _ROOTS[:width - 1]  # sqrt(n) for n = 1 .. width-1
    down, up = params.mu * root, params.nu * root
    moving = [i for i, shift in enumerate(shifts) if shift]
    column = np.array([shifts[i] for i in moving], dtype=complex)[:, None]
    # Flat indices zeroed in each update: every row's own top level and last
    # level before its creation part, each padded row's first padding level after.
    starts = range(0, rows * width, width)
    tops = np.array([(start + dim - 1, start + width - 1) for start, dim in zip(starts, row_dims)], dtype=np.intp)
    above = np.array([start + dim for start, dim in zip(starts, row_dims) if dim < width], dtype=np.intp)
    buffers = [np.empty((rows, width), dtype=complex) for _ in range(min(params.N, 2))]
    amp = amps  # rebound to each update's result, the two buffers in turn
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        for step in range(params.N):
            nxt = buffers[step % 2]
            np.multiply(down, amp[_HIGH], out=nxt[_LOW])
            nxt.put(tops, 0.0)  # +0, as without padding: mu times a padding 0 can be -0
            nxt[_HIGH] += up * amp[_LOW]
            if len(moving) == rows:
                nxt += column * amp
            elif moving:
                nxt[moving] += column * amp[moving]
            nxt.put(above, 0.0)  # the padding stays 0
            amp = nxt
    nsq = _norms_sq(amp, own)
    for i, norm_sq in enumerate(nsq):  # the rows come in finite: a non-finite norm has overflowed
        if not math.isfinite(norm_sq):
            errors[i] = errors[i] or ConvergenceError(
                f"superposed power overflows the double range at dim {row_dims[i]}: squared norm {norm_sq}"
            )
            amp[i] = 0.0
            nsq[i] = 0.0
    tails = _tail_fractions(np.abs(amp) ** 2, own)
    for i, tail in enumerate(tails):
        if errors[i] is None and nsq[i] > 0.0 and tail >= TAIL_TOL:
            errors[i] = ConvergenceError(
                f"superposed power pushed {tail:.3e} of the mass into the "
                f"top decile at dim {row_dims[i]}; increase the dimension"
            )
    return amp, nsq, errors


def apply_superposed_power(params: ModulationParams, vec: np.ndarray, shift: complex = 0) -> np.ndarray:
    """(mu a + nu a† + shift)^N applied as N banded updates; unnormalized.

    Each update is the truncated mat-vec mu sqrt(n+1) c_{n+1} + nu sqrt(n)
    c_{n-1} + shift c_n (the last term only for a nonzero shift).  Requires
    N <= dim/4 of creation headroom and checks that the result keeps the top
    decile of levels numerically empty.  A one-row call of
    ``superposed_power_rows``.
    """
    amps, _, (error,) = superposed_power_rows(params, vec[None, :], [shift])
    if error is not None:
        raise error
    return _read_only(amps[0])


@lru_cache(maxsize=8)
def _unit_displacement_eig(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of the Hermitian generator -i(a† - a)."""
    a = _ladder_matrix(dim)
    h = -1j * (a.conj().T - a)
    evals, evecs = np.linalg.eigh(h)
    evals.setflags(write=False)
    evecs.setflags(write=False)
    return evals, evecs


def displacement(gamma: complex, dim: int) -> np.ndarray:
    """exp(gamma a† - gamma* a) through the eigendecomposition of its
    (phase-rotated) Hermitian generator.  gamma = 0 gives the identity exactly.

    A dense d x d reference for tests; the quasi-probability oracle works in
    the displaced frame instead and never forms this matrix.
    """
    _check_dim(dim)
    gamma = complex(gamma)
    if gamma == 0:
        return _read_only(np.eye(dim, dtype=complex))
    r = abs(gamma)
    phi = math.atan2(gamma.imag, gamma.real)
    evals, evecs = _unit_displacement_eig(dim)
    core = (evecs * np.exp(1j * r * evals)) @ evecs.conj().T
    if phi != 0.0:
        phases = np.exp(1j * phi * np.arange(dim))
        core = (phases[:, None] * core) * phases.conj()[None, :]
    if not np.all(np.isfinite(core)):
        raise ConvergenceError(f"displacement exponential failed for gamma={gamma}")
    return _read_only(core)


def expectation(op: np.ndarray, vec: np.ndarray) -> complex:
    """<v|M|v> for a normalized vector."""
    if op.shape != (vec.size, vec.size):
        raise ValueError("dimension mismatch")
    return complex(np.vdot(vec, op @ vec))


def trace_rows(summands: np.ndarray, context, magnitudes: np.ndarray | None = None) -> tuple[np.ndarray, list]:
    """Sum of each row of a truncated trace's per-level summand t_n: (sums,
    errors), errors[i] being the exception of row i or None.

    Row i is refused with a ConvergenceError (carrying context(i), the text
    that names the row, asked for refused rows only) when its
    top decile of levels carries more than 1e-10 of |sum t_n|, or when its
    ``magnitudes`` (default |t_n|; a larger bound where the t_n came out of
    cancelling sums) add up to more than 1e3 max(|sum t_n|, 1): rounding
    then ate three digits.  For a summand of one sign only the top-decile
    fraction test remains.
    """
    totals = summands.sum(axis=1)
    mags = np.abs(summands)
    tails = mags[:, -max(1, mags.shape[1] // 10):].sum(axis=1)
    sizes = (mags if magnitudes is None else magnitudes).sum(axis=1)

    def where(i: int) -> str:
        text = context(i)
        return f"at dim {mags.shape[1]}" + (f" ({text})" if text else "")

    errors: list = []
    for i, (total, tail, size) in enumerate(zip(totals.tolist(), tails.tolist(), sizes.tolist())):
        error = None
        if not tail <= 1e-10 * abs(total):
            frac = tail / abs(total) if total else math.inf
            error = ConvergenceError(f"trace summand does not decay {where(i)}: top-decile fraction {frac:.3e}")
        elif size > 1e3 * max(abs(total), 1.0):
            error = ConvergenceError(f"trace summand cancels {where(i)}: |sum| {abs(total):.3e}, size {size:.3e}")
        errors.append(error)
    return totals, errors


def density_and_trace(vec: np.ndarray, op: np.ndarray, context: str = "") -> complex:
    """Tr[|v><v| M] = <v|M|v> as the one-row ``trace_rows`` sum of the
    per-level summand t_n = conj(v_n) (M v)_n, raising its error.

    The dense reference that tests hold the quasi-probability oracle against.
    """
    if op.shape != (vec.size, vec.size):
        raise ValueError("dimension mismatch")
    totals, (error,) = trace_rows((vec.conj() * (op @ vec))[None, :], lambda _: context)
    if error is not None:
        raise error
    return complex(totals[0])
