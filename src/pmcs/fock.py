"""Truncated Fock-space linear algebra: the brute-force oracle.

Everything here acts on the logical ladder n = 0, 1, 2, ...; the physical
oscillator level it labels is n + basis_offset (offset 3: the potential's
levels 1 and 2 are excluded and its detached ground state sits below the
ladder, bookkeeping that only matters in the position-space layer).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError
from .specfun import log_factorial_value
from .weyl import ModulationParams

DIM_CAP = 256
TAIL_TOL = 1e-12
_HALF_LOG_FACTORIALS = 0.5 * np.array([log_factorial_value(k) for k in range(DIM_CAP)])
_ROOTS = np.sqrt(np.arange(1, DIM_CAP, dtype=float))
_LOW, _HIGH = np.s_[..., :-1], np.s_[..., 1:]  # levels 0..d-2 and 1..d-1 of a row
_NON_FINITE = "amplitudes must be finite"
_ZERO_NORM = "cannot normalize the zero vector"


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=complex)
    out.setflags(write=False)
    return out


def _tail_fractions(weights: np.ndarray) -> list[float]:
    """Per row: fraction of its weight carried by its top 10% of levels."""
    totals = weights.sum(axis=1).tolist()
    tails = weights[:, -max(1, weights.shape[1] // 10):].sum(axis=1).tolist()
    return [0.0 if total <= 0.0 else tail / total for tail, total in zip(tails, totals)]


def _tail_fraction(weights: np.ndarray) -> float:
    """Fraction of total weight carried by the top 10% of levels."""
    return _tail_fractions(weights[None, :])[0]


def _norms_sq(amps: np.ndarray) -> list[float]:
    """<v|v> of each row, by the row's own vdot."""
    return [float(np.vdot(row, row).real) for row in amps]


@dataclass(frozen=True, eq=False)
class FockVector:
    """Truncated state vector on the logical ladder."""

    amplitudes: np.ndarray
    basis_offset: int = 3

    def __post_init__(self):
        amp = _freeze(self.amplitudes)
        if amp.ndim != 1 or amp.size < 4:
            raise ValueError("a Fock vector needs at least 4 levels")
        if not np.isfinite(amp).all():
            raise ValueError(_NON_FINITE)
        object.__setattr__(self, "amplitudes", amp)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def norm_sq(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def normalized(self) -> "FockVector":
        norm = math.sqrt(self.norm_sq())
        if norm == 0.0:
            raise ValueError(_ZERO_NORM)
        return FockVector(self.amplitudes / norm, self.basis_offset)

    def tail_mass(self) -> float:
        return _tail_fraction(np.abs(self.amplitudes) ** 2)

    def inner(self, other: "FockVector") -> complex:
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True, eq=False)
class FockOperator:
    """Dense operator matrix with a provenance label."""

    matrix: np.ndarray
    label: str = ""

    def __post_init__(self):
        mat = _freeze(self.matrix)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("operator matrix must be square")
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _check_dim(dim: int, minimum: int = 2) -> None:
    if dim < minimum:
        raise ValueError(f"dimension {dim} below the minimum {minimum}")
    if dim > DIM_CAP:
        raise ValueError(f"dimension {dim} exceeds the dense cap {DIM_CAP}")


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
    dim = math.ceil(mean + 10.0 * math.sqrt(mean + 1.0)) + 4 * n_power + 16
    return min(max(dim, 16), DIM_CAP)


@lru_cache(maxsize=None)
def _ladder_matrix(dim: int) -> np.ndarray:
    a = np.zeros((dim, dim), dtype=complex)
    for n in range(1, dim):
        a[n - 1, n] = math.sqrt(n)
    a.setflags(write=False)
    return a


def coherent_rows(zetas, dim: int) -> tuple[np.ndarray, list[float], list]:
    """``coherent_state`` for each z, as rows: (amplitudes, tail masses,
    errors), errors[i] being the exception of row i or None.  Per-row scalars
    are Python floats and row reductions are the row's own, so a row does not
    depend on the others.
    """
    _check_dim(dim, minimum=4)
    zetas = [complex(z) for z in zetas]
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
    n = np.arange(dim)
    log_mag = np.array(logs)[:, None] * n - _HALF_LOG_FACTORIALS[:dim]
    log_mag -= np.array(halves)[:, None]
    amp = np.exp(np.maximum(log_mag, -745.0)) * np.exp(np.array(turns)[:, None] * n)
    amp[log_mag < -745.0] = 0.0
    for i, z in enumerate(zetas):
        if errors[i] is not None:
            amp[i] = 0.0
        elif not z:
            amp[i] = 0.0
            amp[i, 0] = 1.0
        elif not amp[i].any():
            errors[i] = ConvergenceError(
                f"coherent state |zeta|={abs(z):.3g} underflows at every level of dim {dim}: "
                "its occupation lies above the truncation"
            )
    nsq = _norms_sq(amp)
    amp, _ = normalize_rows(amp, nsq, errors)
    tails = _tail_fractions(np.abs(amp) ** 2)
    for i, tail in enumerate(tails):
        if errors[i] is None and not tail < TAIL_TOL:
            errors[i] = ConvergenceError(
                f"coherent state |zeta|={abs(zetas[i]):.3g} not converged at dim {dim}: "
                f"tail mass {tail:.3e} >= {TAIL_TOL:.0e}"
            )
    return amp, tails, errors


def normalize_rows(amps: np.ndarray, nsq: list[float], errors: list) -> tuple[np.ndarray, np.ndarray]:
    """``FockVector.normalized`` per row: (each row over its norm, the norms
    as a column), given the rows' squared norms.  A row of norm 0 without an
    error gets the zero-vector ValueError in ``errors`` and stays 0."""
    for i, norm_sq in enumerate(nsq):
        if errors[i] is None and norm_sq == 0.0:
            errors[i] = ValueError(_ZERO_NORM)
    norms = np.array([math.sqrt(v) or 1.0 for v in nsq])[:, None]
    return amps / norms, norms


def coherent_state(zeta: complex, dim: int) -> tuple[FockVector, float]:
    """Truncated coherent vector exp(-|z|^2/2) sum_n z^n/sqrt(n!) |n>,
    renormalized, and the tail mass its top 10% of levels carry.

    Raises ConvergenceError when that tail mass is >= TAIL_TOL.  A one-row
    call of ``coherent_rows``.
    """
    amps, tails, (error,) = coherent_rows([zeta], dim)
    if error is not None:
        raise error
    return FockVector(amps[0]), tails[0]


def superposed_power_rows(
    params: ModulationParams, amps: np.ndarray, shifts
) -> tuple[np.ndarray, list[float], list]:
    """``apply_superposed_power`` on each row of ``amps`` (rows x dim), row i
    shifted by shifts[i]: (amplitudes, squared norms, errors), errors[i]
    being the exception of row i or None: a ConvergenceError where the
    squared norm overflows the double range or the top decile of levels
    holds TAIL_TOL of the mass.  N > dim/4 raises for the call.
    """
    rows, dim = amps.shape
    if params.N > dim // 4:
        raise ValueError(f"power N={params.N} needs dim >= {4 * params.N}, got {dim}")
    errors: list = [None] * rows
    if params.N == 0:
        return amps, _norms_sq(amps), errors
    root = _ROOTS[:dim - 1]  # sqrt(n) for n = 1 .. dim-1
    down, up = params.mu * root, params.nu * root
    # one row updates as a 1-D view: 2-D slicing adds ~1 us per update
    amp = amps[0] if rows == 1 else amps
    moving = [i for i, shift in enumerate(shifts) if shift]
    column = np.array([shifts[i] for i in moving], dtype=complex).reshape((-1,) + (1,) * (amp.ndim - 1))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        for _ in range(params.N):
            nxt = np.zeros(amp.shape, dtype=complex)
            np.multiply(down, amp[_HIGH], out=nxt[_LOW])
            nxt[_HIGH] += up * amp[_LOW]
            if len(moving) == rows:
                nxt += column * amp
            elif moving:
                nxt[moving] += column * amp[moving]
            amp = nxt
    amp = amp.reshape(rows, dim)
    nsq = _norms_sq(amp)
    for i, norm_sq in enumerate(nsq):  # the rows come in finite: a non-finite norm has overflowed
        if not math.isfinite(norm_sq):
            errors[i] = ConvergenceError(
                f"superposed power overflows the double range at dim {dim}: squared norm {norm_sq}"
            )
            amp[i] = 0.0
            nsq[i] = 0.0
    tails = _tail_fractions(np.abs(amp) ** 2)
    for i, tail in enumerate(tails):
        if errors[i] is None and nsq[i] > 0.0 and tail >= TAIL_TOL:
            errors[i] = ConvergenceError(
                f"superposed power pushed {tail:.3e} of the mass into the "
                f"top decile at dim {dim}; increase the dimension"
            )
    return amp, nsq, errors


def apply_superposed_power(params: ModulationParams, vec: FockVector, shift: complex = 0) -> FockVector:
    """(mu a + nu a† + shift)^N applied as N banded updates; unnormalized.

    Each update is the truncated mat-vec mu sqrt(n+1) c_{n+1} + nu sqrt(n)
    c_{n-1} + shift c_n (the last term only for a nonzero shift).  Requires
    N <= dim/4 of creation headroom and checks that the result keeps the top
    decile of levels numerically empty.  A one-row call of
    ``superposed_power_rows``.
    """
    amps, _, (error,) = superposed_power_rows(params, vec.amplitudes[None, :], [shift])
    if error is not None:
        raise error
    return FockVector(amps[0], vec.basis_offset) if params.N else vec


@lru_cache(maxsize=8)
def _unit_displacement_eig(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of the Hermitian generator -i(a† - a)."""
    a = _ladder_matrix(dim)
    h = -1j * (a.conj().T - a)
    evals, evecs = np.linalg.eigh(h)
    evals.setflags(write=False)
    evecs.setflags(write=False)
    return evals, evecs


def displacement(gamma: complex, dim: int) -> FockOperator:
    """exp(gamma a† - gamma* a) through the eigendecomposition of its
    (phase-rotated) Hermitian generator.  gamma = 0 gives the identity exactly.

    A dense d x d reference for tests; the quasi-probability oracle works in
    the displaced frame instead and never forms this matrix.
    """
    _check_dim(dim)
    gamma = complex(gamma)
    if gamma == 0:
        return FockOperator(np.eye(dim, dtype=complex), label="D(0)")
    r = abs(gamma)
    phi = math.atan2(gamma.imag, gamma.real)
    evals, evecs = _unit_displacement_eig(dim)
    core = (evecs * np.exp(1j * r * evals)) @ evecs.conj().T
    if phi != 0.0:
        phases = np.exp(1j * phi * np.arange(dim))
        core = (phases[:, None] * core) * phases.conj()[None, :]
    if not np.all(np.isfinite(core)):
        raise ConvergenceError(f"displacement exponential failed for gamma={gamma}")
    return FockOperator(core, label=f"D({gamma:.6g})")


def expectation(op: FockOperator, vec: FockVector) -> complex:
    """<v|M|v> for a normalized vector."""
    if op.dim != vec.dim:
        raise ValueError("dimension mismatch")
    return complex(np.vdot(vec.amplitudes, op.matrix @ vec.amplitudes))


def trace_rows(summands: np.ndarray, contexts, magnitudes: np.ndarray | None = None) -> tuple[np.ndarray, list]:
    """``trace_sum`` of each row of ``summands`` (contexts[i] and row i of
    ``magnitudes`` going with row i): (sums, errors), errors[i] being the
    exception of row i or None."""
    totals = summands.sum(axis=1)
    mags = np.abs(summands)
    tails = mags[:, -max(1, mags.shape[1] // 10):].sum(axis=1)
    sizes = (mags if magnitudes is None else magnitudes).sum(axis=1)
    errors: list = []
    for total, tail, size, context in zip(totals, tails, sizes, contexts):
        total, tail, size = complex(total), float(tail), float(size)
        where = f"at dim {mags.shape[1]}" + (f" ({context})" if context else "")
        error = None
        if not tail <= 1e-10 * abs(total):
            frac = tail / abs(total) if total else math.inf
            error = ConvergenceError(f"trace summand does not decay {where}: top-decile fraction {frac:.3e}")
        elif size > 1e3 * max(abs(total), 1.0):
            error = ConvergenceError(f"trace summand cancels {where}: |sum| {abs(total):.3e}, size {size:.3e}")
        errors.append(error)
    return totals, errors


def trace_sum(summand: np.ndarray, context: str = "", magnitudes: np.ndarray | None = None) -> complex:
    """Sum of a truncated trace's per-level summand t_n, or ConvergenceError
    (carrying ``context``) when the top decile of levels carries more than
    1e-10 of |sum t_n|, or when the ``magnitudes`` (default |t_n|; a larger
    bound where the t_n came out of cancelling sums) add up to more than
    1e3 max(|sum t_n|, 1): rounding then ate three digits.  For a summand of
    one sign only the top-decile fraction test remains.  A one-row call of
    ``trace_rows``.
    """
    totals, (error,) = trace_rows(
        summand[None, :], [context], None if magnitudes is None else magnitudes[None, :]
    )
    if error is not None:
        raise error
    return complex(totals[0])


def density_and_trace(vec: FockVector, op: FockOperator, context: str = "") -> complex:
    """Tr[|v><v| M] = <v|M|v> as the ``trace_sum`` of the per-level summand
    t_n = conj(v_n) (M v)_n.

    The dense reference that tests hold the quasi-probability oracle against.
    """
    if op.dim != vec.dim:
        raise ValueError("dimension mismatch")
    return trace_sum(vec.amplitudes.conj() * (op.matrix @ vec.amplitudes), context)
