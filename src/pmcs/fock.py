"""Truncated Fock-space linear algebra: the brute-force oracle.

Everything here acts on the logical ladder n = 0, 1, 2, ...; the physical
oscillator level it labels is n + basis_offset (offset 3: the potential's
levels 1 and 2 are excluded and its detached ground state sits below the
ladder, bookkeeping that only matters in the position-space layer).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConvergenceError
from .specfun import log_factorial_value

if TYPE_CHECKING:  # pragma: no cover
    from .weyl import ModulationParams

DIM_CAP = 256
TAIL_TOL = 1e-12
_LOG_FACTORIALS = np.array([log_factorial_value(k) for k in range(DIM_CAP)])


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=complex)
    out.setflags(write=False)
    return out


def _tail_fraction(weights: np.ndarray) -> float:
    """Fraction of total weight carried by the top 10% of levels."""
    total = float(np.sum(weights))
    if total <= 0.0:
        return 0.0
    k = max(1, len(weights) // 10)
    return float(np.sum(weights[-k:])) / total


@dataclass(frozen=True, eq=False)
class FockVector:
    """Truncated state vector on the logical ladder."""

    amplitudes: np.ndarray
    basis_offset: int = 3

    def __post_init__(self):
        amp = _freeze(self.amplitudes)
        if amp.ndim != 1 or amp.size < 4:
            raise ValueError("a Fock vector needs at least 4 levels")
        if not np.all(np.isfinite(amp)):
            raise ValueError("amplitudes must be finite")
        object.__setattr__(self, "amplitudes", amp)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def norm_sq(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def normalized(self) -> "FockVector":
        norm = math.sqrt(self.norm_sq())
        if norm == 0.0:
            raise ValueError("cannot normalize the zero vector")
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


@dataclass(frozen=True)
class TruncationReport:
    dimension: int
    tail_mass: float
    converged: bool = field(default=False)


def _check_dim(dim: int, minimum: int = 2) -> None:
    if dim < minimum:
        raise ValueError(f"dimension {dim} below the minimum {minimum}")
    if dim > DIM_CAP:
        raise ValueError(f"dimension {dim} exceeds the dense cap {DIM_CAP}")


def default_dim(zeta: complex, n_power: int = 0) -> int:
    """Poisson-tail bound for the coherent occupation plus creation headroom."""
    mean = abs(zeta) * abs(zeta)  # inf, not OverflowError, for huge |zeta|
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


def ladder_ops(dim: int) -> tuple[FockOperator, FockOperator]:
    """Annihilation and creation matrices: <m|a|n> = sqrt(n) delta_{m,n-1}."""
    _check_dim(dim)
    a = _ladder_matrix(dim)
    return FockOperator(a, label="a"), FockOperator(a.conj().T, label="a†")


def number_operator(dim: int) -> FockOperator:
    _check_dim(dim)
    return FockOperator(np.diag(np.arange(dim, dtype=float)).astype(complex), label="n")


def identity(dim: int) -> FockOperator:
    _check_dim(dim)
    return FockOperator(np.eye(dim, dtype=complex), label="I")


def coherent_state(zeta: complex, dim: int, tol: float = TAIL_TOL) -> tuple[FockVector, TruncationReport]:
    """Truncated coherent vector exp(-|z|^2/2) sum_n z^n/sqrt(n!) |n>, renormalized.

    Raises ConvergenceError when the top 10% of levels carry >= tol mass.
    """
    _check_dim(dim, minimum=4)
    zeta = complex(zeta)
    if zeta == 0:
        amp = np.zeros(dim, dtype=complex)
        amp[0] = 1.0
    else:
        n = np.arange(dim)
        log_mag = n * math.log(abs(zeta)) - 0.5 * _LOG_FACTORIALS[:dim]
        log_mag -= abs(zeta) * abs(zeta) / 2.0
        phase = math.atan2(zeta.imag, zeta.real)  # cmath.phase raises when the angle underflows
        amp = np.exp(np.maximum(log_mag, -745.0)) * np.exp(1j * phase * n)
        amp[log_mag < -745.0] = 0.0
        if not np.any(amp):
            raise ConvergenceError(
                f"coherent state |zeta|={abs(zeta):.3g} underflows at every level of dim {dim}: "
                "its occupation lies above the truncation"
            )
    vec = FockVector(amp).normalized()
    tail = vec.tail_mass()
    report = TruncationReport(dimension=dim, tail_mass=tail, converged=tail < tol)
    if not report.converged:
        raise ConvergenceError(
            f"coherent state |zeta|={abs(zeta):.3g} not converged at dim {dim}: "
            f"tail mass {tail:.3e} >= {tol:.0e}"
        )
    return vec, report


def apply_superposed_power(params: "ModulationParams", vec: FockVector, shift: complex = 0) -> FockVector:
    """(mu a + nu a† + shift)^N applied as N banded updates; unnormalized.

    Each update is the truncated mat-vec mu sqrt(n+1) c_{n+1} + nu sqrt(n)
    c_{n-1} + shift c_n (the last term only for a nonzero shift).  Requires
    N <= dim/4 of creation headroom and checks that the result keeps the top
    decile of levels numerically empty.
    """
    dim = vec.dim
    if params.N > dim // 4:
        raise ValueError(f"power N={params.N} needs dim >= {4 * params.N}, got {dim}")
    if params.N == 0:
        return vec
    root = np.sqrt(np.arange(1, dim, dtype=float))  # sqrt(n) for n = 1 .. dim-1
    down, up = params.mu * root, params.nu * root
    amp = vec.amplitudes
    for _ in range(params.N):
        nxt = np.zeros(dim, dtype=complex)
        nxt[:-1] = down * amp[1:]
        nxt[1:] += up * amp[:-1]
        if shift:
            nxt += shift * amp
        amp = nxt
    out = FockVector(amp, vec.basis_offset)
    nsq = out.norm_sq()
    if nsq > 0.0 and out.tail_mass() >= TAIL_TOL:
        raise ConvergenceError(
            f"superposed power pushed {out.tail_mass():.3e} of the mass into the "
            f"top decile at dim {dim}; increase the dimension"
        )
    return out


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


def operator_exp_number(lam: complex, dim: int) -> FockOperator:
    """Diagonal operator exp(-lam * n̂) = diag(exp(-lam n))."""
    _check_dim(dim)
    lam = complex(lam)
    top = -lam.real * (dim - 1)
    if top > math.log(np.finfo(float).max):
        raise ValueError(f"exp(-lam n) overflows the double range at n={dim - 1} for lam={lam}")
    diag = np.exp(-lam * np.arange(dim))
    return FockOperator(np.diag(diag), label=f"exp(-{lam:.6g}·n)")


def trace_sum(summand: np.ndarray, context: str = "", magnitudes: np.ndarray | None = None) -> complex:
    """Sum of a truncated trace's per-level summand t_n, or ConvergenceError
    (carrying ``context``) when the top decile of levels carries more than
    1e-10 of |sum t_n|, or when the ``magnitudes`` (default |t_n|; a larger
    bound where the t_n came out of cancelling sums) add up to more than
    1e3 max(|sum t_n|, 1): rounding then ate three digits.  For a summand of
    one sign only the top-decile fraction test remains.
    """
    total = complex(np.sum(summand))
    mags = np.abs(summand)
    tail = float(np.sum(mags[-max(1, mags.size // 10):]))
    where = f"at dim {mags.size}" + (f" ({context})" if context else "")
    if not tail <= 1e-10 * abs(total):
        frac = tail / abs(total) if total else math.inf
        raise ConvergenceError(f"trace summand does not decay {where}: top-decile fraction {frac:.3e}")
    size = float(np.sum(mags if magnitudes is None else magnitudes))
    if size > 1e3 * max(abs(total), 1.0):
        raise ConvergenceError(f"trace summand cancels {where}: |sum| {abs(total):.3e}, size {size:.3e}")
    return total


def density_and_trace(vec: FockVector, op: FockOperator, context: str = "") -> complex:
    """Tr[|v><v| M] = <v|M|v> as the ``trace_sum`` of the per-level summand
    t_n = conj(v_n) (M v)_n.

    The dense reference that tests hold the quasi-probability oracle against.
    """
    if op.dim != vec.dim:
        raise ValueError("dimension mismatch")
    return trace_sum(vec.amplitudes.conj() * (op.matrix @ vec.amplitudes), context)
