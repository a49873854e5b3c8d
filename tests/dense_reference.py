"""References for the tests: dense d x d ladder, number, identity and
exp(-lam n̂) matrices, a normal-ordered series rebuilt as a matrix, the
closed-form Laguerre sum one order shift per lattice walk, and a state and
a sweep built one point at a time.

The program works with banded contractions and never forms these matrices,
it sums every order shift in one walk, and it builds a sweep line's states
in one padded pass; the tests hold its results against these references.
"""

import cmath
import itertools
import math
import sys

import numpy as np

from pmcs import fock, states, sweeps, weyl
from pmcs.errors import DegenerateStateError, outcome
from pmcs.specfun import laguerre_table, log_factorial_value, signed_log_sum


def ladder_ops(dim: int) -> tuple[fock.FockOperator, fock.FockOperator]:
    """Annihilation and creation matrices: <m|a|n> = sqrt(n) delta_{m,n-1}."""
    fock._check_dim(dim)
    a = fock._ladder_matrix(dim)
    return fock.FockOperator(a, label="a"), fock.FockOperator(a.conj().T, label="a†")


def number_operator(dim: int) -> fock.FockOperator:
    fock._check_dim(dim)
    return fock.FockOperator(np.diag(np.arange(dim, dtype=float)).astype(complex), label="n")


def identity(dim: int) -> fock.FockOperator:
    fock._check_dim(dim)
    return fock.FockOperator(np.eye(dim, dtype=complex), label="I")


def operator_exp_number(lam: complex, dim: int) -> fock.FockOperator:
    """Diagonal operator exp(-lam * n̂) = diag(exp(-lam n))."""
    fock._check_dim(dim)
    lam = complex(lam)
    top = -lam.real * (dim - 1)
    if top > math.log(np.finfo(float).max):
        raise ValueError(f"exp(-lam n) overflows the double range at n={dim - 1} for lam={lam}")
    diag = np.exp(-lam * np.arange(dim))
    return fock.FockOperator(np.diag(diag), label=f"exp(-{lam:.6g}·n)")


def _ladder_amplitude(level: int, n_low: int, m_up: int) -> float:
    """sqrt(level!/(level-n)!) * sqrt((level-n+m)!/(level-n)!) for the monomial
    a†^m a^n mapping |level> to |level - n + m>; exact for perfect squares."""
    base = level - n_low
    p = math.perm(level, n_low) * math.perm(base + m_up, m_up)
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


def series_to_matrix(series, dim: int) -> fock.FockOperator:
    """Dense matrix of sum c_{m,n} (a†)^m (a)^n on the truncated ladder."""
    max_deg = max((m + n for m, n in series.terms), default=0)
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


def laguerre_sum_one_shift(params, r2: float, shift: int) -> float:
    """The closed-form lattice sum with the (N-k-l+shift)! L_{N-k-l+shift}(-r2)
    factor for one shift, from its own Laguerre row in its own walk."""
    log_r2 = math.log(r2) if r2 else -math.inf
    top = params.N + shift
    lag = laguerre_table(top, -r2)
    entries = []
    for k, l, log_t2 in weyl._lattice(params):
        order = top - k - l
        log_power = (k - l) * log_r2 if k - l else 0.0
        entries.append((log_t2 + (log_power + log_factorial_value(order) + math.log(lag[order])), 1.0))
    return signed_log_sum(entries).real


def one_point_state(params, zeta: complex, dim: int | None = None) -> states.PMCState:
    """normalize((mu a + nu a†)^N coherent(zeta)) from one-row kernel calls
    on a vector of exactly ``dim`` levels (default ``fock.default_dim``),
    raising what refuses it: no padding and no other point in the arrays."""
    zeta = complex(zeta)
    if not cmath.isfinite(zeta):
        raise ValueError(f"zeta must be finite, got {zeta}")
    if dim is None:
        dim = fock.default_dim(zeta, params.N)
    base, _ = fock.coherent_state(zeta, dim)
    raw = fock.apply_superposed_power(params, base)
    nsq_oracle = raw.norm_sq()
    if not nsq_oracle >= sys.float_info.min:
        raise DegenerateStateError(
            f"(mu a + nu a†)^{params.N} |zeta={zeta}> has squared norm {nsq_oracle:.3g}: "
            "the operator annihilates the input, or the norm underflows the double range"
        )
    nsq_paper = states.paper_norm_sq(params, zeta)
    amps, _ = fock.normalize_rows(raw.amplitudes[None, :], [nsq_oracle], [None])
    return states.PMCState(
        params=params, zeta=zeta, vector=fock.FockVector(amps[0], raw.basis_offset),
        norm_sq_paper=nsq_paper, norm_sq_oracle=nsq_oracle,
        discrepancy=abs(nsq_paper - nsq_oracle) / nsq_oracle,
    )


def one_point_sweep(cfg: sweeps.SweepConfig) -> list[sweeps.SweepRow]:
    """``sweeps.run_sweep`` with each state point's state built alone by
    ``one_point_state``, in lexicographic grid order."""
    cfg.validate()
    rows = []
    grid = itertools.product(cfg.mu, cfg.nu, cfg.n_values, cfg.zeta.radii(), cfg.zeta.thetas)
    for mu, nu, n_pow, r, theta in grid:
        zeta = r * cmath.exp(1j * theta)
        dim = cfg.dim_override if cfg.dim_override is not None else fock.default_dim(zeta, n_pow)
        state = outcome(lambda: one_point_state(weyl.ModulationParams(mu, nu, n_pow), zeta, dim))
        rows.extend(sweeps._point_rows(cfg, mu, nu, n_pow, r, theta, dim, state))
    return rows
