"""References for the tests: dense d x d ladder, number, identity and
exp(-lam n̂) matrices, a normal-ordered series rebuilt as a matrix, the
closed-form Laguerre sum one order shift per lattice walk, the lattice as
(k, l) terms with the Weyl series and the closed-form fidelity worked out
from k and l per term, a state and a sweep built one point at a time, the
oracle moments and squeezing identities with their level weights rebuilt per
call, and a CSV/JSON rendering with one record and one format call per cell.

The program works with banded contractions and never forms these matrices,
it sums every order shift in one walk, it stores each lattice term with its
monomial powers, it builds a sweep line's states in one padded pass, it
slices import-time level tables and it formats a point's leading CSV cells
once; the tests hold its results against these references.
"""

import cmath
import csv
import io
import itertools
import json
import math
import sys

import numpy as np

from pmcs import fock, states, sweeps, weyl
from pmcs.errors import ConvergenceError, DegenerateStateError, outcome
from pmcs.specfun import laguerre_table, log_factorial_value, log_sum, signed_log_sum


def ladder_ops(dim: int) -> tuple[fock.FockOperator, fock.FockOperator]:
    """Annihilation and creation matrices: <m|a|n> = sqrt(n) delta_{m,n-1}."""
    fock._check_dim(dim)
    a = fock._ladder_matrix(dim)
    return fock.FockOperator(a), fock.FockOperator(a.conj().T)


def number_operator(dim: int) -> fock.FockOperator:
    fock._check_dim(dim)
    return fock.FockOperator(np.diag(np.arange(dim, dtype=float)).astype(complex))


def identity(dim: int) -> fock.FockOperator:
    fock._check_dim(dim)
    return fock.FockOperator(np.eye(dim, dtype=complex))


def operator_exp_number(lam: complex, dim: int) -> fock.FockOperator:
    """Diagonal operator exp(-lam * n̂) = diag(exp(-lam n))."""
    fock._check_dim(dim)
    lam = complex(lam)
    top = -lam.real * (dim - 1)
    if top > math.log(np.finfo(float).max):
        raise ValueError(f"exp(-lam n) overflows the double range at n={dim - 1} for lam={lam}")
    diag = np.exp(-lam * np.arange(dim))
    return fock.FockOperator(np.diag(diag))


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
    return fock.FockOperator(mat)


def laguerre_sum_one_shift(params, r2: float, shift: int) -> float:
    """The closed-form lattice sum with the (N-k-l+shift)! L_{N-k-l+shift}(-r2)
    factor for one shift, from its own Laguerre row in its own walk."""
    log_r2 = math.log(r2) if r2 else -math.inf
    lag = laguerre_table(params.N + shift, -r2)
    entries = []
    for log_t2, power, order in weyl._lattice(params):
        order += shift
        log_power = power * log_r2 if power else 0.0
        entries.append((log_t2 + (log_power + log_factorial_value(order) + math.log(lag[order])), 1.0))
    return signed_log_sum(entries).real


def lattice_kl(params) -> list:
    """The lattice as (k, l, log |t_kl|^2) terms in (k, l) order, uncached, by
    the arithmetic ``weyl._lattice_table`` applies to each term."""
    abs_mu, abs_nu, n_pow = abs(params.mu), abs(params.nu), params.N
    log_mu2 = 2.0 * math.log(abs_mu) if abs_mu else -math.inf
    log_nu2 = 2.0 * math.log(abs_nu) if abs_nu else -math.inf
    lf = log_factorial_value
    base = 2.0 * lf(n_pow)
    return [
        (k, l, (
            base + (k * log_mu2 if k else 0.0) + ((n_pow - k) * log_nu2 if n_pow - k else 0.0)
            - l * math.log(4.0) - 2.0 * (lf(l) + lf(k - l) + lf(n_pow - k - l))
        ))
        for k in range(0 if abs_nu else n_pow, (n_pow if abs_mu else 0) + 1)
        for l in range(min(n_pow - k, k) + 1)
    ]


def superposed_power_kl(params) -> weyl.NormalOrderedSeries:
    """``weyl.expand_superposed_power`` by a (k, l) walk of ``lattice_kl``,
    each term's powers and phase worked out from k and l."""
    arg_mu = math.atan2(params.mu.imag, params.mu.real)
    arg_nu = math.atan2(params.nu.imag, params.nu.real)
    n_pow = params.N
    return weyl.NormalOrderedSeries({
        (n_pow - k - l, k - l): signed_log_sum(
            [(0.5 * log_t2, cmath.exp(1j * (k * arg_mu + (n_pow - k) * arg_nu)))]
        )
        for k, l, log_t2 in lattice_kl(params)
    })


def fidelity_paper_kl(params, zeta: complex, norm_sq: float) -> float:
    """``nonclassical.fidelity_paper`` by a (k, l) walk of ``lattice_kl``,
    the power of |zeta|^2 worked out as N - 2l."""
    r2 = abs(complex(zeta)) ** 2
    log_r2 = math.log(r2) if r2 else -math.inf
    logs = []
    for _, l, log_t2 in lattice_kl(params):
        power = params.N - 2 * l
        logs.append(log_t2 + (power * log_r2 if power else 0.0))
    return log_sum(logs) / norm_sq


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
    nsq_oracle = float(np.vdot(raw.amplitudes, raw.amplitudes).real)
    if not nsq_oracle >= sys.float_info.min:
        raise DegenerateStateError(
            f"(mu a + nu a†)^{params.N} |zeta={zeta}> has squared norm {nsq_oracle:.3g}: "
            "the operator annihilates the input, or the norm underflows the double range"
        )
    nsq_paper = states.paper_norm_sq(params, zeta)
    amps, _ = fock.normalize_rows(raw.amplitudes[None, :], [nsq_oracle], [None])
    vec = fock.FockVector(amps[0])
    return states.PMCState(
        params=params, zeta=zeta, amplitudes=vec.amplitudes,
        norm_sq_paper=nsq_paper, norm_sq_oracle=nsq_oracle,
        discrepancy=abs(nsq_paper - nsq_oracle) / nsq_oracle,
        tail_mass=fock._tail_fraction(np.abs(vec.amplitudes) ** 2),
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


def _check_moment_headroom(pop: np.ndarray, power: int, what: str) -> None:
    weighted = np.arange(pop.size, dtype=float) ** power * pop
    if fock._tail_fraction(weighted) >= 1e-10:
        raise ConvergenceError(f"{what} weight leaks into the top decile at dim {pop.size}")


def moments_oracle(state: states.PMCState) -> tuple[float, float, float, float]:
    """``nonclassical.moments_oracle`` with its falling factorials rebuilt
    per call from ``arange`` and products."""
    pop = np.abs(state.amplitudes) ** 2
    _check_moment_headroom(pop, 4, "fourth-moment")
    n = np.arange(pop.size, dtype=float)
    falling = np.ones_like(n)
    m = []
    for j in (1, 2, 3, 4):
        falling = falling * (n - (j - 1))
        m.append(float(np.dot(falling, pop)))
    return tuple(m)


def squeezing_identities(state: states.PMCState) -> tuple[float, float]:
    """``nonclassical.squeezing_identities`` with its level weights n^2,
    sqrt(n), sqrt(n(n-1)) and n rebuilt per call."""
    c = state.amplitudes
    _check_moment_headroom(np.abs(c) ** 2, 2, "second-moment")
    n = np.arange(c.size, dtype=float)
    ea = complex(np.vdot(c[:-1], np.sqrt(n[1:]) * c[1:]))
    ea2 = complex(np.vdot(c[:-2], np.sqrt(n[2:] * n[1:-1]) * c[2:]))
    en = float(np.dot(n, np.abs(c) ** 2))
    ead, ead2 = ea.conjugate(), ea2.conjugate()
    i1 = ea2 + ead2 - ea**2 - ead**2 - 2.0 * ea * ead + 2.0 * en
    i2 = -ea2 - ead2 + ea**2 + ead**2 - 2.0 * ea * ead + 2.0 * en
    return i1.real, i2.real


def _record(row: sweeps.SweepRow, family: str) -> dict:
    gamma = row.gamma
    parts = {
        "mu_re": row.mu.real, "mu_im": row.mu.imag,
        "nu_re": row.nu.real, "nu_im": row.nu.imag,
        "gamma_re": None if gamma is None else gamma.real,
        "gamma_im": None if gamma is None else gamma.imag,
    }
    return {col: parts[col] if col in parts else getattr(row, col) for col in sweeps.columns_for(family)}


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".17g")


def reference_render(rows: list, family: str, fmt: str) -> str:
    """``sweeps.render`` from one column-keyed record per row and one
    ``_fmt`` call per cell, nothing shared between rows."""
    cols = sweeps.columns_for(family)
    if fmt == "json":
        return json.dumps([_record(row, family) for row in rows], indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cols)
    for row in rows:
        rec = _record(row, family)
        writer.writerow([_fmt(rec[c]) for c in cols])
    return buf.getvalue()
