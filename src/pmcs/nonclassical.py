"""Non-classicality diagnostics: moment-matrix ratio A3, quadrature squeezing,
the s-parameterized quasi-probability F(gamma, s) and fidelity with the input
coherent state.

Every quantity that has a closed form is implemented twice: the ``*_paper``
path evaluates the closed-form Laguerre sums literally (including their
diagonal-only structure), the oracle path works on the truncated state
vector.  a and a† are one-off-diagonal, so the oracle's moments and
squeezing quantities are O(d) sums over populations |c_n|^2 or neighbouring
amplitudes, equal to the dense truncated-space products; the
quasi-probability is a population sum in the displaced frame, with no d x d
displacement, evaluated for a state point's whole gamma grid in one
row-batched pass (``quasiprob_grid``; ``quasiprob_oracle`` is its one-gamma
case).  The *_paper functions take the closed-form squared norm from
the caller (a sweep reads it from the state it built) instead of walking its
lattice again.  The oracle is authoritative; gaps between the two are data,
not bugs, and are surfaced by the sweep layer.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import fock
from .errors import ConvergenceError, PmcsError
from .specfun import laguerre_table, log_factorial_value
from .states import PMCState, _laguerre_sum
from .weyl import ModulationParams, diagonal_sum, expand_number_power


class UndefinedRatioError(PmcsError, ArithmeticError):
    """det(mu) - det(m) is numerically zero; the A3 ratio is undefined."""

    def __init__(self, det_m: float, det_mu: float):
        super().__init__(
            f"A3 undefined: det_m={det_m:.6e}, det_mu={det_mu:.6e}, "
            f"denominator {det_mu - det_m:.3e}"
        )
        self.det_m = det_m
        self.det_mu = det_mu


@dataclass(frozen=True)
class MomentSet:
    """m_j = <a†^j a^j> and mu_j = <(a†a)^j> for j = 1..4."""

    m: tuple[float, float, float, float]
    mu: tuple[float, float, float, float]
    source: str  # "paper_formula" | "oracle"


@dataclass(frozen=True)
class A3Result:
    det_m: float
    det_mu: float
    a3: float


@dataclass(frozen=True)
class QuasiProbParams:
    gamma: complex
    s: float

    def __post_init__(self):
        object.__setattr__(self, "gamma", complex(self.gamma))
        object.__setattr__(self, "s", float(self.s))


def _real_part(value: complex, what: str, tol: float = 1e-9) -> float:
    if abs(value.imag) > tol * max(1.0, abs(value.real)):
        raise ConvergenceError(f"{what} has non-negligible imaginary part {value.imag:.3e}")
    return value.real


def _populations(vec: fock.FockVector) -> np.ndarray:
    return np.abs(vec.amplitudes) ** 2


def _check_moment_headroom(pop: np.ndarray, power: int, what: str) -> None:
    """Refuse a diagnostic whose n^power-weighted population reaches the top
    decile of levels: there the truncated sums stop approximating the
    untruncated ones."""
    weighted = np.arange(pop.size, dtype=float) ** power * pop
    if fock._tail_fraction(weighted) >= 1e-10:
        raise ConvergenceError(f"{what} weight leaks into the top decile at dim {pop.size}")


def moments_oracle(state: PMCState) -> MomentSet:
    """All eight expectations as sums over the populations p_n = |c_n|^2:

        m_j = sum_n n!/(n-j)! p_n,    mu_j = sum_n n^j p_n

    (a†^j a^j and (a†a)^j are diagonal, also in the truncated space).
    """
    pop = _populations(state.vector)
    _check_moment_headroom(pop, 4, "fourth-moment")
    n = np.arange(pop.size, dtype=float)
    falling = np.ones_like(n)
    power = np.ones_like(n)
    m, mu = [], []
    for j in (1, 2, 3, 4):
        falling = falling * (n - (j - 1))
        power = power * n
        m.append(float(_real_part(np.dot(falling, pop), f"m_{j}")))
        mu.append(float(_real_part(np.dot(power, pop), f"mu_{j}")))
    return MomentSet(m=tuple(m), mu=tuple(mu), source="oracle")


def moments_paper(params: ModulationParams, zeta: complex, norm_sq: float) -> MomentSet:
    """Verbatim closed-form moments, normalized by ``norm_sq`` (the value of
    ``states.paper_norm_sq(params, zeta)``).

    m_j is the Laguerre sum at order shift j, and mu_j = sum_i S(j, i) m_i
    with the exact Stirling numbers of ``weyl.expand_number_power(j)``, the
    normal-ordered form of (a†a)^j.  Both inherit the diagonal-only structure
    of the closed-form norm.  The four m-like sums (shifts 1..4) are the only
    lattice walks.
    """
    r2 = abs(complex(zeta)) ** 2
    m_like = {j: _laguerre_sum(params, r2, j) for j in (1, 2, 3, 4)}
    m = tuple(m_like[j] / norm_sq for j in (1, 2, 3, 4))
    mu = tuple(
        sum(c.real * m_like[i] for (i, _), c in expand_number_power(j).terms.items()) / norm_sq
        for j in (1, 2, 3, 4)
    )
    return MomentSet(m=m, mu=mu, source="paper_formula")


def _det3(mat) -> float:
    return (
        mat[0][0] * (mat[1][1] * mat[2][2] - mat[1][2] * mat[2][1])
        - mat[0][1] * (mat[1][0] * mat[2][2] - mat[1][2] * mat[2][0])
        + mat[0][2] * (mat[1][0] * mat[2][1] - mat[1][1] * mat[2][0])
    )


def a3(moments: MomentSet) -> A3Result:
    """A3 = det m / (det mu - det m) from the two 3x3 moment matrices."""
    m1, m2, m3, m4 = moments.m
    u1, u2, u3, u4 = moments.mu
    det_m = _det3([[1.0, m1, m2], [m1, m2, m3], [m2, m3, m4]])
    det_mu = _det3([[1.0, u1, u2], [u1, u2, u3], [u2, u3, u4]])
    denom = det_mu - det_m
    if abs(denom) < 1e-12:
        raise UndefinedRatioError(det_m, det_mu)
    return A3Result(det_m=det_m, det_mu=det_mu, a3=det_m / denom)


def _ladder_expectations(vec: fock.FockVector):
    """<a>, <a†>, <a^2>, <a†^2>, <a†a> and the truncated <a a†> as shifted
    vdots over neighbouring amplitudes.  The truncated <a a†> drops the top
    level (a† maps it out of the space), exactly as the d x d product does."""
    c = vec.amplitudes
    n = np.arange(c.size, dtype=float)
    pop = np.abs(c) ** 2
    ea = complex(np.vdot(c[:-1], np.sqrt(n[1:]) * c[1:]))
    ea2 = complex(np.vdot(c[:-2], np.sqrt(n[2:] * n[1:-1]) * c[2:]))
    en = float(np.dot(n, pop))
    eaad = float(np.dot(n[1:], pop[:-1]))
    return ea, ea.conjugate(), ea2, ea2.conjugate(), en, eaad


def squeezing_identities(state: PMCState) -> tuple[float, float]:
    """The two squeezing indicators

        I1 = <a^2> + <a†^2> - <a>^2 - <a†>^2 - 2<a><a†> + 2<a†a>
        I2 = -<a^2> - <a†^2> + <a>^2 + <a†>^2 - 2<a><a†> + 2<a†a>

    I1 < 0 flags squeezing in X = (a + a†)/sqrt(2) and I2 < 0 in
    Y = i(a† - a)/sqrt(2); algebraically I_k = 2 (Delta q)^2 - 1 for the
    matching quadrature q.  Second moments weight the occupation by n^2, so
    the top-decile headroom test uses that weight.
    """
    vec = state.vector
    _check_moment_headroom(_populations(vec), 2, "second-moment")
    ea, ead, ea2, ead2, en, _ = _ladder_expectations(vec)
    en = _real_part(en, "<n>")
    i1 = ea2 + ead2 - ea**2 - ead**2 - 2.0 * ea * ead + 2.0 * en
    i2 = -ea2 - ead2 + ea**2 + ead**2 - 2.0 * ea * ead + 2.0 * en
    return _real_part(i1, "I1"), _real_part(i2, "I2")


def quadrature_variances(state: PMCState) -> tuple[float, float]:
    """((Delta X)^2, (Delta Y)^2) from the ladder expectations, with the
    truncated-space products of X = (a + a†)/sqrt(2) and Y = i(a† - a)/sqrt(2):

        <X^2> = (<a^2> + <a†^2> + <a a†> + <a†a>) / 2
        <Y^2> = (<a a†> + <a†a> - <a^2> - <a†^2>) / 2
    """
    vec = state.vector
    _check_moment_headroom(_populations(vec), 2, "second-moment")
    ea, ead, ea2, ead2, en, eaad = _ladder_expectations(vec)
    x = ((ea + ead) / math.sqrt(2.0), (ea2 + ead2 + eaad + en) / 2.0)
    y = (1j * (ead - ea) / math.sqrt(2.0), (eaad + en - ea2 - ead2) / 2.0)
    out = []
    for label, (mean, mean_sq) in (("X", x), ("Y", y)):
        mean = _real_part(mean, f"<{label}>")
        mean_sq = _real_part(mean_sq, f"<{label}^2>")
        out.append(mean_sq - mean**2)
    return out[0], out[1]


def uncertainty_product(state: PMCState) -> float:
    vx, vy = quadrature_variances(state)
    return vx * vy


GRID_ROWS = 64  # gammas per array pass: bounds the working set at 64 x 256 levels
_LOG_DBL_MAX = math.log(np.finfo(float).max)


def quasiprob_grid(state: PMCState, gammas, s: float) -> list:
    """F(gamma, s) = Tr[rho (2/(1-s)) D(gamma) w^n̂ D†(gamma)], w = (1+s)/(s-1),
    at every gamma of ``gammas``: in order, each gamma's value or the
    exception (ConvergenceError or ValueError) that refuses it, which
    ``quasiprob_oracle`` raises for a single gamma.

    Built from the state's definition, not its vector: D†(gamma) (mu a +
    nu a†)^N |zeta> is, up to a phase, (mu a + nu a† + mu gamma + nu gamma*)^N
    |zeta - gamma> (Cahill & Glauber, Phys. Rev. 177, 1857 (1969)), and F =
    (2/(1-s)) sum_n w^n p_n over its normalized populations, in d_gamma =
    max(state.dim, ``fock.default_dim(zeta - gamma, N)``) levels.  The sum
    goes through ``fock.trace_rows`` (ConvergenceError where truncation or
    cancellation can dominate it); w^(d-1) beyond the double range (s near
    1) is a ValueError.  (1/pi) integral of F(., -1) over the plane is 1.

    The gammas sharing a d_gamma go through the ``fock`` row kernels
    together, ``GRID_ROWS`` at a time.  Every per-gamma scalar stays a Python
    number and every row reduction is the row's own, so an entry does not
    depend on the rest of the grid.
    """
    gammas = [complex(g) for g in gammas]
    s = float(s)
    if abs(s - 1.0) < 1e-12:
        return [ValueError("the operator form diverges at s = 1 (prefactor 2/(1-s))")] * len(gammas)
    w = (1.0 + s) / (s - 1.0)
    groups: dict[int, list[int]] = {}
    out: list = [None] * len(gammas)
    for i, gamma in enumerate(gammas):
        try:
            dim = max(state.dim, fock.default_dim(state.zeta - gamma, state.params.N))
        except ValueError as exc:  # a NaN gamma has no dimension
            out[i] = exc
            continue
        groups.setdefault(dim, []).append(i)
    for dim, members in groups.items():
        if abs(w) > 1.0 and (dim - 1) * math.log(abs(w)) > _LOG_DBL_MAX:
            error = ValueError(f"weight ({w:.6g})^n overflows the double range at n={dim - 1} for s={s}")
            for i in members:
                out[i] = error
            continue
        weight = w ** np.arange(dim)
        for start in range(0, len(members), GRID_ROWS):
            block = members[start:start + GRID_ROWS]
            values = _quasiprob_block(state, [gammas[i] for i in block], s, dim, weight)
            for i, value in zip(block, values):
                out[i] = value
    return out


def _quasiprob_block(state: PMCState, gammas: list[complex], s: float, dim: int, weight: np.ndarray) -> list:
    """``quasiprob_grid`` for gammas that share the dimension ``dim``.  A row
    that fails a check is zeroed by its kernel and carried along; its first
    error is its result."""
    params = state.params
    shifts = [params.mu * gamma + params.nu * gamma.conjugate() for gamma in gammas]
    coherent, _, coherent_errors = fock.coherent_rows([state.zeta - gamma for gamma in gammas], dim)
    raw, nsq, raw_errors = fock.superposed_power_rows(params, coherent, shifts)
    # The same updates on magnitudes bound every partial sum, hence each
    # amplitude's rounding error: the shift can cancel what the state keeps.
    bound, _, bound_errors = fock.superposed_power_rows(
        ModulationParams(abs(params.mu), abs(params.nu), params.N),
        np.abs(coherent).astype(complex), [abs(shift) for shift in shifts],
    )
    out = [c or r or b for c, r, b in zip(coherent_errors, raw_errors, bound_errors)]
    amp, norms = fock.normalize_rows(raw, nsq, out)
    live = [i for i, error in enumerate(out) if error is None]
    if len(live) < len(gammas):
        amp, bound, norms = amp[live], bound[live], norms[live]
    amp = np.abs(amp)
    magnitudes = np.abs(weight) * amp * bound.real / norms
    contexts = [f"s={s}, gamma={gammas[i]:.4g}" for i in live]
    traces, errors = fock.trace_rows(weight * amp**2, contexts, magnitudes)
    for i, trace, error in zip(live, traces, errors):
        out[i] = error if error is not None else 2.0 / (1.0 - s) * complex(trace).real
    return out


def quasiprob_oracle(state: PMCState, qp: QuasiProbParams) -> float:
    """F(gamma, s) at one point: the one-gamma case of ``quasiprob_grid``,
    raising the exception it returns (ConvergenceError where truncation or
    cancellation can dominate the sum, ValueError near s = 1)."""
    (value,) = quasiprob_grid(state, [qp.gamma], qp.s)
    if isinstance(value, Exception):
        raise value
    return value


def quasiprob_paper(
    params: ModulationParams, zeta: complex, qp: QuasiProbParams, norm_sq: float
) -> float:
    """Literal evaluation of the closed form of F(gamma, s), with N^2 the
    closed-form ``norm_sq`` (``states.paper_norm_sq(params, zeta)``):

        2 N^2 (N!)^2 / (pi^2 (1-s)) * exp[-((2+s)/s)(|g|^2+|z|^2)
            + ((s+1)/s)(g* z + g z*)]
        * sum_kl |mu|^(2k) |nu|^(2(N-k)) (1/4)^l |z|^(2(k-l)) (N-k-l)!
            ((s-2)/s)^(N-k-l) L_{N-k-l}[2|g|^2/(s+2) - ((2+s)/s)|g|^2
            + ((s+1)/s)(g* z + g z*)] / (l!(k-l)!(N-k-l)!)^2

    The closed form is undefined at s in {0, 1} (and s = -2); those values
    raise, and the oracle path remains available there.  A non-finite gamma
    raises too, instead of returning NaN.
    """
    s = qp.s
    for pole, why in ((0.0, "division by s"), (1.0, "prefactor 1/(1-s)"), (-2.0, "division by s+2")):
        if abs(s - pole) < 1e-12:
            raise ValueError(f"closed form undefined at s = {pole:g} ({why})")
    if not cmath.isfinite(qp.gamma):
        raise ValueError(f"gamma must be finite, got {qp.gamma}")
    zeta = complex(zeta)
    gamma = qp.gamma
    g2 = abs(gamma) ** 2
    z2 = abs(zeta) ** 2
    cross = 2.0 * (gamma.conjugate() * zeta).real
    exponent = -((2.0 + s) / s) * (g2 + z2) + ((s + 1.0) / s) * cross
    lag_arg = 2.0 * g2 / (s + 2.0) - ((2.0 + s) / s) * g2 + ((s + 1.0) / s) * cross
    ratio = (s - 2.0) / s
    log_ratio = math.log(abs(ratio)) if ratio else -math.inf
    ratio_sign = 1.0 if ratio >= 0 else -1.0
    log_r2 = math.log(z2) if z2 else -math.inf

    lags = laguerre_table(params.N, lag_arg)

    def extra(k: int, l: int) -> tuple[float, float]:
        order = params.N - k - l
        lag = lags[order]
        if lag == 0.0 or (order and ratio == 0.0):
            # log(0) raises; at s = 2 the term vanishes even where its lag overflowed to inf or NaN
            return -math.inf, 0.0
        sign = (ratio_sign**order) * (1.0 if lag > 0 else -1.0)
        return (
            ((k - l) * log_r2 if k - l else 0.0)
            + log_factorial_value(order)
            + (order * log_ratio if order else 0.0)
            + math.log(abs(lag)),
            sign,
        )

    series = diagonal_sum(params, extra)
    prefactor = 2.0 / (math.pi**2 * (1.0 - s) * norm_sq)
    return prefactor * math.exp(exponent) * series


def fidelity_oracle(state: PMCState) -> float:
    """|<zeta | N, zeta>|^2 through the truncated inner product."""
    ref, _ = fock.coherent_state(state.zeta, state.vector.dim)
    return abs(ref.inner(state.vector)) ** 2


def fidelity_paper(params: ModulationParams, zeta: complex, norm_sq: float) -> float:
    """Verbatim closed-form fidelity, with N^2 = 1/``norm_sq`` the closed-form
    normalization (``states.paper_norm_sq(params, zeta)``):

        N^2 (N!)^2 sum_kl |mu|^(2k) |nu|^(2(N-k)) (1/4)^l |zeta|^(2(N-2l))
            / (l!(k-l)!(N-k-l)!)^2
    """
    r2 = abs(complex(zeta)) ** 2
    log_r2 = math.log(r2) if r2 else -math.inf

    def extra(k: int, l: int) -> tuple[float, float]:
        power = params.N - 2 * l
        return (power * log_r2 if power else 0.0), 1.0

    return diagonal_sum(params, extra) / norm_sq
