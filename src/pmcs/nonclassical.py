"""Non-classicality diagnostics: moment-matrix ratio A3, quadrature squeezing,
the s-parameterized quasi-probability F(gamma, s) and fidelity with the input
coherent state.

Every quantity that has a closed form is implemented twice: the ``*_paper``
path evaluates the closed-form Laguerre sums literally (including their
diagonal-only structure), the oracle path works on the truncated state
vector.  Each indicator is a function of its defining moments, which both
paths feed: ``a3`` of the four factorial moments (``moments_paper`` or
``moments_oracle``), ``uncertainty_product`` of (I1, I2).  a and a† are
one-off-diagonal, so the oracle's moments and squeezing identities are O(d)
sums over populations |c_n|^2 or neighbouring amplitudes, weighted by level
tables built once at import and sliced to the state's dimension, equal to
the dense truncated-space products; the quasi-probability is a population
sum in the displaced frame, with no d x d displacement, evaluated for a
state point's whole gamma grid in one row-batched pass (``quasiprob_grid``;
``quasiprob_oracle`` is its one-gamma case).  The *_paper functions take the
closed-form squared norm from the caller (a sweep reads it from the state it
built) instead of walking its lattice again; ``moments_paper`` walks it once
for all four moments.  A walk reads each ``weyl._lattice`` term (log |t_kl|^2,
n, m) as it stands: |zeta|^(2n), Laguerre order m (plus the moment's shift),
and |zeta|^(2(n+m)) in the fidelity.  The oracle is authoritative; gaps
between the two are data, not bugs, and are surfaced by the sweep layer.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import fock, weyl
from .errors import ConvergenceError, PmcsError
from .specfun import laguerre_table, log_factorial_value, log_sum, signed_log_sum
from .states import PMCState, _laguerre_sum
from .weyl import ModulationParams, expand_number_power


class UndefinedRatioError(PmcsError, ArithmeticError):
    """det(mu) - det(m) is zero to within its rounding; the A3 ratio is undefined."""

    def __init__(self, det_m: float, det_mu: float):
        super().__init__(
            f"A3 undefined: det_m={det_m:.6e}, det_mu={det_mu:.6e}, "
            f"denominator {det_mu - det_m:.3e}"
        )
        self.det_m = det_m
        self.det_mu = det_mu


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


# Level tables up to fock.DIM_CAP, sliced to a state's dimension: row j-1 of
# _FALLING is n!/(n-j)!, j = 1..4, so row 0 is n itself; sqrt(n) is fock._ROOTS.
_FALLING = np.cumprod([np.arange(fock.DIM_CAP, dtype=float) - j for j in range(4)], axis=0)
_LEVELS = _FALLING[0]
_LEVEL_POWERS = {2: _LEVELS**2, 4: _LEVELS**4}
_ROOT_PAIRS = np.sqrt(_FALLING[1])  # sqrt(n(n-1))


def _check_moment_headroom(pop: np.ndarray, power: int, what: str) -> None:
    """Refuse a diagnostic whose n^power-weighted population reaches the top
    decile of levels: there the truncated sums stop approximating the
    untruncated ones."""
    weighted = _LEVEL_POWERS[power][:pop.size] * pop
    if fock._tail_fraction(weighted) >= 1e-10:
        raise ConvergenceError(f"{what} weight leaks into the top decile at dim {pop.size}")


def moments_oracle(state: PMCState) -> tuple[float, float, float, float]:
    """The factorial moments m_j = <a†^j a^j> = sum_n n!/(n-j)! p_n, j = 1..4,
    over the populations p_n = |c_n|^2 (a†^j a^j is diagonal, also in the
    truncated space)."""
    pop = np.abs(state.amplitudes) ** 2
    _check_moment_headroom(pop, 4, "fourth-moment")
    return tuple(float(np.dot(falling[:pop.size], pop)) for falling in _FALLING)


def moments_paper(params: ModulationParams, zeta: complex, norm_sq: float) -> tuple[float, float, float, float]:
    """Verbatim closed-form moment sums, normalized by ``norm_sq`` (the value
    of ``states.paper_norm_sq(params, zeta)``): the Laguerre sums at order
    shifts 1..4, from one lattice walk.  The paper reads them as m_j and
    they enter ``a3`` as such, but they inherit the diagonal-only structure
    of the closed-form norm and their shift-j Laguerre factor is
    anti-normally ordered: in the exact regimes (mu = 0, nu = 0 or N = 0)
    they equal <a^j a†^j>, not <a†^j a^j>.
    """
    r2 = abs(complex(zeta)) ** 2
    return tuple(v / norm_sq for v in _laguerre_sum(params, r2, (1, 2, 3, 4)))


def _hankel_det(x1: float, x2: float, x3: float, x4: float) -> float:
    """det [[1, x1, x2], [x1, x2, x3], [x2, x3, x4]], by the first row."""
    return (x2 * x4 - x3 * x3) - x1 * (x1 * x4 - x3 * x2) + x2 * (x1 * x3 - x2 * x2)


def _hankel_size(x1: float, x2: float, x3: float, x4: float) -> float:
    """The summed magnitudes of ``_hankel_det``'s six products."""
    return abs(x2 * x4) + x3 * x3 + abs(x1 * x1 * x4) + 2.0 * abs(x1 * x3 * x2) + abs(x2 * x2 * x2)


# Row j-1 holds S(j, 1) .. S(j, j), the coefficients of a†^i a^i in the
# normal-ordered (a†a)^j of ``weyl.expand_number_power(j)``, j = 1..4.
_STIRLING_ROWS = tuple(
    tuple(c.real for c in expand_number_power(j).terms.values()) for j in (1, 2, 3, 4)
)


def a3(m) -> A3Result:
    """A3 = det m / (det mu - det m) from the Hankel matrices of the factorial
    moments m = (m_1, .., m_4) and of the number moments mu_j = <(a†a)^j> =
    sum_i S(j, i) m_i, with the exact Stirling numbers of ``_STIRLING_ROWS``.
    Undefined unless |det mu - det m| > 64 eps H, H the ``_hankel_size`` sum."""
    mu = [sum(w * x for w, x in zip(row, m)) for row in _STIRLING_ROWS]
    det_m, det_mu = _hankel_det(*m), _hankel_det(*mu)
    denom = det_mu - det_m
    if not abs(denom) > 64 * _EPS * (_hankel_size(*m) + _hankel_size(*mu)):
        raise UndefinedRatioError(det_m, det_mu)
    return A3Result(det_m=det_m, det_mu=det_mu, a3=det_m / denom)


def _ladder_expectations(c: np.ndarray) -> tuple[complex, complex, float]:
    """<a>, <a^2> and <a†a> as shifted vdots over neighbouring amplitudes c."""
    dim = c.size
    ea = complex(np.vdot(c[:-1], fock._ROOTS[:dim - 1] * c[1:]))
    ea2 = complex(np.vdot(c[:-2], _ROOT_PAIRS[2:dim] * c[2:]))
    return ea, ea2, float(np.dot(_LEVELS[:dim], np.abs(c) ** 2))


def squeezing_identities(state: PMCState) -> tuple[float, float]:
    """The two squeezing indicators

        I1 = <a^2> + <a†^2> - <a>^2 - <a†>^2 - 2<a><a†> + 2<a†a>
        I2 = -<a^2> - <a†^2> + <a>^2 + <a†>^2 - 2<a><a†> + 2<a†a>

    I1 < 0 flags squeezing in X = (a + a†)/sqrt(2) and I2 < 0 in
    Y = i(a† - a)/sqrt(2); algebraically I_k = 2 (Delta q)^2 - 1 for the
    matching quadrature q.  Second moments weight the occupation by n^2, so
    the top-decile headroom test uses that weight.  Both are real: every
    term comes with its conjugate.
    """
    _check_moment_headroom(np.abs(state.amplitudes) ** 2, 2, "second-moment")
    ea, ea2, en = _ladder_expectations(state.amplitudes)
    ead, ead2 = ea.conjugate(), ea2.conjugate()
    i1 = ea2 + ead2 - ea**2 - ead**2 - 2.0 * ea * ead + 2.0 * en
    i2 = -ea2 - ead2 + ea**2 + ead**2 - 2.0 * ea * ead + 2.0 * en
    return i1.real, i2.real


def uncertainty_product(i1: float, i2: float) -> float:
    """(Delta X)^2 (Delta Y)^2 = (1 + I1)(1 + I2)/4, from I_k = 2 (Delta q)^2 - 1."""
    return (1.0 + i1) * (1.0 + i2) / 4.0


_LOG_DBL_MAX = math.log(np.finfo(float).max)
_EPS = float(np.finfo(float).eps)


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
    together, ``fock.GRID_ROWS`` at a time.  Every per-gamma scalar stays a
    Python number and every row reduction is the row's own, so an entry does
    not depend on the rest of the grid.
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
        for start in range(0, len(members), fock.GRID_ROWS):
            block = members[start:start + fock.GRID_ROWS]
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
    # |d_n|^2 errs by up to (2|d_n| + eps bound_n/norm) eps bound_n/norm
    amp, scale = np.abs(amp), bound.real / norms
    magnitudes = np.abs(weight) * (amp + _EPS * scale) * scale
    traces, errors = fock.trace_rows(weight * amp**2, lambda j: f"s={s}, gamma={gammas[live[j]]:.4g}", magnitudes)
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
    raise, and the oracle path remains available there.  So does a gamma that
    is not finite or where |g|^2, the Gaussian factor (s in (-2, 0) at large
    |g|), the Laguerre row or the product overflows, instead of a NaN.
    """
    s = qp.s
    for pole, why in ((0.0, "division by s"), (1.0, "prefactor 1/(1-s)"), (-2.0, "division by s+2")):
        if abs(s - pole) < 1e-12:
            raise ValueError(f"closed form undefined at s = {pole:g} ({why})")
    if not cmath.isfinite(qp.gamma):
        raise ValueError(f"gamma must be finite, got {qp.gamma}")
    zeta = complex(zeta)
    gamma = qp.gamma
    try:
        g2 = abs(gamma) ** 2
    except OverflowError:
        raise ValueError(f"|gamma|^2 overflows the double range at gamma={gamma:.4g}") from None
    z2 = abs(zeta) ** 2
    cross = 2.0 * (gamma.conjugate() * zeta).real
    exponent = -((2.0 + s) / s) * (g2 + z2) + ((s + 1.0) / s) * cross
    lag_arg = 2.0 * g2 / (s + 2.0) - ((2.0 + s) / s) * g2 + ((s + 1.0) / s) * cross
    ratio = (s - 2.0) / s
    log_ratio = math.log(abs(ratio)) if ratio else -math.inf
    ratio_sign = 1.0 if ratio >= 0 else -1.0
    log_r2 = math.log(z2) if z2 else -math.inf

    lags = laguerre_table(params.N, lag_arg)
    if not exponent <= _LOG_DBL_MAX:
        raise ValueError(f"Gaussian factor exp({exponent:.4g}) overflows the double range at gamma={gamma:.4g}")
    entries = []
    for log_t2, power, order in weyl._lattice(params):
        lag = lags[order]
        if lag == 0.0 or (order and ratio == 0.0):
            continue  # log(0) raises; at s = 2 the term vanishes even where its lag overflowed to inf or NaN
        sign = (ratio_sign**order) * (1.0 if lag > 0 else -1.0)
        entries.append((log_t2 + (
            (power * log_r2 if power else 0.0)
            + log_factorial_value(order)
            + (order * log_ratio if order else 0.0)
            + math.log(abs(lag))
        ), sign))
    series = signed_log_sum(entries).real
    prefactor = 2.0 / (math.pi**2 * (1.0 - s) * norm_sq)
    value = prefactor * math.exp(exponent) * series
    if not math.isfinite(value):
        raise ValueError(f"Laguerre row or product overflows the double range at gamma={gamma:.4g}, s={s}")
    return value


def fidelity_oracle(state: PMCState) -> float:
    """|<zeta | N, zeta>|^2 through the truncated inner product."""
    ref, _ = fock.coherent_state(state.zeta, state.dim)
    return abs(complex(np.vdot(ref.amplitudes, state.amplitudes))) ** 2


def fidelity_paper(params: ModulationParams, zeta: complex, norm_sq: float) -> float:
    """Verbatim closed-form fidelity, with N^2 = 1/``norm_sq`` the closed-form
    normalization (``states.paper_norm_sq(params, zeta)``):

        N^2 (N!)^2 sum_kl |mu|^(2k) |nu|^(2(N-k)) (1/4)^l |zeta|^(2(N-2l))
            / (l!(k-l)!(N-k-l)!)^2
    """
    r2 = abs(complex(zeta)) ** 2
    log_r2 = math.log(r2) if r2 else -math.inf
    return log_sum([
        log_t2 + ((n + m) * log_r2 if n + m else 0.0) for log_t2, n, m in weyl._lattice(params)
    ]) / norm_sq
