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
displacement.  The *_paper functions take the closed-form squared norm from
the caller (a sweep reads it from the state it built) instead of walking its
lattice again.  The oracle is authoritative; gaps between the two are data,
not bugs, and are surfaced by the sweep layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fock
from .errors import ConvergenceError, PmcsError
from .specfun import laguerre_table, log_factorial_value
from .states import PMCState, _diagonal_sum
from .weyl import ModulationParams


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


def _paper_m_like(params: ModulationParams, zeta: complex, order_shift: int) -> float:
    """Unnormalized diagonal sum with the (N-k-l+shift)! L_{N-k-l+shift} factor."""
    r2 = abs(complex(zeta)) ** 2
    log_r2 = math.log(r2) if r2 else -math.inf
    lag = laguerre_table(params.N + order_shift, -r2)

    def extra(k: int, l: int) -> tuple[float, float]:
        power = k - l
        if r2 == 0.0 and power > 0:
            return -math.inf, 0.0
        order = params.N - k - l + order_shift
        return (
            (power * log_r2 if power else 0.0)
            + log_factorial_value(order)
            + math.log(lag[order]),
            1.0,
        )

    return _diagonal_sum(params, extra)


def moments_paper(params: ModulationParams, zeta: complex, norm_sq: float) -> MomentSet:
    """Verbatim closed-form moments, normalized by ``norm_sq`` (the value of
    ``states.paper_norm_sq(params, zeta)``).

    m_j uses the L_{N-k-l+j} sum; mu_j additionally sums the ordering weights
    (-1)^r (i-r)^j / (r! (i-r)!) over i = 0..j, r = 0..i.  Both inherit the
    diagonal-only structure of the closed-form norm.  The i = 0 weight is
    0^j = 0, so the four m-like sums (shifts 1..4) are the only lattice walks.
    """
    m_like = {j: _paper_m_like(params, zeta, j) for j in (1, 2, 3, 4)}
    m = tuple(m_like[j] / norm_sq for j in (1, 2, 3, 4))
    mu = []
    for j in (1, 2, 3, 4):
        total = 0.0
        for i in range(j + 1):
            weight = sum(
                (-1.0) ** r * (i - r) ** j / (math.factorial(r) * math.factorial(i - r))
                for r in range(i + 1)
            )
            if weight != 0.0:
                total += weight * m_like[i]
        mu.append(total / norm_sq)
    return MomentSet(m=m, mu=tuple(mu), source="paper_formula")


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


def quasiprob_oracle(state: PMCState, qp: QuasiProbParams) -> float:
    """F(gamma, s) = Tr[rho (2/(1-s)) D(gamma) w^n̂ D†(gamma)], w = (1+s)/(s-1).

    Built from the state's definition, not its vector: D†(gamma) (mu a +
    nu a†)^N |zeta> is, up to a phase, (mu a + nu a† + mu gamma + nu gamma*)^N
    |zeta - gamma> (Cahill & Glauber, Phys. Rev. 177, 1857 (1969)), and F =
    (2/(1-s)) sum_n w^n p_n over its normalized populations, at the state's
    dimension or ``fock.default_dim(zeta - gamma, N)`` if larger.  The sum
    goes through ``fock.trace_sum`` (ConvergenceError where truncation or
    cancellation can dominate it); w^(d-1) beyond the double range (s near
    1) raises ValueError.  (1/pi) integral of F(., -1) over the plane is 1.
    """
    s = qp.s
    if abs(s - 1.0) < 1e-12:
        raise ValueError("the operator form diverges at s = 1 (prefactor 2/(1-s))")
    params, beta = state.params, state.zeta - qp.gamma
    dim = max(state.dim, fock.default_dim(beta, params.N))
    w = (1.0 + s) / (s - 1.0)
    if abs(w) > 1.0 and (dim - 1) * math.log(abs(w)) > math.log(np.finfo(float).max):
        raise ValueError(f"weight ({w:.6g})^n overflows the double range at n={dim - 1} for s={s}")
    coherent, _ = fock.coherent_state(beta, dim)
    shift = params.mu * qp.gamma + params.nu * qp.gamma.conjugate()
    raw = fock.apply_superposed_power(params, coherent, shift)
    # The same updates on magnitudes bound every partial sum, hence each
    # amplitude's rounding error: the shift can cancel what the state keeps.
    bound = fock.apply_superposed_power(
        ModulationParams(abs(params.mu), abs(params.nu), params.N),
        fock.FockVector(np.abs(coherent.amplitudes)), abs(shift),
    )
    weight = w ** np.arange(dim)
    amp = np.abs(raw.normalized().amplitudes)
    magnitudes = np.abs(weight) * amp * bound.amplitudes.real / math.sqrt(raw.norm_sq())
    trace = fock.trace_sum(weight * amp**2, f"s={s}, gamma={qp.gamma:.4g}", magnitudes)
    return 2.0 / (1.0 - s) * trace.real


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
    raise, and the oracle path remains available there.
    """
    s = qp.s
    for pole, why in ((0.0, "division by s"), (1.0, "prefactor 1/(1-s)"), (-2.0, "division by s+2")):
        if abs(s - pole) < 1e-12:
            raise ValueError(f"closed form undefined at s = {pole:g} ({why})")
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
    r2 = z2
    log_r2 = math.log(r2) if r2 else -math.inf

    lags = laguerre_table(params.N, lag_arg)

    def extra(k: int, l: int) -> tuple[float, float]:
        power = k - l
        if r2 == 0.0 and power > 0:
            return -math.inf, 0.0
        order = params.N - k - l
        if ratio == 0.0 and order > 0:
            return -math.inf, 0.0
        lag = lags[order]
        if lag == 0.0:
            return -math.inf, 0.0
        sign = (ratio_sign**order) * (1.0 if lag > 0 else -1.0)
        return (
            (power * log_r2 if power else 0.0)
            + log_factorial_value(order)
            + (order * log_ratio if order else 0.0)
            + math.log(abs(lag)),
            sign,
        )

    series = _diagonal_sum(params, extra)
    prefactor = 2.0 / (math.pi**2 * (1.0 - s) * norm_sq)
    return prefactor * math.exp(exponent) * series


def fidelity_oracle(state: PMCState, zeta: complex | None = None) -> float:
    """|<zeta | N, zeta>|^2 through the truncated inner product."""
    zeta = state.zeta if zeta is None else complex(zeta)
    ref, _ = fock.coherent_state(zeta, state.vector.dim)
    return abs(ref.inner(state.vector)) ** 2


def fidelity_paper(params: ModulationParams, zeta: complex, norm_sq: float) -> float:
    """Verbatim closed-form fidelity, with N^2 = 1/``norm_sq`` the closed-form
    normalization (``states.paper_norm_sq(params, zeta)``):

        N^2 (N!)^2 sum_kl |mu|^(2k) |nu|^(2(N-k)) (1/4)^l |zeta|^(2(N-2l))
            / (l!(k-l)!(N-k-l)!)^2
    """
    if params.N == 0:
        return 1.0
    r2 = abs(complex(zeta)) ** 2
    log_r2 = math.log(r2) if r2 else -math.inf

    def extra(k: int, l: int) -> tuple[float, float]:
        power = params.N - 2 * l
        if r2 == 0.0 and power > 0:
            return -math.inf, 0.0
        return (power * log_r2 if power else 0.0), 1.0

    return _diagonal_sum(params, extra) / norm_sq
