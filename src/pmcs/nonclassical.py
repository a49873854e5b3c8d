"""Non-classicality diagnostics: moment-matrix ratio A3, quadrature squeezing,
the s-parameterized quasi-probability F(gamma, s) and fidelity with the input
coherent state.

Every quantity that has a closed form is implemented twice: the ``*_paper``
path evaluates the closed-form Laguerre sums literally (including their
diagonal-only structure), the oracle path works on the dense truncated-space
matrices.  The oracle is authoritative; gaps between the two are data, not
bugs, and are surfaced by the sweep layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import fock
from .errors import ConvergenceError, PmcsError
from .specfun import laguerre_table, log_factorial_value
from .states import PMCState, _diagonal_sum, paper_norm_sq
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


@lru_cache(maxsize=64)
def _normal_moment_matrix(dim: int, j: int) -> np.ndarray:
    a = fock.ladder_ops(dim)[0].matrix
    aj = np.linalg.matrix_power(a, j)
    out = aj.conj().T @ aj
    out.setflags(write=False)
    return out


@lru_cache(maxsize=64)
def _number_power_matrix(dim: int, j: int) -> np.ndarray:
    out = np.linalg.matrix_power(fock.number_operator(dim).matrix, j)
    out.setflags(write=False)
    return out


def _check_moment_headroom(vec: fock.FockVector) -> None:
    # m_4 / mu_4 weight the occupation by n^4, so the tail test uses that weight.
    n4 = np.arange(vec.dim, dtype=float) ** 4
    weighted = n4 * np.abs(vec.amplitudes) ** 2
    total = float(np.sum(weighted))
    if total > 0.0:
        k = max(1, vec.dim // 10)
        if float(np.sum(weighted[-k:])) / total >= 1e-10:
            raise ConvergenceError(
                f"fourth-moment weight leaks into the top decile at dim {vec.dim}"
            )


def moments_oracle(state: PMCState) -> MomentSet:
    """All eight expectations by dense matrix application."""
    vec = state.vector
    _check_moment_headroom(vec)
    m = tuple(
        _real_part(fock.expectation(fock.FockOperator(_normal_moment_matrix(vec.dim, j)), vec), f"m_{j}")
        for j in (1, 2, 3, 4)
    )
    mu = tuple(
        _real_part(fock.expectation(fock.FockOperator(_number_power_matrix(vec.dim, j)), vec), f"mu_{j}")
        for j in (1, 2, 3, 4)
    )
    return MomentSet(m=m, mu=mu, source="oracle")


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


def moments_paper(params: ModulationParams, zeta: complex) -> MomentSet:
    """Verbatim closed-form moments.

    m_j uses the L_{N-k-l+j} sum; mu_j additionally sums the ordering weights
    (-1)^r (i-r)^j / (r! (i-r)!) over i = 0..j, r = 0..i.  Both inherit the
    diagonal-only structure of the closed-form norm.  The i = 0 weight is
    0^j = 0, so the four m-like sums (shifts 1..4) and the norm are the only
    lattice walks.
    """
    nsq_inv = paper_norm_sq(params, zeta)
    m_like = {j: _paper_m_like(params, zeta, j) for j in (1, 2, 3, 4)}
    m = tuple(m_like[j] / nsq_inv for j in (1, 2, 3, 4))
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
        mu.append(total / nsq_inv)
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


def _ladder_expectations(state: PMCState):
    vec = state.vector
    a_op, ad_op = fock.ladder_ops(vec.dim)
    ea = fock.expectation(a_op, vec)
    ead = fock.expectation(ad_op, vec)
    ea2 = fock.expectation(a_op @ a_op, vec)
    ead2 = fock.expectation(ad_op @ ad_op, vec)
    en = _real_part(fock.expectation(ad_op @ a_op, vec), "<n>")
    return ea, ead, ea2, ead2, en


def squeezing_identities(state: PMCState) -> tuple[float, float]:
    """The two squeezing indicators

        I1 = <a^2> + <a†^2> - <a>^2 - <a†>^2 - 2<a><a†> + 2<a†a>
        I2 = -<a^2> - <a†^2> + <a>^2 + <a†>^2 - 2<a><a†> + 2<a†a>

    I1 < 0 flags squeezing in X = (a + a†)/sqrt(2) and I2 < 0 in
    Y = i(a† - a)/sqrt(2); algebraically I_k = 2 (Delta q)^2 - 1 for the
    matching quadrature q.
    """
    ea, ead, ea2, ead2, en = _ladder_expectations(state)
    i1 = ea2 + ead2 - ea**2 - ead**2 - 2.0 * ea * ead + 2.0 * en
    i2 = -ea2 - ead2 + ea**2 + ead**2 - 2.0 * ea * ead + 2.0 * en
    return _real_part(i1, "I1"), _real_part(i2, "I2")


def quadrature_variances(state: PMCState) -> tuple[float, float]:
    """((Delta X)^2, (Delta Y)^2) by dense matrix application."""
    vec = state.vector
    a_op, ad_op = fock.ladder_ops(vec.dim)
    x = fock.FockOperator((a_op.matrix + ad_op.matrix) / math.sqrt(2.0), label="X")
    y = fock.FockOperator(1j * (ad_op.matrix - a_op.matrix) / math.sqrt(2.0), label="Y")
    out = []
    for q in (x, y):
        mean = _real_part(fock.expectation(q, vec), f"<{q.label}>")
        mean_sq = _real_part(fock.expectation(q @ q, vec), f"<{q.label}^2>")
        out.append(mean_sq - mean**2)
    return out[0], out[1]


def uncertainty_product(state: PMCState) -> float:
    vx, vy = quadrature_variances(state)
    return vx * vy


def _weight_operator(s: float, dim: int) -> fock.FockOperator:
    """Diagonal weight ((1+s)/(s-1))^n composed from exp(-lam n̂) (and the
    parity diagonal when the base is negative)."""
    w = (1.0 + s) / (s - 1.0)
    if w == 0.0:
        mat = np.zeros((dim, dim), dtype=complex)
        mat[0, 0] = 1.0
        return fock.FockOperator(mat, label="0^n")
    if w > 0.0:
        return fock.operator_exp_number(-math.log(w), dim)
    parity = np.diag((-1.0) ** np.arange(dim)).astype(complex)
    base = fock.operator_exp_number(-math.log(-w), dim)
    return fock.FockOperator(parity @ base.matrix, label=f"({w:.6g})^n")


def quasiprob_oracle(state: PMCState, qp: QuasiProbParams, dim: int | None = None) -> float:
    """F(gamma, s) = Tr[rho (2/(1-s)) D(gamma) ((1+s)/(s-1))^n̂ D†(gamma)].

    Normalized so that (1/pi) integral of F(., -1) over the plane is 1 (the
    coherent-state value at gamma = zeta, s = -1, N = 0 is exactly 1).  For
    s > 1 the diagonal weight grows with n and the truncated trace is only
    accepted when its summand still decays (otherwise ConvergenceError).
    """
    if abs(qp.s - 1.0) < 1e-12:
        raise ValueError("the operator form diverges at s = 1 (prefactor 2/(1-s))")
    vec = state.vector if dim is None else state.vector.padded(dim)
    disp = fock.displacement(qp.gamma, vec.dim)
    weight = _weight_operator(qp.s, vec.dim)
    # Cyclic form Tr[(D† rho D) w^n̂]: in the weight eigenbasis the per-level
    # summand is w^n |<n|D†|psi>|^2, the quantity whose decay actually decides
    # whether the truncated trace means anything for |s| > 1.
    displaced = fock.FockVector(disp.matrix.conj().T @ vec.amplitudes, vec.basis_offset)
    trace = fock.density_and_trace(displaced, weight, context=f"s={qp.s}, gamma={qp.gamma:.4g}")
    value = 2.0 / (1.0 - qp.s) * trace
    return _real_part(value, "F(gamma, s)")


def quasiprob_paper(params: ModulationParams, zeta: complex, qp: QuasiProbParams) -> float:
    """Literal evaluation of the closed form of F(gamma, s):

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
    prefactor = 2.0 / (math.pi**2 * (1.0 - s) * paper_norm_sq(params, zeta))
    return prefactor * math.exp(exponent) * series


def fidelity_oracle(state: PMCState, zeta: complex | None = None) -> float:
    """|<zeta | N, zeta>|^2 through the truncated inner product."""
    zeta = state.zeta if zeta is None else complex(zeta)
    ref, _ = fock.coherent_state(zeta, state.vector.dim)
    return abs(ref.inner(state.vector)) ** 2


def fidelity_paper(params: ModulationParams, zeta: complex) -> float:
    """Verbatim closed-form fidelity:

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

    return _diagonal_sum(params, extra) / paper_norm_sq(params, zeta)
