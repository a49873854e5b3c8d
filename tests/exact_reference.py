"""The one truncation-free reference the tests hold the program's values against.

Weyl ordering and a^n |beta> = beta^n |beta> make the state a finite sum
psi = sum_m b_m a†^m |beta>, b_m built factor by factor without ``pmcs``, and
every quantity a Gram form over the b_m: no Fock dimension, no tail test.
``Fraction`` inputs give exact values (but for the exponential in
``quasiprob``), ``complex`` inputs doubles."""

import math
from fractions import Fraction


def _factor(b, mu, nu, beta, shift):
    """(mu a + nu a† + shift) psi over the same |beta>:
    (a b)_m = (m + 1) b_{m+1} + beta b_m and (a† b)_m = b_{m-1}."""
    out = [0] * (len(b) + 1)
    for m, bm in enumerate(b):
        if m:
            out[m - 1] += m * mu * bm
        out[m] += (mu * beta + shift) * bm
        out[m + 1] += nu * bm
    return out


def coefficients(mu, nu, n_pow, beta, shift=0):
    """b with (mu a + nu a† + shift)^N |beta> = sum_m b_m a†^m |beta>."""
    b = [Fraction(1)]
    for _ in range(n_pow):
        b = _factor(b, mu, nu, beta, shift)
    return b


def _unit(mu, nu, n_pow, zeta):
    """``coefficients`` over |zeta> scaled to max |b_m| = 1: a^j psi stays in range."""
    b = coefficients(mu, nu, n_pow, zeta)
    top = max(abs(bm) for bm in b)
    return [bm / top for bm in b]


def _lower(b, beta):
    """a psi over the same |beta>."""
    return _factor(b, 1, 0, beta, 0)[:-1]


def _displaced(b, y):
    """c with sum_m b_m (a† + y)^m = sum_j c_j a†^j: c_j = sum_m C(m, j) b_m y^(m-j).
    At y = conj(beta), D(beta) sum_j c_j a†^j |0> = sum_m b_m a†^m |beta>."""
    return [sum(math.comb(m, j) * b[m] * y ** (m - j) for m in range(j, len(b))) for j in range(len(b))]


def gram(bl, br, beta, x=1):
    """<phi_l| x^n̂ |phi_r> / <beta| x^n̂ |beta> for phi = sum_m b_m a†^m |beta>, x
    real (x = 1: <phi_l|phi_r>).  The double sum over m', m of conj(bl_m') br_m
    x^m sum_j j! C(m', j) C(m, j) conj(beta)^(m-j) (x beta)^(m'-j) is summed as
    sum_j j! x^j conj(cl_j) cr_j, c = ``_displaced``(b, x conj(beta)), which
    rounds like a sum of squares at bl = br and x > 0."""
    y = x * beta.conjugate()
    cl, cr = _displaced(bl, y), _displaced(br, y)
    return sum(math.factorial(j) * x**j * cl[j].conjugate() * cr[j] for j in range(min(len(cl), len(cr))))


def norm_sq(mu, nu, n_pow, zeta):
    """||(mu a + nu a†)^N |zeta>||^2 for the normalized |zeta>."""
    b = coefficients(mu, nu, n_pow, zeta)
    return gram(b, b, zeta).real


def factorial_moments(mu, nu, n_pow, zeta):
    """m_j = <a†^j a^j> = ||a^j psi||^2 / ||psi||^2, j = 1..4."""
    b = _unit(mu, nu, n_pow, zeta)
    nsq, out = gram(b, b, zeta), []
    for _ in range(4):
        b = _lower(b, zeta)
        out.append((gram(b, b, zeta) / nsq).real)
    return tuple(out)


def anti_normal_moments(mu, nu, n_pow, zeta):
    """<a^j a†^j> = ||a†^j psi||^2 / ||psi||^2, j = 1..4."""
    b = _unit(mu, nu, n_pow, zeta)
    nsq = gram(b, b, zeta)
    return tuple((gram([0] * j + b, [0] * j + b, zeta) / nsq).real for j in (1, 2, 3, 4))


def squeezing(mu, nu, n_pow, zeta):
    """(I1, I2) of ``nonclassical.squeezing_identities`` from <a>, <a^2>, <a†a>."""
    b = _unit(mu, nu, n_pow, zeta)
    b1, nsq = _lower(b, zeta), gram(b, b, zeta)
    ea, ea2, en = (gram(bl, br, zeta) / nsq for bl, br in ((b, b1), (b, _lower(b1, zeta)), (b1, b1)))
    cross = ea2 + ea2.conjugate() - ea**2 - ea.conjugate() ** 2
    rest = 2 * en - 2 * ea * ea.conjugate()
    return (rest + cross).real, (rest - cross).real


def fidelity(mu, nu, n_pow, zeta):
    """|<zeta|psi>|^2 / ||psi||^2, with <zeta|psi> = sum_m b_m conj(zeta)^m."""
    b = _unit(mu, nu, n_pow, zeta)
    amp = sum(bm * zeta.conjugate() ** m for m, bm in enumerate(b))
    return (amp * amp.conjugate() / gram(b, b, zeta)).real


def quasiprob(mu, nu, n_pow, zeta, gamma, s):
    """F(gamma, s) = (2/(1-s)) <psi|D(gamma) w^n̂ D†(gamma)|psi> / ||psi||^2, w =
    (1+s)/(s-1).  Displaced by gamma, psi is (mu a + nu a† + mu gamma + nu
    gamma*)^N |zeta - gamma>, and <beta|w^n̂|beta> = exp((w-1)|beta|^2)."""
    beta = zeta - gamma
    b = coefficients(mu, nu, n_pow, beta, mu * gamma + nu * gamma.conjugate())
    w = (1 + s) / (s - 1)
    ratio = (gram(b, b, beta, w) / gram(b, b, beta)).real
    return float(2 / (1 - s) * ratio) * math.exp((w - 1) * (beta * beta.conjugate()).real)
