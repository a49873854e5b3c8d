"""Construction of the photon-modulated coherent state (mu a + nu a†)^N |zeta>.

The state is built two independent ways: the closed-form normalization (a
Laguerre-weighted double sum over the expansion indices) and the matrix
oracle.  The oracle vector is authoritative everywhere downstream; the closed
form keeps only the diagonal k = k' part of the full expansion, so away from
the photon-added (mu = 0), photon-subtracted (nu = 0) and N = 0 limits the two
norms genuinely differ, and that gap is measured rather than hidden.

Every closed form is a |t_kl|^2-weighted sum over the (k, l) term table of
the Weyl series of (mu a + nu a†)^N, cached per (|mu|, |nu|, N) by
``weyl._lattice``.  A closed-form call evaluates its Laguerre polynomials
once, as a single row ``L_0 .. L_n`` at the call's argument
(``specfun.laguerre_table``), and its per-term factors index into that row.
``_laguerre_sum`` sums several Laguerre order shifts in one walk: shift 0 is
the norm, shifts 1..4 the moments, so an A3 point walks the table twice.
``build_state`` computes both norms, so a sweep point builds its state once
and reads the norm comparison from it.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

from . import fock, weyl
from .errors import DegenerateStateError
from .specfun import laguerre_table, log_factorial_value, signed_log_sum
from .weyl import ModulationParams


@dataclass(frozen=True)
class NormComparison:
    """Closed-form vs oracle squared norm of the unnormalized state."""

    norm_sq_paper: float
    norm_sq_oracle: float
    rel_gap: float
    exact_regime: bool


@dataclass(frozen=True, eq=False)
class PMCState:
    params: ModulationParams
    zeta: complex
    vector: fock.FockVector
    norm_sq_paper: float
    norm_sq_oracle: float
    discrepancy: float

    @property
    def dim(self) -> int:
        return self.vector.dim

    def tail_mass(self) -> float:
        return self.vector.tail_mass()


def _laguerre_sum(params: ModulationParams, r2: float, shifts: tuple[int, ...]) -> tuple[float, ...]:
    """For each shift of ``shifts``, in one lattice walk, the sum with the
    (N-k-l+shift)! L_{N-k-l+shift}(-r2) factor:

        (N!)^2 sum_k |mu|^(2k) |nu|^(2(N-k)) sum_l (1/4)^l r2^(k-l)
            (N-k-l+shift)! L_{N-k-l+shift}(-r2) / (l! (k-l)! (N-k-l)!)^2

    Shift 0 is the closed-form squared norm, shift j the unnormalized m_j.
    The values come from one Laguerre row up to order N + max(shifts), whose
    prefix the recurrence makes equal to every shorter row.
    """
    log_r2 = math.log(r2) if r2 else -math.inf
    lag = laguerre_table(params.N + max(shifts), -r2)  # positive for r2 >= 0
    columns = [([], shift) for shift in shifts]
    for k, l, log_t2 in weyl._lattice(params):
        base = params.N - k - l
        log_power = (k - l) * log_r2 if k - l else 0.0
        for entries, shift in columns:
            order = base + shift
            entries.append((log_t2 + (log_power + log_factorial_value(order) + math.log(lag[order])), 1.0))
    return tuple(signed_log_sum(entries).real for entries, _ in columns)


def paper_norm_sq(params: ModulationParams, zeta: complex) -> float:
    """Closed-form squared norm of (mu a + nu a†)^N |zeta>, the shift-0
    ``_laguerre_sum`` at r2 = |zeta|^2.

    Reduces to 1 at N = 0, to N! L_N(-|zeta|^2) for mu = 0, nu = 1 and to
    |zeta|^(2N) for mu = 1, nu = 0.
    """
    return _laguerre_sum(params, abs(complex(zeta)) ** 2, (0,))[0]


def build_state(params: ModulationParams, zeta: complex, dim: int | None = None) -> PMCState:
    """Oracle construction: normalize((mu a + nu a†)^N coherent(zeta)).

    Raises DegenerateStateError when the result has no usable norm: the
    operator annihilates the input (for example mu = 1, nu = 0, N >= 1 on
    zeta = 0), or the squared norm underflows below the smallest normal
    double, where it has lost its precision.  Tiny but representable norms
    (mu = 2/3, nu = 0, N = 32, |zeta| = 0.25 gives 1.6e-50) build normally.
    """
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
    nsq_paper = paper_norm_sq(params, zeta)
    disc = abs(nsq_paper - nsq_oracle) / nsq_oracle
    amps, _ = fock.normalize_rows(raw.amplitudes[None, :], [nsq_oracle], [None])
    return PMCState(
        params=params,
        zeta=zeta,
        vector=fock.FockVector(amps[0], raw.basis_offset),
        norm_sq_paper=nsq_paper,
        norm_sq_oracle=nsq_oracle,
        discrepancy=disc,
    )


def compare_norms(params: ModulationParams, zeta: complex, dim: int | None = None) -> NormComparison:
    """Quantifies the diagonal-only truncation of the closed-form norm."""
    state = build_state(params, zeta, dim)
    exact = params.N == 0 or params.mu == 0 or params.nu == 0
    return NormComparison(
        norm_sq_paper=state.norm_sq_paper,
        norm_sq_oracle=state.norm_sq_oracle,
        rel_gap=state.discrepancy,
        exact_regime=exact,
    )
