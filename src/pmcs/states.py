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
``_laguerre_sum`` sums several Laguerre order shifts from one table lookup
(shift 0 is the norm, shifts 1..4 the moments, so an A3 point reads the
table twice).  Each term is (log |t_kl|^2, n, m), its annihilation power
n = k - l and creation power m = N - k - l, which index the row of powers
r2^n and the Laguerre orders m + shift; log o! comes from ``specfun``'s
table and log L_o and o log r2 once per order o of the row.
A state carries both norms, so a sweep point builds its state once and reads
the norm comparison from it.  ``build_states`` builds a sweep line's states
in one padded pass of the ``fock`` row kernels per block, bit-identical to
one point at a time; ``build_state`` is its one-point case.  A state is its
normalized block row (a read-only view of the block) plus the tail mass the
builder computes once per block.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import fock, weyl
from .errors import DegenerateStateError, outcome
from .specfun import _LOG_FACTORIALS, laguerre_table, log_sum
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
    amplitudes: np.ndarray  # read-only view of the state's normalized block row
    norm_sq_paper: float
    norm_sq_oracle: float
    discrepancy: float
    tail_mass: float

    @property
    def dim(self) -> int:
        return self.amplitudes.size


def _laguerre_sum(params: ModulationParams, r2: float, shifts: tuple[int, ...]) -> tuple[float, ...]:
    """For each shift of ``shifts``, from one lattice lookup, the sum with the
    (N-k-l+shift)! L_{N-k-l+shift}(-r2) factor:

        (N!)^2 sum_k |mu|^(2k) |nu|^(2(N-k)) sum_l (1/4)^l r2^(k-l)
            (N-k-l+shift)! L_{N-k-l+shift}(-r2) / (l! (k-l)! (N-k-l)!)^2

    Shift 0 is the closed-form squared norm, shift j the unnormalized m_j.
    The values come from one Laguerre row up to order N + max(shifts), whose
    prefix the recurrence makes equal to every shorter row.  The terms are
    the lattice table's (log |t_kl|^2, n, m), n = k - l and m = N - k - l,
    and log o! comes from ``specfun``'s table.
    """
    terms = weyl._lattice(params)
    log_r2 = math.log(r2) if r2 else -math.inf
    log_lags = [math.log(v) for v in laguerre_table(params.N + max(shifts), -r2)]  # positive for r2 >= 0
    log_powers = [o * log_r2 if o else 0.0 for o in range(params.N + 1)]
    sums = []
    for shift in shifts:
        facts, lags = _LOG_FACTORIALS[shift:], log_lags[shift:]
        sums.append(log_sum([
            log_t2 + ((log_powers[n] + facts[m]) + lags[m]) for log_t2, n, m in terms
        ]))
    return tuple(sums)


def paper_norm_sq(params: ModulationParams, zeta: complex) -> float:
    """Closed-form squared norm of (mu a + nu a†)^N |zeta>, the shift-0
    ``_laguerre_sum`` at r2 = |zeta|^2.

    Reduces to 1 at N = 0, to N! L_N(-|zeta|^2) for mu = 0, nu = 1 and to
    |zeta|^(2N) for mu = 1, nu = 0.
    """
    return _laguerre_sum(params, abs(complex(zeta)) ** 2, (0,))[0]


def build_states(params: ModulationParams, zetas, dims=None):
    """normalize((mu a + nu a†)^N coherent(zeta)) for each zeta of a sweep
    line, in dims[i] levels (default ``fock.default_dim``): yields, in order,
    each point's PMCState or the PmcsError or ValueError that refuses it, a
    DegenerateStateError where the operator annihilates the input (mu = 1,
    nu = 0, N >= 1 on zeta = 0) or the squared norm underflows below the
    smallest normal double (1.6e-50 at mu = 2/3, nu = 0, N = 32, |zeta| =
    0.25 builds).  ``fock.GRID_ROWS`` points at a time go through one
    ``coherent_rows`` and one ``superposed_power_rows`` call, each row at its
    own dimension inside the block's zero padding, so every state and
    refusal is bit for bit the one its point gets alone.
    """
    zetas = [complex(z) for z in zetas]
    dims = [None] * len(zetas) if dims is None else list(dims)
    step = fock.GRID_ROWS
    for start in range(0, len(zetas), step):
        yield from _build_block(params, zetas[start:start + step], dims[start:start + step])


def _build_block(params: ModulationParams, zetas: list[complex], dims: list) -> list:
    out: list = [None] * len(zetas)
    for i, zeta in enumerate(zetas):
        if not cmath.isfinite(zeta):
            out[i] = ValueError(f"zeta must be finite, got {zeta}")
            continue
        dims[i] = fock.default_dim(zeta, params.N) if dims[i] is None else dims[i]
        out[i] = outcome(fock._check_dim, dims[i], 4)  # None for a dimension in range
    live = [i for i, refusal in enumerate(out) if refusal is None]
    if not live:
        return out
    own = [dims[i] for i in live]
    width = max(own)
    own = None if min(own) == width else own  # a block of one dimension is not masked
    coherent, _, coherent_errors = fock.coherent_rows([zetas[i] for i in live], width, own)
    raw, nsq, raw_errors = fock.superposed_power_rows(params, coherent, [0] * len(live), own)
    errors = [c or r for c, r in zip(coherent_errors, raw_errors)]
    for j, i in enumerate(live):
        if errors[j] is None and not nsq[j] >= sys.float_info.min:
            errors[j] = DegenerateStateError(
                f"(mu a + nu a†)^{params.N} |zeta={zetas[i]}> has squared norm {nsq[j]:.3g}: "
                "the operator annihilates the input, or the norm underflows the double range"
            )
    amps, _ = fock.normalize_rows(raw, nsq, errors)
    amps.setflags(write=False)
    tails = fock._tail_fractions(np.abs(amps) ** 2, own)
    for j, i in enumerate(live):
        paper = errors[j] or outcome(paper_norm_sq, params, zetas[i])
        out[i] = paper if isinstance(paper, Exception) else PMCState(
            params=params, zeta=zetas[i], amplitudes=amps[j, :dims[i]], norm_sq_paper=paper,
            norm_sq_oracle=nsq[j], discrepancy=abs(paper - nsq[j]) / nsq[j], tail_mass=tails[j],
        )
    return out


def build_state(params: ModulationParams, zeta: complex, dim: int | None = None) -> PMCState:
    """The one-point case of ``build_states``, raising the exception that
    refuses the point."""
    (state,) = build_states(params, [zeta], None if dim is None else [dim])
    if isinstance(state, Exception):
        raise state
    return state


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
