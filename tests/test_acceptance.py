"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 6's squeezing-sign claims are contradicted by the exact oracle
(see notes in the repository root's sibling decisions ledger): for real
mu = 1/3, nu = 2/3 and real zeta the squeezing lives in the X quadrature
(I1 < 0 for r beyond ~0.6) while I2 stays positive; both indicators are
positive at small r.  The test evaluates the stated claims verbatim, prints
the measured counterexamples, and records the expected failure.
"""

import math
import time

import numpy as np
import pytest

from pmcs import fock, nonclassical as nc, states, sweeps, wavefunctions as wf, weyl
from pmcs.errors import ConvergenceError
from pmcs.nonclassical import QuasiProbParams
from pmcs.specfun import laguerre
from pmcs.weyl import ModulationParams

R_GRID = [0.25 * k for k in range(1, 13)]  # 0.25, 0.5, ..., 3.0


def report(num, ok, detail):
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_01_weyl_expansion_exactness():
    mus = (1.0, 0.5 - 0.3j, -0.7 + 0.2j, 1.1j)
    nus = (1.0, 0.8 + 0.1j, -0.4j, 0.6 - 0.5j)
    dim, half = 64, 32
    started = time.monotonic()
    worst = 0.0
    a_op, ad_op = fock.ladder_ops(dim)
    for n_pow in range(9):
        for mu in mus:
            for nu in nus:
                series = weyl.expand_superposed_power(ModulationParams(mu, nu, n_pow))
                rebuilt = weyl.series_to_matrix(series, dim).matrix[:half, :half]
                ref = np.linalg.matrix_power(mu * a_op.matrix + nu * ad_op.matrix, n_pow)[:half, :half]
                # entries reach ~1e8 at N = 8, where double precision caps the
                # absolute agreement near 1e-8; 1e-10 is enforced per entry
                # relative to its magnitude (and absolutely for O(1) entries)
                worst = max(worst, float(np.max(np.abs(rebuilt - ref) / (1.0 + np.abs(ref)))))
    elapsed = time.monotonic() - started
    ok = worst < 1e-10 and elapsed < 5.0
    report(1, ok, f"series rebuild vs dense power, worst scaled |diff| {worst:.2e} on the "
                  f"lower {half}-block for N<=8 over a 4x4 (mu,nu) grid in {elapsed:.2f}s")
    assert worst < 1e-10
    assert elapsed < 5.0


def test_criterion_02_ordering_identities():
    dim = 48
    exact = True
    for j in range(1, 9):
        diag = np.diag(weyl.series_to_matrix(weyl.expand_number_power(j), dim).matrix).real
        exact = exact and np.array_equal(diag[:21], np.arange(21, dtype=float) ** j)
    worst = 0.0
    for lam in (math.log(2.0), 1 + 0.3j):
        op = fock.operator_exp_number(lam, 60)
        for alpha in (0.5, 1.3 - 0.4j, 1.8j):
            vec, _ = fock.coherent_state(alpha, 60)
            ref = fock.expectation(op, vec)
            got = weyl.exp_number_coherent_expectation(lam, alpha)
            worst = max(worst, abs(got - ref) / abs(ref))
    ok = exact and worst < 1e-9
    report(2, ok, f"(a†a)^j integer-exact for j<=8, n<=20: {exact}; exp(-lam n̂) "
                  f"coherent elements worst rel err {worst:.2e}")
    assert exact
    assert worst < 1e-9


def test_criterion_03_normalization_reductions():
    assert states.paper_norm_sq(ModulationParams(0.2, 0.7, 0), 1.7) == 1.0
    worst_special, worst_oracle = 0.0, 0.0
    for n_pow in (1, 2, 3, 4):
        for r in (0.5, 1.0, 2.0):
            added = ModulationParams(0, 1, n_pow)
            got = states.paper_norm_sq(added, r)
            ref = math.factorial(n_pow) * laguerre(n_pow, -(r**2))
            worst_special = max(worst_special, abs(got - ref) / ref)
            cmp_ = states.compare_norms(added, r)
            worst_oracle = max(worst_oracle, cmp_.rel_gap)

            subtracted = ModulationParams(1, 0, n_pow)
            got = states.paper_norm_sq(subtracted, r)
            ref = r ** (2 * n_pow)
            worst_special = max(worst_special, abs(got - ref) / ref)
            cmp_ = states.compare_norms(subtracted, r)
            worst_oracle = max(worst_oracle, cmp_.rel_gap)
    ok = worst_special < 1e-12 and worst_oracle < 1e-8
    report(3, ok, f"norm reductions: N=0 gives 1; added/subtracted closed forms "
                  f"worst rel err {worst_special:.2e} vs specials, {worst_oracle:.2e} vs oracle")
    assert worst_special < 1e-12
    assert worst_oracle < 1e-8


def test_criterion_04_cross_term_gap_measured():
    params = ModulationParams(1 / math.sqrt(2), 1 / math.sqrt(2), 1)
    cmp_real = states.compare_norms(params, 1.0)
    cmp_phase = states.compare_norms(params, complex(math.cos(math.pi / 4), math.sin(math.pi / 4)))
    ok = (
        abs(cmp_real.rel_gap - 0.4) <= 1e-6
        and cmp_real.norm_sq_oracle == pytest.approx(2.5, rel=1e-9)
        and cmp_real.norm_sq_paper == pytest.approx(1.5, rel=1e-9)
        and cmp_phase.rel_gap <= 1e-8
    )
    report(4, ok, f"cross-term gap at mu=nu=1/sqrt2, N=1, zeta=1: oracle "
                  f"{cmp_real.norm_sq_oracle:.6f} vs closed form {cmp_real.norm_sq_paper:.6f}, "
                  f"rel_gap {cmp_real.rel_gap:.8f}; imaginary-zeta^2 gap {cmp_phase.rel_gap:.2e}")
    assert abs(cmp_real.rel_gap - 0.4) <= 1e-6
    assert cmp_phase.rel_gap <= 1e-8


def test_criterion_05_a3_figure_regime():
    values = {}
    for r in R_GRID:
        state = states.build_state(ModulationParams(1 / 3, 2 / 3, 2), r)
        values[r] = nc.a3(nc.moments_oracle(state)).a3
    in_window = all(-1.0 < v < 0.0 for v in values.values())
    decays = abs(values[3.0]) < abs(values[0.5])
    coherent = nc.a3(nc.moments_oracle(states.build_state(ModulationParams(0, 1, 0), 1.0))).a3
    fock3 = nc.a3(nc.moments_oracle(states.build_state(ModulationParams(0, 1, 3), 0.0))).a3
    ok = in_window and decays and abs(coherent) <= 1e-10 and abs(fock3 + 1.0) <= 1e-9
    report(5, ok, f"A3(N=2) in (-1,0) at all sampled r: {in_window}; "
                  f"|A3(3.0)|={abs(values[3.0]):.4f} < |A3(0.5)|={abs(values[0.5]):.4f}; "
                  f"coherent {coherent:.2e}; Fock|3> {fock3:.12f}")
    assert in_window
    assert decays
    assert abs(coherent) <= 1e-10
    assert abs(fock3 + 1.0) <= 1e-9


def test_criterion_06_squeezing_figure_regime():
    i1_values, i2_values, product_ok = [], [], True
    for n_pow in (1, 2, 3, 6):
        for r in R_GRID:
            state = states.build_state(ModulationParams(1 / 3, 2 / 3, n_pow), r)
            i1, i2 = nc.squeezing_identities(state)
            i1_values.append((n_pow, r, i1))
            i2_values.append((n_pow, r, i2))
            product_ok = product_ok and nc.uncertainty_product(state) >= 0.25 - 1e-10
    assert product_ok  # the uncertainty bound holds regardless
    i2_all_negative = all(v < 0 for _, _, v in i2_values)
    i1_all_positive = all(v > 0 for _, _, v in i1_values)
    ok = i2_all_negative and i1_all_positive
    sample = next((t for t in i1_values if t[2] < 0), None)
    report(6, ok, "I2<0 and I1>0 on the grid as stated"
           if ok else
           f"oracle contradicts the stated signs: I1<0 at N={sample[0]}, r={sample[1]} "
           f"(I1={sample[2]:.6f}, exact -40/169 at N=1, r=1) while I2 stays positive "
           f"(I2={dict(((n, r), v) for n, r, v in i2_values)[(1, 1.0)]:.6f} = 8/13 at N=1, r=1); "
           f"uncertainty bound holds everywhere")
    if not ok:
        pytest.xfail(
            "squeezing criterion as stated is unattainable: the exact oracle puts the "
            "squeezing in X (I1 < 0 for r beyond ~0.6, hand-verified I1 = -40/169 at "
            "N=1, zeta=1) and never in Y (I2 = 8/13 > 0 there); both indicators are "
            "positive at small r.  See the decisions ledger."
        )


def test_criterion_07_quasiprob_figure_regime():
    params = ModulationParams(0.001, 1.2, 2)
    state = states.build_state(params, 1j, dim=128)
    axis = np.linspace(-3.0, 3.0, 21)
    grid = [complex(x, y) for x in axis for y in axis if abs(complex(x, y)) <= 3.0]

    negatives, converged, refused = 0, 0, 0
    for gamma in grid:
        try:
            value = nc.quasiprob_oracle(state, QuasiProbParams(gamma, 1.2))
        except ConvergenceError:
            refused += 1
            continue
        converged += 1
        if value < 0.0:
            negatives += 1

    husimi_min = math.inf
    small_state = states.build_state(ModulationParams(1 / 3, 2 / 3, 2), 1.0)
    for test_state in (state, small_state):
        for gamma in grid:
            husimi_min = min(husimi_min, nc.quasiprob_oracle(test_state, QuasiProbParams(gamma, -1.0)))

    # midpoint-rule normalization of the s = -1 distribution
    step = 0.375
    axis_q = np.arange(-4.5 + step / 2, 4.5, step)
    total = sum(
        nc.quasiprob_oracle(small_state, QuasiProbParams(complex(x, y), -1.0))
        for x in axis_q
        for y in axis_q
    ) * step**2 / math.pi
    ok = negatives >= 1 and husimi_min >= -1e-10 and abs(total - 1.0) <= 0.02
    report(7, ok, f"s=1.2 grid: {converged} converged points ({refused} refused as "
                  f"non-decaying), {negatives} negative; Husimi min {husimi_min:.2e}; "
                  f"(1/pi) integral of Q = {total:.4f}")
    assert negatives >= 1
    assert husimi_min >= -1e-10
    assert abs(total - 1.0) <= 0.02


def test_criterion_08_fidelity_figure_regime():
    params0 = ModulationParams(1 / 3, 2 / 3, 0)
    paper0 = nc.fidelity_paper(params0, 1.0, states.paper_norm_sq(params0, 1.0))
    oracle0 = nc.fidelity_oracle(states.build_state(params0, 1.0))
    decreasing = True
    for r in (0.5, 1.0, 2.0):
        vals = [
            nc.fidelity_oracle(states.build_state(ModulationParams(1 / 3, 2 / 3, n), r))
            for n in (0, 1, 3, 10)
        ]
        decreasing = decreasing and all(a > b for a, b in zip(vals, vals[1:]))
    hand = nc.fidelity_oracle(states.build_state(ModulationParams(0, 1, 1), 1.0))
    ok = (
        abs(paper0 - 1.0) <= 1e-10 and abs(oracle0 - 1.0) <= 1e-10
        and decreasing and abs(hand - 0.5) <= 1e-9
    )
    report(8, ok, f"N=0: paper {paper0:.12f}, oracle {oracle0:.12f}; strictly decreasing "
                  f"over N in (0,1,3,10) at r in (0.5,1,2): {decreasing}; hand point {hand:.10f}")
    assert abs(paper0 - 1.0) <= 1e-10
    assert abs(oracle0 - 1.0) <= 1e-10
    assert decreasing
    assert abs(hand - 0.5) <= 1e-9


def test_criterion_09_wavefunction_layer():
    levels = (0, 3, 4, 5, 6, 7)
    worst_off, worst_diag = 0.0, 0.0
    for i, n1 in enumerate(levels):
        for n2 in levels[i:]:
            value = wf.orthonormality_check(n1, n2)
            if n1 == n2:
                worst_diag = max(worst_diag, abs(value - 1.0))
            else:
                worst_off = max(worst_off, abs(value))
    worst_resid = max(wf.schrodinger_residual(n) for n in (0, 3, 4, 5))
    v0 = wf.potential(0.0)
    ok = worst_off < 1e-7 and worst_diag < 1e-7 and worst_resid < 1e-4 and v0 == -8.0
    report(9, ok, f"orthonormality: off-diag {worst_off:.2e}, diag dev {worst_diag:.2e}; "
                  f"stationary-equation residual {worst_resid:.2e}; V(0) = {v0}")
    assert worst_off < 1e-7
    assert worst_diag < 1e-7
    assert worst_resid < 1e-4
    assert v0 == -8.0


def test_criterion_10_preset_determinism():
    identical = True
    for name in sweeps.PRESET_NAMES:
        cfg = sweeps.preset_config(name)
        first = sweeps.render(sweeps.run_sweep(cfg), cfg.family, cfg.format)
        second = sweeps.render(sweeps.run_sweep(cfg), cfg.family, cfg.format)
        identical = identical and first.encode() == second.encode()
    report(10, identical, f"presets {', '.join(sweeps.PRESET_NAMES)} re-run byte-identical: {identical}")
    assert identical
