"""The banded oracle against dense truncated-space products.

The dense references are built here from ``fock.ladder_ops``, so these tests
check the O(d) contractions of ``fock`` and ``nonclassical`` against an
independent d x d computation.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from pmcs import fock, nonclassical as nc, states, sweeps
from pmcs.errors import ConvergenceError
from pmcs.states import PMCState
from pmcs.sweeps import GammaGrid, QuasiSpec, SweepConfig, ZetaGrid
from pmcs.weyl import ModulationParams

coefficient = st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False)


@st.composite
def normalized_amplitudes(draw, min_dim=4, max_dim=64, support=1.0):
    """A random normalized vector of dimension d whose nonzero amplitudes sit
    on the lowest ceil(support * d) levels."""
    dim = draw(st.integers(min_value=min_dim, max_value=max_dim))
    width = max(1, math.ceil(support * dim))
    parts = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
    re = draw(st.lists(parts, min_size=width, max_size=width))
    im = draw(st.lists(parts, min_size=width, max_size=width))
    amp = np.zeros(dim, dtype=complex)
    amp[:width] = np.array(re) + 1j * np.array(im)
    norm = np.linalg.norm(amp)
    if norm < 1e-3:
        amp[0] = 1.0
        norm = np.linalg.norm(amp)
    return amp / norm


def state_of(amp: np.ndarray) -> PMCState:
    return PMCState(
        params=ModulationParams(0, 1, 0), zeta=0j, vector=fock.FockVector(amp),
        norm_sq_paper=1.0, norm_sq_oracle=1.0, discrepancy=0.0,
    )


def dense(amp: np.ndarray):
    """<v|M|v> for the truncated d x d matrices built from the ladder operators."""
    a, ad = (op.matrix for op in fock.ladder_ops(amp.size))

    def expect(mat):
        return complex(np.vdot(amp, mat @ amp))

    return a, ad, expect


def close(got, ref, scale=1.0):
    return got == pytest.approx(ref, rel=1e-12, abs=1e-12 * scale)


class TestAgainstDense:
    @settings(max_examples=60, deadline=None)
    @given(normalized_amplitudes(support=0.5), coefficient, coefficient, st.integers(0, 16))
    def test_superposed_power(self, amp, mu, nu, n_pow):
        n_pow = min(n_pow, amp.size // 4)
        assume(n_pow == 0 or mu != 0 or nu != 0)
        a, ad, _ = dense(amp)
        ref = amp
        for _ in range(n_pow):
            ref = (mu * a + nu * ad) @ ref
        got = fock.apply_superposed_power(ModulationParams(mu, nu, n_pow), fock.FockVector(amp))
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert np.allclose(got.amplitudes, ref, rtol=1e-12, atol=1e-12 * scale)

    @settings(max_examples=60, deadline=None)
    @given(normalized_amplitudes(support=0.5))
    def test_moments(self, amp):
        a, ad, expect = dense(amp)
        got = nc.moments_oracle(state_of(amp))
        n_op = ad @ a
        for j in (1, 2, 3, 4):
            aj = np.linalg.matrix_power(a, j)
            scale = float(amp.size) ** j
            assert close(got.m[j - 1], expect(aj.conj().T @ aj).real, scale)
            assert close(got.mu[j - 1], expect(np.linalg.matrix_power(n_op, j)).real, scale)

    @settings(max_examples=60, deadline=None)
    @given(normalized_amplitudes(support=0.5))
    def test_squeezing_and_variances(self, amp):
        a, ad, expect = dense(amp)
        ea, ead, ea2, ead2, en = (expect(m) for m in (a, ad, a @ a, ad @ ad, ad @ a))
        i1 = ea2 + ead2 - ea**2 - ead**2 - 2.0 * ea * ead + 2.0 * en
        i2 = -ea2 - ead2 + ea**2 + ead**2 - 2.0 * ea * ead + 2.0 * en
        x = (a + ad) / math.sqrt(2.0)
        y = 1j * (ad - a) / math.sqrt(2.0)
        vx, vy = ((expect(q @ q) - expect(q) ** 2).real for q in (x, y))

        state = state_of(amp)
        scale = float(amp.size)
        got_i1, got_i2 = nc.squeezing_identities(state)
        assert close(got_i1, i1.real, scale) and close(got_i2, i2.real, scale)
        got_vx, got_vy = nc.quadrature_variances(state)
        assert close(got_vx, vx, scale) and close(got_vy, vy, scale)

    @settings(max_examples=60, deadline=None)
    @given(normalized_amplitudes())
    def test_ladder_expectations_keep_truncation(self, amp):
        # Full support, top level included: <a a†> must drop the top level as
        # the truncated product a @ a† does (a† maps |d-1> out of the space).
        a, ad, expect = dense(amp)
        ref = [expect(m) for m in (a, ad, a @ a, ad @ ad, ad @ a, a @ ad)]
        got = nc._ladder_expectations(fock.FockVector(amp))
        for g, r in zip(got, ref):
            assert close(complex(g), r, float(amp.size))


class TestHeadroom:
    def test_squeezing_refuses_top_decile_weight(self):
        amp = np.zeros(40, dtype=complex)
        amp[0] = 1.0
        amp[38] = 1e-4
        state = state_of(amp / np.linalg.norm(amp))
        for diagnostic in (nc.squeezing_identities, nc.quadrature_variances, nc.uncertainty_product):
            with pytest.raises(ConvergenceError, match="second-moment"):
                diagnostic(state)

    def test_moments_refuse_top_decile_weight(self):
        amp = np.zeros(40, dtype=complex)
        amp[0] = 1.0
        amp[38] = 1e-4
        with pytest.raises(ConvergenceError, match="fourth-moment"):
            nc.moments_oracle(state_of(amp / np.linalg.norm(amp)))


class TestWorkCounts:
    CONFIGS = (
        SweepConfig(
            family="a3", mu=(1 / 3,), nu=(2 / 3,), n_values=(1, 3),
            zeta=ZetaGrid(0.5, 2.0, 3),
        ),
        SweepConfig(
            family="squeeze", mu=(1 / 3,), nu=(2 / 3,), n_values=(1, 2),
            zeta=ZetaGrid(0.5, 2.0, 3),
        ),
        SweepConfig(
            family="fidelity", mu=(1 / 3,), nu=(2 / 3,), n_values=(0, 2),
            zeta=ZetaGrid(0.5, 2.0, 3),
        ),
        SweepConfig(
            family="quasiprob", mu=(0.001,), nu=(1.2,), n_values=(1, 2),
            zeta=ZetaGrid(1.0, 1.0, 1, (math.pi / 2,)),
            quasi=QuasiSpec(s=-0.5, gamma=GammaGrid(0.3, 1.0, 3, (0.0, 1.0))),
        ),
    )

    @pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.family)
    def test_no_dense_algebra_and_one_norm_walk_per_point(self, monkeypatch, cfg):
        calls = {
            "expectation": 0, "ladder_ops": 0, "paper_norm_sq": 0,
            "displacement": 0, "density_and_trace": 0, "eigh": 0,
        }

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        # every module that holds one of the functions, under whatever import
        for module in (fock, states, nc, sweeps):
            for name in calls:
                if name in vars(module):
                    monkeypatch.setattr(module, name, counting(name, vars(module)[name]))
        monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
        rows = sweeps.run_sweep(cfg)

        points = len(cfg.n_values) * cfg.zeta.r_steps * len(cfg.zeta.thetas)  # one mu, one nu
        assert not any(row.error for row in rows)
        assert calls == {
            "expectation": 0, "ladder_ops": 0, "paper_norm_sq": points,
            "displacement": 0, "density_and_trace": 0, "eigh": 0,
        }
