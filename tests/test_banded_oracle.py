"""The banded oracle against dense truncated-space products.

The dense references are built from ``dense_reference.ladder_ops``, so these tests
check the O(d) contractions of ``fock`` and ``nonclassical`` against an
independent d x d computation.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import dense_reference
from pmcs import fock, nonclassical as nc, states, sweeps
from pmcs.errors import ConvergenceError
from pmcs.nonclassical import UndefinedRatioError
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
        params=ModulationParams(0, 1, 0), zeta=0j, amplitudes=amp,
        norm_sq_paper=1.0, norm_sq_oracle=1.0, discrepancy=0.0, tail_mass=fock._tail_fraction(np.abs(amp) ** 2),
    )


def dense(amp: np.ndarray):
    """<v|M|v> for the truncated d x d matrices built from the ladder operators."""
    a, ad = dense_reference.ladder_ops(amp.size)

    def expect(mat):
        return complex(np.vdot(amp, mat @ amp))

    return a, ad, expect


def close(got, ref, scale=1.0):
    return got == pytest.approx(ref, rel=1e-12, abs=1e-12 * scale)


def a3_dets(m):
    """(det m, det mu) of ``nc.a3``, also where the ratio is undefined."""
    try:
        result = nc.a3(m)
    except UndefinedRatioError as exc:
        return exc.det_m, exc.det_mu
    return result.det_m, result.det_mu


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
        got = fock.apply_superposed_power(ModulationParams(mu, nu, n_pow), amp)
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert np.allclose(got, ref, rtol=1e-12, atol=1e-12 * scale)

    @settings(max_examples=60, deadline=None)
    @given(normalized_amplitudes(support=0.5))
    def test_moments(self, amp):
        # m_j against the dense a†^j a^j; a3's det mu, from the Stirling rows,
        # against the Hankel determinant of the dense (a†a)^j
        a, ad, expect = dense(amp)
        got = nc.moments_oracle(state_of(amp))
        for j in (1, 2, 3, 4):
            aj = np.linalg.matrix_power(a, j)
            assert close(got[j - 1], expect(aj.conj().T @ aj).real, float(amp.size) ** j)
        mu = [1.0] + [expect(np.linalg.matrix_power(ad @ a, j)).real for j in (1, 2, 3, 4)]
        hankel = np.array([mu[i:i + 3] for i in range(3)])
        assert close(a3_dets(got)[1], np.linalg.det(hankel), np.prod(np.abs(hankel).max(axis=1)))

    @settings(max_examples=60, deadline=None)
    @given(normalized_amplitudes())
    def test_squeezing_and_variances(self, amp):
        # Full support, top level included.  The dense truncated variances are
        # (1 + I)/2 less the top-level term d p_{d-1}/2: the truncated a a†
        # drops it, as a† maps |d-1> out of the space.
        a, ad, expect = dense(amp)
        ea, ead, ea2, ead2, en = (expect(m) for m in (a, ad, a @ a, ad @ ad, ad @ a))
        i1 = ea2 + ead2 - ea**2 - ead**2 - 2.0 * ea * ead + 2.0 * en
        i2 = -ea2 - ead2 + ea**2 + ead**2 - 2.0 * ea * ead + 2.0 * en
        x = (a + ad) / math.sqrt(2.0)
        y = 1j * (ad - a) / math.sqrt(2.0)
        vx, vy = ((expect(q @ q) - expect(q) ** 2).real for q in (x, y))

        with mock.patch.object(nc, "_check_moment_headroom", lambda *args: None):
            got_i1, got_i2 = nc.squeezing_identities(state_of(amp))
        scale = float(amp.size)
        assert close(got_i1, i1.real, scale) and close(got_i2, i2.real, scale)
        top = amp.size * abs(amp[-1]) ** 2 / 2.0
        assert close(vx + top, (1.0 + got_i1) / 2.0, scale) and close(vy + top, (1.0 + got_i2) / 2.0, scale)
        assert close(nc.uncertainty_product(got_i1, got_i2), (vx + top) * (vy + top), scale**2)

    @settings(max_examples=60, deadline=None)
    @given(normalized_amplitudes())
    def test_ladder_expectations_keep_truncation(self, amp):
        # Full support, top level included: the shifted vdots equal the
        # truncated d x d products.
        a, ad, expect = dense(amp)
        ref = [expect(m) for m in (a, a @ a, ad @ a)]
        got = nc._ladder_expectations(amp)
        for g, r in zip(got, ref):
            assert close(complex(g), r, float(amp.size))


def _outcome_bits(fn, state: PMCState):
    """fn(state) as the bytes of its values, or its refusal as (type, text)."""
    try:
        return np.array(fn(state)).tobytes()
    except ConvergenceError as exc:
        return type(exc), str(exc)


class TestLevelTables:
    """The diagnostics read level tables built once at import; the per-call
    weights of ``dense_reference`` give the same bits and the same refusals."""

    PAIRS = (
        (nc.moments_oracle, dense_reference.moments_oracle),
        (nc.squeezing_identities, dense_reference.squeezing_identities),
    )

    @staticmethod
    def amplitudes(rng, dim: int):
        """Random vectors with support clear of the top decile, at its edge
        and across it, and vectors whose populations decay as exp(-n/scale)
        with a top decile near the 1e-10 headroom threshold."""
        n = np.arange(dim)
        for support in (0.5, 0.9, 1.0):
            width = math.ceil(support * dim)
            amp = np.zeros(dim, dtype=complex)
            amp[:width] = rng.normal(size=width) + 1j * rng.normal(size=width)
            yield amp
        for top_fraction in np.logspace(-8, -16, 9):
            scale = 0.9 * dim / math.log(1.0 / top_fraction)
            yield np.exp(-n / (2.0 * scale) + 1j * rng.uniform(0.0, 2.0 * math.pi, dim))

    def test_every_dimension_up_to_the_cap(self):
        rng = np.random.default_rng(15)
        refused = accepted = 0
        for dim in range(4, fock.DIM_CAP + 1):
            for amp in self.amplitudes(rng, dim):
                state = state_of(amp / np.linalg.norm(amp))
                for got, want in self.PAIRS:
                    outcome = _outcome_bits(want, state)
                    assert _outcome_bits(got, state) == outcome, (dim, got.__name__)
                    refused += isinstance(outcome, tuple)
                    accepted += not isinstance(outcome, tuple)
        assert refused and accepted

    @pytest.mark.parametrize("n_pow", [1, 2, 6, 10])
    def test_sweep_states(self, n_pow):
        params = ModulationParams(1 / 3, 2 / 3, n_pow)
        zetas = [r * np.exp(0.7j) for r in np.linspace(0.25, 6.0, 24)]
        for dim in (None, 4, 16, fock.DIM_CAP):
            for state in states.build_states(params, zetas, None if dim is None else [dim] * len(zetas)):
                if isinstance(state, Exception):
                    continue
                for got, want in self.PAIRS:
                    assert _outcome_bits(got, state) == _outcome_bits(want, state)


class TestHeadroom:
    def test_squeezing_refuses_top_decile_weight(self):
        amp = np.zeros(40, dtype=complex)
        amp[0] = 1.0
        amp[38] = 1e-4
        state = state_of(amp / np.linalg.norm(amp))
        with pytest.raises(ConvergenceError, match="second-moment"):
            nc.squeezing_identities(state)

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
            "expectation": 0, "paper_norm_sq": 0,
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
            "expectation": 0, "paper_norm_sq": points,
            "displacement": 0, "density_and_trace": 0, "eigh": 0,
        }

    def test_squeeze_point_makes_one_ladder_pass(self, monkeypatch):
        # I1, I2 and the uncertainty product from one headroom check and one
        # pass over the amplitudes
        calls = {"_ladder_expectations": 0, "_check_moment_headroom": 0}

        def counting(name, original):
            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(nc, name, counting(name, getattr(nc, name)))
        cfg = SweepConfig(family="squeeze", mu=(1 / 3,), nu=(2 / 3,), n_values=(2,), zeta=ZetaGrid(1.0, 1.0, 1))
        rows = sweeps.run_sweep(cfg)
        assert [row.quantity for row in rows] == ["norm_sq", "I1", "I2", "uncertainty_product"]
        assert not any(row.error for row in rows)
        assert calls == {"_ladder_expectations": 1, "_check_moment_headroom": 1}

    def test_quasiprob_sweep_makes_one_grid_call_per_point(self, monkeypatch):
        cfg = SweepConfig(
            family="quasiprob", mu=(0.001,), nu=(1.2,), n_values=(0, 2),
            zeta=ZetaGrid(0.5, 1.0, 2, (math.pi / 2,)),
            quasi=QuasiSpec(s=-0.5, gamma=GammaGrid(0.3, 1.0, 3, (0.0, 1.0))),
        )
        calls = {"quasiprob_grid": 0, "quasiprob_oracle": 0, "coherent_state": 0, "build_states": 0}

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counting(nc, "quasiprob_grid")
        counting(nc, "quasiprob_oracle")
        counting(fock, "coherent_state")
        counting(states, "build_states")
        rows = sweeps.run_sweep(cfg)

        points = len(cfg.n_values) * cfg.zeta.r_steps * len(cfg.zeta.thetas)
        assert len(rows) == points * 6 and not any(row.error for row in rows)
        # the states come from one padded pass per N, no one-row coherent build
        assert calls == {
            "quasiprob_grid": points, "quasiprob_oracle": 0, "coherent_state": 0, "build_states": len(cfg.n_values),
        }
