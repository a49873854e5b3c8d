"""A sweep line's states from one padded row-kernel pass per block must be,
bit for bit, the states its points get one at a time."""

import collections
import math
import sys
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import dense_reference
from pmcs import fock, states, sweeps
from pmcs.errors import PmcsError
from pmcs.weyl import ModulationParams

coefficient = st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False)
plane = st.complex_numbers(max_magnitude=12.0, allow_nan=False, allow_infinity=False)
# zeta = 0, a coherent row that underflows at every level, and a zeta that is not finite
special = st.sampled_from([0j, 1e6, complex(math.nan, 0.0)])


def outcome(state):
    """A built point as something equal only bit for bit (states) or by
    class and message (refusals)."""
    if isinstance(state, Exception):
        return type(state), str(state)
    return (
        state.amplitudes.tobytes(), state.dim, state.zeta,
        state.norm_sq_paper.hex(), state.norm_sq_oracle.hex(), state.discrepancy.hex(), state.tail_mass.hex(),
    )


def alone(build, params, zeta, dim):
    try:
        return outcome(build(params, zeta, dim))
    except (PmcsError, ValueError) as exc:
        return outcome(exc)


@st.composite
def lines(draw):
    """(params, zetas, dims) of one sweep line: default dimensions (mixed),
    one override for the line, or a dimension per point; N up to 32 meets
    dimensions below 4N, which refuse their point alone."""
    mu, nu, n_pow = draw(coefficient), draw(coefficient), draw(st.integers(0, 32))
    assume(n_pow == 0 or mu != 0 or nu != 0)
    zetas = draw(st.lists(st.one_of(plane, special), min_size=1, max_size=9))
    kind = draw(st.sampled_from(["default", "override", "per-point"]))
    if kind == "default":
        dims = None
    elif kind == "override":
        dims = [draw(st.integers(4, fock.DIM_CAP))] * len(zetas)
    else:
        dims = draw(st.lists(st.integers(4, fock.DIM_CAP), min_size=len(zetas), max_size=len(zetas)))
    return ModulationParams(mu, nu, n_pow), zetas, dims


class TestLineEqualsOnePointAtATime:
    @settings(max_examples=80, deadline=None)
    @given(lines())
    @example((ModulationParams(1, 0, 1), [0j, 1.0, 0.25j], None))  # the degenerate mu = 1, nu = 0, zeta = 0
    @example((ModulationParams(1 / 3, 2 / 3, 32), [0.5, 1e6, 3.0 + 1.0j, 0j], [64, 100, 127, 200]))
    @example((ModulationParams(0.3 - 0.1j, -0.8, 5), [0.1, 2.0, -1.5j, 0j, 4.0], None))
    @example((ModulationParams(-0.7, -0.3, 2), [0j, 2.0], None))  # a padding zero times -0.7 is -0
    def test_every_point_bit_for_bit(self, line):
        params, zetas, dims = line
        got = [outcome(state) for state in states.build_states(params, zetas, dims)]
        point_dims = dims or [None] * len(zetas)
        assert got == [alone(dense_reference.one_point_state, params, z, d) for z, d in zip(zetas, point_dims)]
        assert got == [alone(states.build_state, params, z, d) for z, d in zip(zetas, point_dims)]

    def test_lines_longer_than_a_block(self):
        params = ModulationParams(0.6 - 0.2j, 0.9, 3)
        zetas = [0.05 * k * (1.0 + 0.3j) for k in range(2 * fock.GRID_ROWS + 5)]
        dims = [fock.default_dim(z, params.N) for z in zetas]
        assert len(set(dims)) > 10
        got = [outcome(state) for state in states.build_states(params, zetas, dims)]
        assert got == [alone(dense_reference.one_point_state, params, z, d) for z, d in zip(zetas, dims)]

    def test_point_below_the_headroom_refuses_alone(self):
        params = ModulationParams(0.5, 0.5, 8)
        built = list(states.build_states(params, [1.0, 1.0, 1.0], [64, 31, 32]))
        assert outcome(built[1]) == (ValueError, "power N=8 needs dim >= 32, got 31")
        assert not isinstance(built[0], Exception) and not isinstance(built[2], Exception)

    def test_dimension_outside_the_cap_refuses_alone(self):
        params = ModulationParams(0.5, 0.5, 0)
        built = list(states.build_states(params, [1.0, 1.0, 1.0], [3, 40, fock.DIM_CAP + 1]))
        assert outcome(built[0]) == (ValueError, "dimension 3 below the minimum 4")
        assert outcome(built[2]) == (ValueError, f"dimension {fock.DIM_CAP + 1} exceeds the level cap {fock.DIM_CAP}")
        assert outcome(built[1]) == alone(dense_reference.one_point_state, params, 1.0, 40)


@pytest.mark.parametrize("engine", sweeps.ENGINES)
@pytest.mark.parametrize("preset", sweeps.PRESET_NAMES)
def test_sweep_equals_the_one_point_reference(preset, engine):
    cfg = replace(sweeps.preset_config(preset), engine=engine)
    got = sweeps.render(sweeps.run_sweep(cfg), cfg.family, "csv")
    assert got == sweeps.render(dense_reference.one_point_sweep(cfg), cfg.family, "csv")


def test_refused_params_refuse_every_point_of_their_line():
    cfg = sweeps.SweepConfig(
        family="a3", mu=(0.0,), nu=(0.0,), n_values=(0, 2), zeta=sweeps.ZetaGrid(0.5, 1.0, 3, (0.0, 1.0)),
    )
    rows = sweeps.run_sweep(cfg)
    assert sweeps.render(rows, "a3", "csv") == sweeps.render(dense_reference.one_point_sweep(cfg), "a3", "csv")
    refused = [row for row in rows if row.N == 2]
    assert len(refused) == 2 * 6
    assert all(row.error == "ValueError: mu and nu cannot both vanish for N > 0" for row in refused)


def test_fig2_builds_one_state_pass_per_line(monkeypatch):
    calls = {"coherent_rows": 0, "superposed_power_rows": 0}

    def counting(name):
        original = getattr(fock, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(fock, name, wrapper)

    for name in calls:
        counting(name)
    cfg = sweeps.preset_config("fig2")
    rows = sweeps.run_sweep(cfg)
    assert len(rows) == 4 * 48 and len(cfg.n_values) == 4 and cfg.zeta.r_steps == 12
    assert calls == {"coherent_rows": 4, "superposed_power_rows": 4}  # not 48, one per point


def test_peak_memory_is_bounded_by_the_block_not_the_line():
    # rows of their own default dimensions (34 to 65 levels), padded per block
    params = ModulationParams(1 / 3, 2 / 3, 2)

    def peak(count: int) -> int:
        zetas = [3.0 * k / count * (0.6 + 0.8j) for k in range(count)]
        tracemalloc.start()
        try:
            built = 0
            for state in states.build_states(params, zetas):
                assert not isinstance(state, Exception)
                built += 1
            used = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert built == count
        return used

    small, large = peak(2 * fock.GRID_ROWS), peak(4096)
    assert large - small < 1_000_000  # the per-point bookkeeping only


def test_a_state_is_a_read_only_view_of_its_block_row():
    built = list(states.build_states(ModulationParams(1 / 3, 2 / 3, 2), [0.5, 1.0, 2.0]))
    for state in built:
        with pytest.raises(ValueError, match="read-only"):
            state.amplitudes[0] = 0.0
    assert built[0].amplitudes.base is not None and built[0].amplitudes.base is built[1].amplitudes.base


@pytest.mark.parametrize("preset,count", [("fig1", 0), ("fig2", 0), ("fig3a", 0), ("fig3b", 0), ("fig4", 60)])
def test_sweeps_construct_fock_vectors_only_for_the_fidelity_reference(monkeypatch, preset, count):
    # a built state is its block row: outside the block passes of
    # build_states and the quasi-probability grid, the only vector the sweep
    # path builds is fidelity_oracle's coherent reference, one row per state
    # point, and no one-row wrapper of fock is called
    callers = collections.Counter()

    def counting(name):
        original = getattr(fock, name)

        def wrapper(*args, **kwargs):
            callers[sys._getframe(1).f_code.co_name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(fock, name, wrapper)

    for name in ("coherent_rows", "superposed_power_rows", "coherent_state", "apply_superposed_power"):
        counting(name)
    sweeps.run_sweep(sweeps.preset_config(preset))
    outside = {caller: n for caller, n in callers.items() if caller not in ("_build_block", "_quasiprob_block")}
    assert outside == ({"fidelity_oracle": count} if count else {})
