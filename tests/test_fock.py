import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import dense_reference
from pmcs import fock
from pmcs.errors import ConvergenceError
from pmcs.specfun import log_factorial_value
from pmcs.weyl import ModulationParams

small_complex = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


class TestLadders:
    def test_annihilation_entry(self):
        a, _ = dense_reference.ladder_ops(8)
        assert a.matrix[0, 1] == 1.0

    def test_commutator_structure(self):
        # [a, a†] = I everywhere except the truncation corner, which is 1 - D.
        # sqrt(n)*sqrt(n) is not exactly n in floats, hence machine tolerance.
        for dim in (12, 64):
            a, ad = dense_reference.ladder_ops(dim)
            comm = a.matrix @ ad.matrix - ad.matrix @ a.matrix - np.eye(dim)
            corner = comm[dim - 1, dim - 1].real
            assert corner == pytest.approx(-dim, rel=4e-15)
            comm = comm.copy()
            comm[dim - 1, dim - 1] = 0.0
            off = np.abs(comm)
            off_diag = off - np.diag(np.diag(off))
            assert np.max(off_diag) == 0.0
            assert np.max(np.diag(off)) < 4e-14 * dim

    def test_number_operator_exact(self):
        dim = 40
        nop = dense_reference.number_operator(dim)
        assert np.array_equal(nop.matrix, np.diag(np.arange(dim)).astype(complex))
        a, ad = dense_reference.ladder_ops(dim)
        assert np.max(np.abs(ad.matrix @ a.matrix - nop.matrix)) < 4e-14 * dim

    def test_dim_cap(self):
        with pytest.raises(ValueError, match="exceeds the dense cap"):
            fock.coherent_state(1.0, 300)


class TestCoherentState:
    def test_vacuum(self):
        vec, tail = fock.coherent_state(0.0, 8)
        expected = np.zeros(8, complex)
        expected[0] = 1.0
        assert np.array_equal(vec.amplitudes, expected)
        assert tail == 0.0

    def test_mean_photon_number(self):
        vec, _ = fock.coherent_state(1.0, 40)
        nop = dense_reference.number_operator(40)
        assert fock.expectation(nop, vec).real == pytest.approx(1.0, abs=1e-10)

    def test_normalized(self):
        vec, _ = fock.coherent_state(2j, 60)
        assert vec.norm_sq() == pytest.approx(1.0, abs=1e-12)

    def test_unconverged_truncation_raises(self):
        with pytest.raises(ConvergenceError):
            fock.coherent_state(4.0, 16)

    @pytest.mark.parametrize("zeta", [1e6, 1e200j])
    def test_underflow_at_every_level_raises(self, zeta):
        # every amplitude below the double range: a truncation failure, not a zero vector
        with pytest.raises(ConvergenceError, match="underflows at every level"):
            fock.coherent_state(zeta, 256)

    @given(small_complex, small_complex)
    def test_overlap_formula(self, z1, z2):
        v1, _ = fock.coherent_state(z1, 60)
        v2, _ = fock.coherent_state(z2, 60)
        got = v1.inner(v2)
        ref = np.exp(-(abs(z1) ** 2 + abs(z2) ** 2) / 2 + np.conj(z1) * z2)
        assert got == pytest.approx(ref, abs=1e-10)

    @pytest.mark.parametrize("zeta", [0.3, 1.0 + 1.0j, -2.5j, 4.0 * cmath.exp(0.7j), 9.0])
    def test_amplitudes_bitwise_equal_per_level_expression(self, zeta):
        # the log-factorial table must reproduce log_factorial_value(k) level by
        # level, in a one-row call and in a row beside others (the vacuum, a
        # row that underflows, a second amplitude)
        compared = 0
        for dim in range(4, fock.DIM_CAP + 1):
            amps, tails, errors = fock.coherent_rows([0.0, zeta, 1e6, 0.5 * zeta], dim)
            try:
                vec, tail = fock.coherent_state(zeta, dim)
            except ConvergenceError as exc:
                assert (type(errors[1]), str(errors[1])) == (type(exc), str(exc))
                continue
            n = np.arange(dim)
            log_mag = n * math.log(abs(zeta)) - 0.5 * np.array([log_factorial_value(int(k)) for k in n])
            log_mag -= abs(zeta) * abs(zeta) / 2.0
            amp = np.exp(np.maximum(log_mag, -745.0)) * np.exp(1j * cmath.phase(zeta) * n)
            amp[log_mag < -745.0] = 0.0
            ref = fock.FockVector(amp).normalized()
            assert np.array_equal(vec.amplitudes, ref.amplitudes)
            assert errors[1] is None and tails[1] == tail
            assert np.array_equal(amps[1], ref.amplitudes)
            assert np.array_equal(amps[0], np.eye(dim)[0]) and isinstance(errors[2], ConvergenceError)
            compared += 1
        assert compared >= 50

    def test_underflowing_phase_is_zero(self):
        # atan2(5e-324, 2) underflows; cmath.phase raised OverflowError on it
        vec, _ = fock.coherent_state(2.0 + 5e-324j, 40)
        assert np.array_equal(vec.amplitudes, fock.coherent_state(2.0, 40)[0].amplitudes)

    def test_eigenvalue_property(self):
        vec, _ = fock.coherent_state(0.7 - 0.4j, 40)
        a, _ = dense_reference.ladder_ops(40)
        assert fock.expectation(a, vec) == pytest.approx(0.7 - 0.4j, abs=1e-10)


class TestSuperposedPower:
    def test_zero_shift_is_bit_identical(self):
        vec, _ = fock.coherent_state(0.9 - 0.3j, 48)
        params = ModulationParams(0.4 + 0.1j, 1.2, 5)
        plain = fock.apply_superposed_power(params, vec)
        assert np.array_equal(fock.apply_superposed_power(params, vec, 0j).amplitudes, plain.amplitudes)

    @given(small_complex, st.integers(1, 6))
    def test_shift_adds_identity_term(self, shift, n_pow):
        vec, _ = fock.coherent_state(0.8 + 0.2j, 64)
        params = ModulationParams(0.3, 0.7 - 0.2j, n_pow)
        a, ad = (op.matrix for op in dense_reference.ladder_ops(64))
        ref = vec.amplitudes
        for _ in range(n_pow):
            ref = (params.mu * a + params.nu * ad + shift * np.eye(64)) @ ref
        got = fock.apply_superposed_power(params, vec, shift).amplitudes
        assert np.allclose(got, ref, rtol=1e-12, atol=1e-12 * float(np.max(np.abs(ref))))

    def test_identity_power(self):
        vec, _ = fock.coherent_state(0.5, 32)
        out = fock.apply_superposed_power(ModulationParams(1, 1, 0), vec)
        assert out is vec

    def test_single_creation_on_vacuum(self):
        vec, _ = fock.coherent_state(0.0, 16)
        out = fock.apply_superposed_power(ModulationParams(0, 1, 1), vec)
        expected = np.zeros(16, complex)
        expected[1] = 1.0
        assert np.allclose(out.amplitudes, expected, atol=1e-15)

    def test_annihilation_eigenvalue(self):
        zeta = 1.2 + 0.3j
        vec, _ = fock.coherent_state(zeta, 50)
        out = fock.apply_superposed_power(ModulationParams(1, 0, 1), vec)
        assert np.allclose(out.amplitudes, zeta * vec.amplitudes, atol=1e-12)

    @given(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
        st.complex_numbers(max_magnitude=1.2, allow_nan=False, allow_infinity=False),
    )
    def test_power_composition(self, na, nb, mu):
        vec, _ = fock.coherent_state(0.8, 64)
        p_ab = ModulationParams(mu, 1.0, na + nb)
        combined = fock.apply_superposed_power(p_ab, vec)
        step_a = fock.apply_superposed_power(ModulationParams(mu, 1.0, na), vec)
        step_b = fock.apply_superposed_power(ModulationParams(mu, 1.0, nb), step_a)
        scale = max(1.0, float(np.max(np.abs(combined.amplitudes))))
        assert np.allclose(combined.amplitudes, step_b.amplitudes, atol=1e-12 * scale)

    def test_headroom_guard(self):
        vec, _ = fock.coherent_state(0.0, 16)
        with pytest.raises(ValueError):
            fock.apply_superposed_power(ModulationParams(0, 1, 5), vec)

    @pytest.mark.parametrize("n_pow", [0, 1, 3, 8])
    def test_rows_equal_one_row_calls(self, n_pow):
        # per-row shifts, zero shifts among nonzero ones, and rows that fail on
        # their own: mass pushed into the top decile, amplitudes overflowing
        # (a ConvergenceError, not a ValueError: the rows come in finite)
        dim = 40
        rows = [fock.coherent_state(z, dim)[0].amplitudes for z in (0.4, 1.1 - 0.6j, -0.9j, 0.0)]
        rows.append(np.eye(dim)[dim - 5].astype(complex))
        rows.append(np.full(dim, 1e307, dtype=complex))
        shifts = [0.3 - 0.2j, 0.0, 1.7j, -0.0, 0.5, 2.0]
        params = ModulationParams(0.7 + 0.2j, 3.0, n_pow)
        amps, nsq, errors = fock.superposed_power_rows(params, np.array(rows), shifts)
        for row, shift, got, got_nsq, error in zip(rows, shifts, amps, nsq, errors):
            try:
                vec = fock.apply_superposed_power(params, fock.FockVector(row), shift)
            except (ConvergenceError, ValueError) as exc:
                assert (type(error), str(error)) == (type(exc), str(exc))
                continue
            assert error is None
            assert np.array_equal(got, vec.amplitudes) and got_nsq == vec.norm_sq()
        failed = [type(e) for e in errors if e is not None]
        assert failed == ([] if n_pow == 0 else [ConvergenceError, ConvergenceError])


class TestDisplacement:
    def test_zero_is_exact_identity(self):
        disp = fock.displacement(0.0, 12)
        assert np.array_equal(disp.matrix, np.eye(12, dtype=complex))

    @pytest.mark.parametrize("gamma", [0.5, -1.3 + 0.8j, 2.0j, 1.9 - 0.4j])
    def test_displaced_vacuum_is_coherent(self, gamma):
        dim = 60
        disp = fock.displacement(gamma, dim)
        vac = np.zeros(dim, complex)
        vac[0] = 1.0
        got = disp.matrix @ vac
        ref, _ = fock.coherent_state(gamma, dim)
        assert np.max(np.abs(got - ref.amplitudes)) < 1e-9

    def test_group_inverse(self):
        dim = 60
        gamma = 1.1 + 0.6j
        prod = fock.displacement(gamma, dim).matrix @ fock.displacement(-gamma, dim).matrix
        half = dim // 2
        assert np.max(np.abs((prod - np.eye(dim))[:half, :half])) < 1e-9

    def test_unitarity_lower_block(self):
        dim = 60
        disp = fock.displacement(1.5 - 0.9j, dim)
        gram = disp.matrix.conj().T @ disp.matrix
        half = dim // 2
        assert np.max(np.abs((gram - np.eye(dim))[:half, :half])) < 1e-9


class TestExpNumber:
    def test_identity(self):
        op = dense_reference.operator_exp_number(0.0, 10)
        assert np.array_equal(op.matrix, np.eye(10, dtype=complex))

    def test_halving_weights(self):
        op = dense_reference.operator_exp_number(math.log(2.0), 12)
        assert np.allclose(np.diag(op.matrix), 0.5 ** np.arange(12), rtol=1e-14)

    def test_growth_weights_for_s_above_one(self):
        # s = 1.2 gives the ratio (s+1)/(s-1) = 11, i.e. lam = -ln 11.
        op = dense_reference.operator_exp_number(-math.log(11.0), 8)
        assert np.allclose(np.diag(op.matrix), 11.0 ** np.arange(8), rtol=1e-12)

    def test_overflow_guard(self):
        with pytest.raises(ValueError):
            dense_reference.operator_exp_number(-20.0, 256)


class TestTrace:
    def test_identity_trace(self):
        vec, _ = fock.coherent_state(0.9, 40)
        assert fock.density_and_trace(vec, dense_reference.identity(40)) == pytest.approx(1.0, abs=1e-12)

    def test_number_trace(self):
        vec, _ = fock.coherent_state(1.0, 40)
        nop = dense_reference.number_operator(40)
        assert fock.density_and_trace(vec, nop).real == pytest.approx(1.0, abs=1e-10)

    def test_vacuum_parity(self):
        vec, _ = fock.coherent_state(0.0, 16)
        parity = fock.FockOperator(np.diag((-1.0) ** np.arange(16)).astype(complex), label="parity")
        assert fock.density_and_trace(vec, parity) == pytest.approx(1.0)

    def test_nondecaying_summand_raises(self):
        vec, _ = fock.coherent_state(1.5, 28)
        growth = fock.FockOperator(np.diag(11.0 ** np.arange(28)).astype(complex))
        with pytest.raises(ConvergenceError, match="s=1.2-like"):
            fock.density_and_trace(vec, growth, context="s=1.2-like")

    def test_tail_is_measured_against_the_sum(self):
        # top decile 1e-10: 6.7e-11 of the magnitudes 1.5, but 2e-10 of the sum 0.5
        same_sign = np.array([1.0, 0.5] + [0.0] * 17 + [1e-10])
        assert fock.trace_sum(same_sign) == pytest.approx(1.5)
        alternating = same_sign * (-1.0) ** np.arange(20)
        with pytest.raises(ConvergenceError, match="does not decay at dim 20"):
            fock.trace_sum(alternating)

    def test_cancellation_beyond_three_digits_raises(self):
        summand = np.array([1e4, -1e4 + 5.0] + [0.0] * 18)
        with pytest.raises(ConvergenceError, match="cancels at dim 20"):
            fock.trace_sum(summand)
        assert fock.trace_sum(summand * 1e-2 + np.eye(20)[1]) == pytest.approx(1.05)  # 2.3 digits
        with pytest.raises(ConvergenceError, match="cancels"):
            fock.trace_sum(np.array([1.0] + [0.0] * 19), magnitudes=np.full(20, 100.0))

    def test_zero_sum_of_zeros_passes(self):
        assert fock.trace_sum(np.zeros(12)) == 0

    def test_rows_equal_one_row_calls(self):
        decaying = 0.1 ** np.arange(20)
        rows = [decaying, -decaying, 11.0 ** np.arange(20), np.array([1e4, -1e4 + 5.0] + [0.0] * 18), np.zeros(20)]
        for magnitudes in (None, np.full((len(rows), 20), 100.0)):
            contexts = [f"row {i}" for i in range(len(rows))]
            sums, errors = fock.trace_rows(np.array(rows), contexts, magnitudes)
            for i, (row, got, error) in enumerate(zip(rows, sums, errors)):
                try:
                    want = fock.trace_sum(row, contexts[i], None if magnitudes is None else magnitudes[i])
                except ConvergenceError as exc:
                    assert (type(error), str(error)) == (type(exc), str(exc))
                    continue
                assert error is None and complex(got) == want
            assert [e is None for e in errors] == ([True, True, False, False, True] if magnitudes is None else [False, False, False, True, False])


class TestVectors:
    def test_minimum_dimension(self):
        with pytest.raises(ValueError):
            fock.FockVector(np.array([1.0, 0.0], dtype=complex))

    def test_normalize_invariant(self):
        vec = fock.FockVector(np.array([3.0, 4.0, 0.0, 0.0], dtype=complex))
        assert vec.normalized().norm_sq() == pytest.approx(1.0, abs=1e-12)

    def test_default_dim_rule(self):
        zeta, n_pow = 1.5 + 0.5j, 3
        mean = abs(zeta) ** 2
        expected = math.ceil(mean + 10 * math.sqrt(mean + 1)) + 4 * n_pow + 16
        assert fock.default_dim(zeta, n_pow) == expected

    def test_overflowing_modulus_is_refused_alone(self):
        # |z| = 2.1e308 leaves the double range although both parts are finite
        z = complex(1.5e308, 1.5e308)
        assert fock.default_dim(z, 1) == fock.DIM_CAP
        amps, _, errors = fock.coherent_rows([z, 1.0], 32)
        assert isinstance(errors[0], ConvergenceError) and errors[1] is None
        assert not amps[0].any()
        assert np.array_equal(amps[1], fock.coherent_state(1.0, 32)[0].amplitudes)
