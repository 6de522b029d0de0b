import math

import numpy as np
import pytest

from conftest import count_sign_changes, morse_overlap
from morsebound.errors import DomainError
from morsebound.morse import (
    MorseParams,
    MorseState,
    eigenfunction,
    potential,
    spectrum,
    state_count,
    well_strength,
    xi_of_x,
)
from morsebound.oracle import solve_morse

TWO_STATE = MorseParams(v1=-8.0, v2=8.0, alpha=1.0, mass=1.0, hbar=1.0)


class TestParams:
    def test_validation(self):
        for bad in (dict(alpha=0.0), dict(alpha=-1.0), dict(mass=0.0), dict(hbar=-2.0),
                    dict(v1=math.nan), dict(v1=-math.inf), dict(v2=math.inf),
                    dict(alpha=math.nan), dict(alpha=math.inf), dict(mass=math.inf),
                    dict(hbar=math.nan)):
            kwargs = dict(v1=-8.0, v2=8.0, alpha=1.0, mass=1.0, hbar=1.0)
            kwargs.update(bad)
            with pytest.raises(DomainError):
                MorseParams(**kwargs)

    def test_well_flag(self):
        assert TWO_STATE.has_well
        assert not MorseParams(1.0, 8.0, 1.0, 1.0, 1.0).has_well
        assert not MorseParams(-1.0, -8.0, 1.0, 1.0, 1.0).has_well

    def test_potential_shape(self):
        assert potential(TWO_STATE, 0.0) == pytest.approx(0.0)
        assert potential(TWO_STATE, 10.0) < 0.0
        assert potential(TWO_STATE, -3.0) > 100.0


class TestStateCount:
    def test_two_states(self):
        assert well_strength(TWO_STATE) == pytest.approx(2.0, rel=1e-15, abs=0)
        assert state_count(TWO_STATE) == 2

    def test_shallow_well_holds_none(self):
        assert state_count(MorseParams(-1.0, 8.0, 1.0, 1.0, 1.0)) == 0

    def test_no_well_structure(self):
        assert state_count(MorseParams(1.0, 8.0, 1.0, 1.0, 1.0)) == 0
        assert state_count(MorseParams(-8.0, -1.0, 1.0, 1.0, 1.0)) == 0


class TestSpectrum:
    def test_two_state_values(self):
        states = spectrum(TWO_STATE)
        assert [s.n for s in states] == [0, 1]
        assert states[0].s == pytest.approx(1.5, rel=1e-15, abs=0)
        assert states[1].s == pytest.approx(0.5, rel=1e-15, abs=0)
        assert states[0].energy == pytest.approx(-1.125, rel=1e-14, abs=0)
        assert states[1].energy == pytest.approx(-0.125, rel=1e-14, abs=0)

    def test_empty_for_no_well(self):
        assert spectrum(MorseParams(-1.0, 8.0, 1.0, 1.0, 1.0)) == []

    def test_energy_equals_exponent_form(self):
        # closed form and -(hbar*alpha*s)^2/(2m) are the same algebraic object
        params = MorseParams(-11.3, 4.7, 0.8, 1.7, 1.2)
        for st in spectrum(params):
            alt = -(params.hbar * params.alpha * st.s) ** 2 / (2.0 * params.mass)
            assert st.energy == pytest.approx(alt, rel=1e-13, abs=0)

    def test_ordering(self):
        params = MorseParams(-40.0, 3.0, 0.7, 1.0, 1.0)
        states = spectrum(params)
        assert len(states) >= 3
        energies = [s.energy for s in states]
        assert all(e < 0.0 for e in energies)
        assert all(a < b for a, b in zip(energies, energies[1:]))


class TestEigenfunction:
    def test_normalization_by_quadrature(self):
        for st in spectrum(TWO_STATE):
            norm = morse_overlap(TWO_STATE, st, st)
            assert norm == pytest.approx(1.0, abs=1e-8)

    def test_orthogonality(self):
        s0, s1 = spectrum(TWO_STATE)
        assert abs(morse_overlap(TWO_STATE, s0, s1)) < 1e-8

    def test_xi_measure_norm_equals_alpha(self):
        # the x-space norm is equivalent to int_0^inf dxi |psi(xi)|^2 / xi = alpha
        from morsebound.specfun import integrate_halfline

        params = MorseParams(-5.0, 3.0, 0.7, 2.0, 0.5)
        scale = 2.0 * math.sqrt(2.0 * params.mass * params.v2) / (params.hbar * params.alpha)
        for st in spectrum(params)[:2]:
            def density(xi, state=st):
                x = -math.log(xi / scale) / params.alpha
                return eigenfunction(params, state, x) ** 2 / xi

            val = integrate_halfline(density, decay_scale=2.0 * st.s + 1.0, tol=1e-10)
            assert val == pytest.approx(params.alpha, rel=1e-7)

    @pytest.mark.parametrize("n", [0, 5])
    def test_deep_well_normalization(self, n):
        # v1 = -400, v2 = 1: s = 282.3 - n, and norm_const underflows to 0.0, so
        # the eigenfunction must take its norm in log form.  The state is one
        # peak near xi = 2s; the x-space norm is int dxi psi^2 / (alpha * xi).
        from morsebound.specfun import integrate_halfline

        params = MorseParams(-400.0, 1.0, 1.0, 1.0, 1.0)
        st = spectrum(params)[n]
        assert st.norm_const == 0.0
        scale = 2.0 * math.sqrt(2.0 * params.mass * params.v2) / (params.hbar * params.alpha)

        def density(xi):
            x = -math.log(xi / scale) / params.alpha
            return eigenfunction(params, st, x) ** 2 / (params.alpha * xi)

        norm = integrate_halfline(density, decay_scale=2.0 * st.s + 1.0, tol=1e-11)
        assert norm == pytest.approx(1.0, abs=1e-8)

    def test_node_counts(self):
        xs = np.linspace(-2.0, 14.0, 8001)
        for st in spectrum(TWO_STATE):
            values = [eigenfunction(TWO_STATE, st, float(x)) for x in xs]
            assert count_sign_changes(values) == st.n

    def test_right_tail_decays_like_xi_power(self):
        # for x -> +inf, psi ~ xi^s so psi(x+1)/psi(x) -> exp(-alpha*s)
        st = spectrum(TWO_STATE)[0]
        ratio = eigenfunction(TWO_STATE, st, 11.0) / eigenfunction(TWO_STATE, st, 10.0)
        assert ratio == pytest.approx(math.exp(-TWO_STATE.alpha * st.s), rel=1e-3)

    def test_left_tail_underflows_to_zero(self):
        st = spectrum(TWO_STATE)[0]
        assert eigenfunction(TWO_STATE, st, -8.0) == 0.0
        assert abs(eigenfunction(TWO_STATE, st, -4.0)) < 1e-30

    def test_nan_position_is_rejected(self):
        params = MorseParams(v1=-8.0, v2=8.0, alpha=1.0, mass=1.0, hbar=1.0)
        st = spectrum(params)[1]
        with pytest.raises(DomainError):
            eigenfunction(params, st, math.nan)  # the state's first call: a memo miss
        eigenfunction(params, st, 0.5)
        with pytest.raises(DomainError):
            eigenfunction(params, st, math.nan)  # a memo hit

    def test_infinite_positions_give_zero(self):
        st = spectrum(TWO_STATE)[1]
        assert eigenfunction(TWO_STATE, st, math.inf) == 0.0
        assert eigenfunction(TWO_STATE, st, -math.inf) == 0.0

    def test_xi_variable(self):
        assert xi_of_x(TWO_STATE, 0.0) == pytest.approx(8.0, rel=1e-15, abs=0)
        assert xi_of_x(TWO_STATE, -2000.0) == math.inf

    def test_rejects_foreign_state(self):
        st = spectrum(TWO_STATE)[0]
        with pytest.raises(DomainError):
            eigenfunction(TWO_STATE, MorseState(n=5, s=st.s, energy=st.energy,
                                                norm_const=st.norm_const), 1.0)
        with pytest.raises(DomainError):
            eigenfunction(TWO_STATE, MorseState(n=0, s=st.s * 1.001, energy=st.energy,
                                                norm_const=st.norm_const), 1.0)


class TestOracleAgreement:
    @pytest.mark.parametrize("n,expect", [(0, -1.125), (1, -0.125)])
    def test_numerov_matches_closed_form(self, n, expect):
        result = solve_morse(TWO_STATE, n)
        assert result.eigenvalue == pytest.approx(expect, rel=1e-6)
        assert result.node_count == n
