from fractions import Fraction

import pytest

from morsebound.errors import CriticalCouplingError, DomainError, UnsupportedDeltaError
from morsebound.langer import (
    RadialProblem,
    angular_factor,
    critical_beta,
    origin_exponent,
    quantized_energy_via_morse,
    to_morse,
)


def radial(dim=3, l=0, beta=0.0, delta=-1, z=-1.0, mass=1.0, hbar=1.0):
    return RadialProblem(dim=dim, l=l, beta=beta, delta=delta, z=z, mass=mass, hbar=hbar)


class TestProblemValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(DomainError):
            radial(dim=1)
        with pytest.raises(DomainError):
            radial(l=-1)
        with pytest.raises(DomainError):
            radial(delta=3)
        with pytest.raises(DomainError):
            radial(mass=0.0)
        with pytest.raises(DomainError):
            radial(hbar=-1.0)

    def test_all_named_deltas_construct(self):
        for delta in (2, -1, 0, -2):
            radial(delta=delta)


class TestAngularFactor:
    def test_three_dimensional_s_wave(self):
        af = angular_factor(3, 0, 0.0)
        assert af.L_plus == 0.0
        assert af.L_minus == -1.0
        assert af.S == 0.5

    def test_planar_p_wave(self):
        af = angular_factor(2, 1, 0.0)
        assert af.L_plus == 0.5
        assert af.L_minus == -1.5
        assert af.S == 1.0

    def test_critical_value_rejected_exactly(self):
        with pytest.raises(CriticalCouplingError):
            angular_factor(3, 0, -0.25)

    @pytest.mark.parametrize("dim", range(2, 7))
    def test_critical_boundary_each_dimension(self, dim):
        bc = critical_beta(dim)
        with pytest.raises(CriticalCouplingError):
            angular_factor(dim, 0, bc)
        af = angular_factor(dim, 0, bc + 1e-6)
        assert af.S > 0.0

    def test_below_critical_rejected(self):
        with pytest.raises(CriticalCouplingError):
            angular_factor(4, 0, -1.5)

    @pytest.mark.parametrize("beta", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_beta_rejected(self, beta):
        with pytest.raises(DomainError):
            angular_factor(3, 0, beta)


class TestCriticalBeta:
    @pytest.mark.parametrize("dim,value", [(2, 0.0), (3, -0.25), (4, -1.0), (5, -2.25)])
    def test_values(self, dim, value):
        assert critical_beta(dim) == value

    def test_domain(self):
        with pytest.raises(DomainError):
            critical_beta(1)


class TestBranchInvariance:
    @pytest.mark.parametrize("dim", range(2, 11))
    @pytest.mark.parametrize("l", range(0, 7))
    def test_square_identity_floats(self, dim, l):
        l_plus = l + (dim - 3) / 2.0
        l_minus = -l - (dim - 1) / 2.0
        assert (l_plus + 0.5) ** 2 == (l_minus + 0.5) ** 2

    @pytest.mark.parametrize("dim", range(2, 11))
    @pytest.mark.parametrize("l", range(0, 7))
    def test_square_identity_exact_rationals(self, dim, l):
        l_plus = l + Fraction(dim - 3, 2)
        l_minus = -l - Fraction(dim - 1, 2)
        assert (l_plus + Fraction(1, 2)) ** 2 == (l_minus + Fraction(1, 2)) ** 2

    def test_s_from_either_branch(self):
        for dim in range(2, 11):
            for l in range(0, 7):
                for beta in (0.0, 0.75, 2.0, 4.0):
                    if beta + (l + (dim - 2) / 2.0) ** 2 <= 0.0:
                        continue  # critical coupling (the pure D=2 s-wave)
                    af = angular_factor(dim, l, beta)
                    s_minus_sq = beta + (af.L_minus + 0.5) ** 2
                    assert af.S ** 2 == pytest.approx(s_minus_sq, rel=1e-15)


class TestToMorse:
    def test_oscillator_image(self):
        # omega = 1, m = 1 -> z = 1/2; trial energy 1.5
        image = to_morse(radial(delta=2, z=0.5), 1.5)
        assert image.lam == 0.5
        assert image.v1 == pytest.approx(-0.375, rel=1e-15)
        assert image.v2 == pytest.approx(0.125, rel=1e-15)
        assert image.alpha_eff == 1.0 and image.r0 == 1.0

    def test_coulomb_image(self):
        image = to_morse(radial(delta=-1, z=-1.0), -0.5)
        assert image.lam == 1.0
        assert image.v1 == pytest.approx(-1.0, rel=1e-15)
        assert image.v2 == pytest.approx(0.5, rel=1e-15)

    @pytest.mark.parametrize("delta", [0, -2])
    def test_pure_inverse_square_rejected(self, delta):
        with pytest.raises(UnsupportedDeltaError):
            to_morse(radial(delta=delta, z=0.3), -1.0)

    def test_pairing_invariant(self):
        assert to_morse(radial(delta=2, z=0.5), 1.0).lam == 0.5
        assert to_morse(radial(delta=-1, z=-1.0), -1.0).lam == 1.0

    def test_well_condition_iff_admissible(self):
        # oscillator: needs energy > 0 (z > 0 fixed by construction)
        for energy, admissible in ((2.0, True), (-1.0, False), (0.0, False)):
            image = to_morse(radial(delta=2, z=0.5), energy)
            assert (image.v1 < 0.0 < image.v2) is admissible
        # coulomb: needs z < 0 and energy < 0
        for z, energy, admissible in ((-1.0, -0.5, True), (-1.0, 0.5, False),
                                      (1.0, -0.5, False)):
            image = to_morse(radial(delta=-1, z=z), energy)
            assert (image.v1 < 0.0 < image.v2) is admissible


class TestOriginExponent:
    @pytest.mark.parametrize("dim,l,beta,expect", [
        (3, 0, 0.0, 1.0),
        (3, 1, 0.0, 2.0),
        (3, 0, 0.75, 1.5),
    ])
    def test_values(self, dim, l, beta, expect):
        assert origin_exponent(radial(dim=dim, l=l, beta=beta)) == pytest.approx(expect, rel=1e-15)

    def test_always_above_half(self):
        for dim in range(2, 8):
            for l in range(0, 5):
                for beta in (critical_beta(dim) + 1e-6, 0.0, 3.0):
                    if beta + (l + (dim - 2) / 2.0) ** 2 <= 0.0:
                        continue  # critical coupling (the pure D=2 s-wave)
                    assert origin_exponent(radial(dim=dim, l=l, beta=beta)) > 0.5

    def test_propagates_critical_error(self):
        with pytest.raises(CriticalCouplingError):
            origin_exponent(radial(dim=3, l=0, beta=-0.25))


class TestQuantizedEnergyViaMorse:
    def test_oscillator_route(self):
        problem = radial(dim=3, l=0, beta=0.75, delta=2, z=0.5)
        assert quantized_energy_via_morse(problem, 1) == pytest.approx(4.0, rel=1e-13)

    def test_coulomb_route(self):
        problem = radial(dim=3, l=0, beta=0.75, delta=-1, z=-1.0)
        assert quantized_energy_via_morse(problem, 0) == pytest.approx(-2.0 / 9.0, rel=1e-13)

    def test_rejects_wrong_sign_couplings(self):
        with pytest.raises(DomainError):
            quantized_energy_via_morse(radial(delta=2, z=-0.5), 0)
        with pytest.raises(DomainError):
            quantized_energy_via_morse(radial(delta=-1, z=1.0), 0)
        with pytest.raises(UnsupportedDeltaError):
            quantized_energy_via_morse(radial(delta=0, z=0.0), 0)
