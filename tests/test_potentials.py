import math

import numpy as np
import pytest

from conftest import chain_count, count_sign_changes, factorial_degeneracy, radial_overlap
from morsebound.errors import CriticalCouplingError, DomainError, FamilyMismatchError
from morsebound.langer import RadialProblem, quantized_energy_via_morse
from morsebound.potentials import (
    coulomb_eigenfunction,
    coulomb_spectrum,
    degeneracy,
    pure_coulomb_levels,
    pure_sho_levels,
    sho_eigenfunction,
    sho_spectrum,
)


class TestShoSpectrum:
    def test_pure_ground_state(self):
        st = sho_spectrum(3, 0, 0.0, 1.0, 1.0, 1.0, 0)[0]
        assert st.energy == pytest.approx(1.5, rel=1e-15)
        assert st.S == 0.5

    def test_pure_p_wave(self):
        st = sho_spectrum(3, 1, 0.0, 1.0, 1.0, 1.0, 0)[0]
        assert st.S == pytest.approx(1.5, rel=1e-15)
        assert st.energy == pytest.approx(2.5, rel=1e-15)

    def test_singular_first_excited(self):
        st = sho_spectrum(3, 0, 0.75, 1.0, 1.0, 1.0, 1)[1]
        assert st.S == pytest.approx(1.0, rel=1e-15)
        assert st.energy == pytest.approx(4.0, rel=1e-15)

    def test_tower_is_increasing_and_positive(self):
        states = sho_spectrum(5, 2, 1.3, 0.7, 2.0, 1.5, 6)
        energies = [s.energy for s in states]
        assert all(e > 0.0 for e in energies)
        assert all(b - a == pytest.approx(2.0 * 1.5 * 0.7, rel=1e-12)
                   for a, b in zip(energies, energies[1:]))

    def test_domain_errors(self):
        for omega in (0.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                sho_spectrum(3, 0, 0.0, omega, 1.0, 1.0, 2)
        with pytest.raises(DomainError):
            sho_spectrum(3, 0, 0.0, 1.0, 1.0, 1.0, -1)
        with pytest.raises(CriticalCouplingError):
            sho_spectrum(3, 0, -0.25, 1.0, 1.0, 1.0, 2)
        for mass, hbar in ((math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, -math.inf)):
            with pytest.raises(DomainError):
                sho_spectrum(3, 0, 0.0, 1.0, mass, hbar, 2)


class TestCoulombSpectrum:
    def test_hydrogen_ground(self):
        st = coulomb_spectrum(3, 0, 0.0, -1.0, 1.0, 1.0, 0)[0]
        assert st.energy == pytest.approx(-0.5, rel=1e-15)

    def test_hydrogen_second_level(self):
        st = coulomb_spectrum(3, 0, 0.0, -1.0, 1.0, 1.0, 1)[1]
        assert st.energy == pytest.approx(-0.125, rel=1e-15)

    def test_singular_ground(self):
        st = coulomb_spectrum(3, 0, 0.75, -1.0, 1.0, 1.0, 0)[0]
        assert st.S == pytest.approx(1.0, rel=1e-15)
        assert st.energy == pytest.approx(-2.0 / 9.0, rel=1e-15)

    def test_increasing_toward_zero(self):
        energies = [s.energy for s in coulomb_spectrum(4, 1, 0.5, -2.0, 1.0, 1.0, 5)]
        assert all(e < 0.0 for e in energies)
        assert all(a < b for a, b in zip(energies, energies[1:]))

    def test_domain_errors(self):
        for z in (1.0, math.nan, -math.inf):
            with pytest.raises(DomainError):
                coulomb_spectrum(3, 0, 0.0, z, 1.0, 1.0, 2)
        with pytest.raises(CriticalCouplingError):
            coulomb_spectrum(2, 0, -1e-9, -1.0, 1.0, 1.0, 2)
        for mass, hbar in ((math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)):
            with pytest.raises(DomainError):
                coulomb_spectrum(3, 0, 0.0, -1.0, mass, hbar, 2)


class TestEigenfunctions:
    def test_vanish_at_origin(self):
        st = sho_spectrum(3, 0, 0.0, 1.0, 1.0, 1.0, 0)[0]
        assert sho_eigenfunction(st, 1.0, 1.0, 1.0, 0.0) == 0.0
        stc = coulomb_spectrum(3, 0, 0.75, -1.0, 1.0, 1.0, 0)[0]
        assert coulomb_eigenfunction(stc, -1.0, 1.0, 1.0, 0.0) == 0.0

    def test_sho_normalization(self):
        for l in (0, 1):
            for n in (0, 2):
                st = sho_spectrum(3, l, 0.0, 1.0, 1.0, 1.0, n)[n]
                norm = radial_overlap(
                    lambda r: sho_eigenfunction(st, 1.0, 1.0, 1.0, r),
                    lambda r: sho_eigenfunction(st, 1.0, 1.0, 1.0, r),
                    decay_scale=1.0)
                assert norm == pytest.approx(1.0, abs=1e-8)

    def test_coulomb_normalization(self):
        for l in (0, 1):
            for n in (0, 2):
                st = coulomb_spectrum(3, l, 0.0, -1.0, 1.0, 1.0, n)[n]
                norm = radial_overlap(
                    lambda r: coulomb_eigenfunction(st, -1.0, 1.0, 1.0, r),
                    lambda r: coulomb_eigenfunction(st, -1.0, 1.0, 1.0, r),
                    decay_scale=2.0 * (n + 1))
                assert norm == pytest.approx(1.0, abs=1e-8)

    def test_hydrogen_ground_shape(self):
        # D=3, beta=0, n=l=0 must recover u = 2 r exp(-r)
        st = coulomb_spectrum(3, 0, 0.0, -1.0, 1.0, 1.0, 0)[0]
        for r in (0.1, 0.5, 1.0, 2.0, 5.0):
            assert coulomb_eigenfunction(st, -1.0, 1.0, 1.0, r) == pytest.approx(
                2.0 * r * math.exp(-r), rel=1e-12)

    def test_node_counts(self):
        rs = np.linspace(1e-4, 16.0, 6001)
        for l in (0, 1):
            for n in (0, 1, 2):
                st = sho_spectrum(3, l, 0.0, 1.0, 1.0, 1.0, n)[n]
                vals = [sho_eigenfunction(st, 1.0, 1.0, 1.0, float(r)) for r in rs]
                assert count_sign_changes(vals) == n
        rs = np.linspace(1e-4, 70.0, 9001)
        for l in (0, 1):
            for n in (0, 1, 2):
                st = coulomb_spectrum(3, l, 0.0, -1.0, 1.0, 1.0, n)[n]
                vals = [coulomb_eigenfunction(st, -1.0, 1.0, 1.0, float(r)) for r in rs]
                assert count_sign_changes(vals) == n

    def test_orthogonality_fixed_l(self):
        for l in (0, 1):
            sho_states = sho_spectrum(3, l, 0.75, 1.0, 1.0, 1.0, 2)
            for i in range(3):
                for j in range(3):
                    val = radial_overlap(
                        lambda r, a=sho_states[i]: sho_eigenfunction(a, 1.0, 1.0, 1.0, r),
                        lambda r, b=sho_states[j]: sho_eigenfunction(b, 1.0, 1.0, 1.0, r),
                        decay_scale=1.0)
                    assert abs(val - (1.0 if i == j else 0.0)) < 1e-8
            coul_states = coulomb_spectrum(3, l, 0.75, -1.0, 1.0, 1.0, 2)
            for i in range(3):
                for j in range(3):
                    val = radial_overlap(
                        lambda r, a=coul_states[i]: coulomb_eigenfunction(a, -1.0, 1.0, 1.0, r),
                        lambda r, b=coul_states[j]: coulomb_eigenfunction(b, -1.0, 1.0, 1.0, r),
                        decay_scale=8.0)
                    assert abs(val - (1.0 if i == j else 0.0)) < 1e-8

    def test_family_mismatch(self):
        sho_state = sho_spectrum(3, 0, 0.0, 1.0, 1.0, 1.0, 0)[0]
        coul_state = coulomb_spectrum(3, 0, 0.0, -1.0, 1.0, 1.0, 0)[0]
        with pytest.raises(FamilyMismatchError):
            coulomb_eigenfunction(sho_state, -1.0, 1.0, 1.0, 1.0)
        with pytest.raises(FamilyMismatchError):
            sho_eigenfunction(coul_state, 1.0, 1.0, 1.0, 1.0)


class TestPureLevels:
    def test_sho_examples(self):
        levels = pure_sho_levels(3, 1.0, 1.0, 1.0, 2)
        assert levels[0] == (0, pytest.approx(1.5), 1)
        assert levels[2] == (2, pytest.approx(3.5), 6)
        assert pure_sho_levels(2, 1.0, 1.0, 1.0, 1)[1] == (1, pytest.approx(2.0), 2)

    def test_sho_closure_against_compositions(self):
        # level-N total degeneracy = number of D-tuples of non-negative
        # integers summing to N
        for dim in range(2, 6):
            for big_n, _, total in pure_sho_levels(dim, 1.0, 1.0, 1.0, 6):
                assert total == math.comb(big_n + dim - 1, dim - 1)

    def test_sho_relabeling_consistency(self):
        # eps_N = hbar*omega*(N + D/2) must equal the (n, l) form with N = 2n + l
        for dim in (2, 3, 5):
            levels = dict((N, e) for N, e, _ in pure_sho_levels(dim, 1.0, 1.0, 1.0, 6))
            for n in range(0, 3):
                for l in range(0, 3):
                    if dim == 2 and l == 0:
                        continue  # S = 0 sits at the critical boundary of the map
                    st = sho_spectrum(dim, l, 0.0, 1.0, 1.0, 1.0, n)[n]
                    assert st.energy == pytest.approx(levels[2 * n + l], rel=1e-12)

    def test_coulomb_examples(self):
        levels = pure_coulomb_levels(3, -1.0, 1.0, 1.0, 2)
        assert levels[0] == (1, pytest.approx(-0.5), 1)
        assert levels[1] == (2, pytest.approx(-0.125), 4)
        assert pure_coulomb_levels(5, -1.0, 1.0, 1.0, 1)[0][1] == pytest.approx(-0.125, rel=1e-12)

    def test_coulomb_relabeling_consistency(self):
        for dim in (3, 4, 5):
            levels = dict((N, e) for N, e, _ in pure_coulomb_levels(dim, -1.0, 1.0, 1.0, 7))
            for n in range(0, 3):
                for l in range(0, 3):
                    st = coulomb_spectrum(dim, l, 0.0, -1.0, 1.0, 1.0, n)[n]
                    assert st.energy == pytest.approx(levels[n + l + 1], rel=1e-12)

    def test_planar_coulomb_is_exposed(self):
        # formula-extrapolated labeling: [N + (D-3)/2] = N - 1/2 at D = 2
        levels = pure_coulomb_levels(2, -1.0, 1.0, 1.0, 2)
        assert levels[0][1] == pytest.approx(-0.5 / 0.25, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            pure_coulomb_levels(3, 1.0, 1.0, 1.0, 3)
        with pytest.raises(DomainError):
            pure_sho_levels(3, -1.0, 1.0, 1.0, 3)


class TestDegeneracy:
    @pytest.mark.parametrize("dim,l,expect", [
        (3, 1, 3),
        (2, 0, 1),
        (2, 1, 2),
        (2, 5, 2),
        (4, 2, 9),
    ])
    def test_values(self, dim, l, expect):
        rec = degeneracy(dim, l)
        assert rec.count == expect
        assert (rec.l, rec.dim) == (l, dim)

    def test_matches_chain_enumeration(self):
        for dim in range(2, 7):
            for l in range(0, 6):
                assert degeneracy(dim, l).count == chain_count(dim, l)

    def test_matches_factorial_form(self):
        for dim in range(2, 40):
            for l in range(0, 60):
                assert degeneracy(dim, l).count == factorial_degeneracy(dim, l)

    def test_large_dimension(self):
        # d_2(D) = (D+2)(D-1)/2; the factorial form needs (D-1)! here
        dim = 10 ** 6
        assert degeneracy(dim, 2).count == (dim + 2) * (dim - 1) // 2

    def test_domain(self):
        with pytest.raises(DomainError):
            degeneracy(1, 0)
        with pytest.raises(DomainError):
            degeneracy(3, -1)


class TestMappingEquivalence:
    def test_energies_match_through_morse_image(self):
        # direct closed forms vs. the to_morse + quantization-condition route
        checked = 0
        for dim in range(2, 7):
            for l in range(0, 4):
                for beta in (0.0, 0.75, 2.0):
                    l_plus = l + (dim - 3) / 2.0
                    if beta + (l_plus + 0.5) ** 2 <= 0.0:
                        continue  # critical coupling: no mapping
                    for n in range(0, 5):
                        sho_state = sho_spectrum(dim, l, beta, 1.0, 1.0, 1.0, n)[n]
                        problem = RadialProblem(dim=dim, l=l, beta=beta, delta=2,
                                                z=0.5, mass=1.0, hbar=1.0)
                        assert quantized_energy_via_morse(problem, n) == pytest.approx(
                            sho_state.energy, rel=1e-12)
                        coul_state = coulomb_spectrum(dim, l, beta, -1.0, 1.0, 1.0, n)[n]
                        problem = RadialProblem(dim=dim, l=l, beta=beta, delta=-1,
                                                z=-1.0, mass=1.0, hbar=1.0)
                        assert quantized_energy_via_morse(problem, n) == pytest.approx(
                            coul_state.energy, rel=1e-12)
                        checked += 2
        assert checked > 500

    def test_consistency_inequalities(self):
        # mapped spectra automatically satisfy the Morse-side constraints
        # eps > 2*hbar*omega*(n + 1/2) and eps > -hbar^2/(2 m a^2 (n + 1/2)^2)
        for l in (0, 1, 2):
            for n in range(0, 4):
                sho_state = sho_spectrum(3, l, 0.75, 1.0, 1.0, 1.0, n)[n]
                assert sho_state.energy > 2.0 * (n + 0.5)
                coul_state = coulomb_spectrum(3, l, 0.75, -1.0, 1.0, 1.0, n)[n]
                assert coul_state.energy > -0.5 / (n + 0.5) ** 2
