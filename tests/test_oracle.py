import math
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import numerov_product
from morsebound import oracle
from morsebound.errors import BracketError, ConvergenceError, CriticalCouplingError, DomainError
from morsebound.langer import RadialProblem
from morsebound.morse import MorseParams
from morsebound.potentials import coulomb_spectrum
from morsebound.oracle import (
    Grid1D,
    scan_spectrum,
    solve_1d,
    solve_coulomb,
    solve_morse,
    solve_radial,
    solve_sho,
)

TWO_STATE = MorseParams(v1=-8.0, v2=8.0, alpha=1.0, mass=1.0, hbar=1.0)


def morse_potential(x):
    t = np.exp(-x)
    return -8.0 * t + 8.0 * t * t


class TestGrid:
    def test_validation(self):
        with pytest.raises(DomainError):
            Grid1D(0.0, 1.0, 999)
        with pytest.raises(DomainError):
            Grid1D(1.0, 1.0, 2000)
        with pytest.raises(DomainError):
            Grid1D(2.0, 1.0, 2000)
        for bad in ((0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0), (0.0, math.nan)):
            with pytest.raises(DomainError):
                Grid1D(*bad, 2001)

    def test_spacing_and_positions(self):
        grid = Grid1D(0.0, 10.0, 1001)
        assert grid.spacing == pytest.approx(0.01)
        xs = grid.positions()
        assert len(xs) == 1001
        assert xs[0] == 0.0 and xs[-1] == 10.0

    def test_halving_doubles_spacing(self):
        grid = Grid1D(0.0, 10.0, 4001)
        half = grid.halved()
        assert half.points == 2001
        assert half.spacing == pytest.approx(2.0 * grid.spacing)


class TestMorseOracle:
    def test_ground_state(self):
        result = solve_morse(TWO_STATE, 0)
        assert result.eigenvalue == pytest.approx(-1.125, rel=1e-6)
        assert result.node_count == 0
        assert result.richardson_error_estimate >= 0.0

    def test_first_excited(self):
        result = solve_morse(TWO_STATE, 1)
        assert result.eigenvalue == pytest.approx(-0.125, rel=1e-6)
        assert result.node_count == 1

    def test_missing_state_rejected(self):
        with pytest.raises(DomainError):
            solve_morse(TWO_STATE, 2)

    def test_bracket_without_eigenvalue(self):
        # a well too shallow to bind: any negative-energy bracket is invalid
        grid = Grid1D(-3.0, 40.0, 6001)

        def shallow(x):
            t = np.exp(-x)
            return -1.0 * t + 8.0 * t * t

        with pytest.raises(BracketError):
            solve_1d(shallow, grid, 0, 1.0, 1.0, (-1.5, -1e-9))

    def test_bracket_below_state_rejected(self):
        grid = Grid1D(-3.0, 30.0, 6001)
        with pytest.raises(BracketError):
            solve_1d(morse_potential, grid, 0, 1.0, 1.0, (-2.0, -1.3))


def harmonic_potential(x):
    return 0.5 * x * x


HYDROGEN_P = RadialProblem(dim=3, l=1, beta=0.0, delta=-1, z=-1.0, mass=1.0, hbar=1.0)


class TestRatioKernel:
    """The ratio kernel against the plain product-form recurrence in conftest."""

    @pytest.mark.parametrize("build,grid,energies,stiff", [
        (oracle._line_builder(morse_potential, 1.0, 1.0), Grid1D(-3.0, 30.0, 6001),
         (-1.9, -1.5, -1.0, -0.6, -0.3, -0.05), False),
        # A harmonic well in a wide box: the forward solution grows by about
        # exp(800) through the left barrier, past the float range of y itself.
        (oracle._line_builder(harmonic_potential, 1.0, 1.0), Grid1D(-40.0, 40.0, 8001),
         (0.3, 1.2, 2.0, 3.7, 6.1), True),
        (oracle._radial_builder(HYDROGEN_P), Grid1D(0.0, 60.0, 8001),
         (-0.2, -0.1, -0.07, -0.04), False),
    ])
    def test_matches_the_product_form(self, build, grid, energies, stiff):
        prob = build(grid)
        for energy in energies:
            forward, matched, mismatch, rescales = numerov_product(prob, energy)
            assert (rescales > 0) == stiff
            assert prob.forward_nodes(energy) == forward
            nodes, value = prob.probe(energy)
            assert nodes == matched
            assert value == pytest.approx(mismatch, rel=1e-9)


class TestRefinement:
    def test_high_coulomb_state(self):
        # D = 3, l = 2, n = 5: the window {S = 5} is narrow next to the bracket.
        want = coulomb_spectrum(3, 2, 0.0, -1.0, 1.0, 1.0, 5)[5].energy
        result = solve_coulomb(3, 2, 0.0, -1.0, 1.0, 1.0, 5)
        assert result.eigenvalue == pytest.approx(want, rel=1e-8)
        assert result.node_count == 5

    def test_bracket_ends_past_mismatch_poles(self):
        grid = Grid1D(-3.0, 30.0, 6001)
        prob = oracle._line_builder(morse_potential, 1.0, 1.0)(grid)
        lo, hi = -1.1, -0.01
        # Both ends lie outside the pole-free window of state 1.
        assert prob.probe(lo)[0] == 0 and prob.probe(hi)[0] == 2
        result = solve_1d(morse_potential, grid, 1, 1.0, 1.0, (lo, hi))
        assert result.eigenvalue == pytest.approx(-0.125, rel=1e-6)
        assert result.node_count == 1

    def test_bracket_reaching_below_the_potential_minimum(self):
        # The first probes sit below the well bottom (-2), where no point of
        # the mesh is classically allowed.
        result = solve_1d(morse_potential, Grid1D(-3.0, 30.0, 6001), 0, 1.0, 1.0, (-50.0, -0.5))
        assert result.eigenvalue == pytest.approx(-1.125, rel=1e-6)
        assert result.node_count == 0


class TestInputChecks:
    @pytest.mark.parametrize("tol_rel", [math.nan, -1.0, 0.0, math.inf])
    def test_tol_rel_must_be_finite_and_positive(self, tol_rel):
        with pytest.raises(DomainError, match="tol_rel"):
            solve_morse(TWO_STATE, 1, tol_rel=tol_rel)
        with pytest.raises(DomainError, match="tol_rel"):
            solve_coulomb(3, 0, 0.0, -1.0, 1.0, 1.0, 0, tol_rel=tol_rel)
        with pytest.raises(DomainError, match="tol_rel"):
            scan_spectrum(morse_potential, (-2.0, 0.0), 5, grid=Grid1D(-2.5, 30.0, 6001),
                          mass=1.0, hbar=1.0, tol_rel=tol_rel)

    def test_unreachable_tolerance_exhausts_the_iteration_budget(self):
        with pytest.raises(ConvergenceError):
            solve_1d(morse_potential, Grid1D(-3.0, 30.0, 2001), 0, 1.0, 1.0,
                     (-2.0, -0.5), tol_rel=1e-300)

    def test_grid_too_coarse_for_the_doubled_spacing_mesh(self):
        # 1001 points is a valid Grid1D, but its doubled-spacing companion
        # would hold only 501; the error names the count that was asked for.
        with pytest.raises(DomainError, match="got 1001"):
            solve_morse(TWO_STATE, 0, points=1001)
        with pytest.raises(DomainError, match="got 1998"):
            solve_radial(RadialProblem(dim=3, l=0, beta=0.0, delta=-1, z=-1.0, mass=1.0,
                                       hbar=1.0), Grid1D(0.0, 30.0, 1998), 0, (-0.6, -0.4))

    @pytest.mark.parametrize("solve", [
        lambda: solve_sho(3, 0, 0.0, 1.0, 1.0, 1.0, 0, points=oracle._MAX_POINTS + 2),
        lambda: solve_1d(morse_potential, Grid1D(-2.5, 30.0, oracle._MAX_POINTS + 2), 0,
                         1.0, 1.0, (-2.0, -0.5)),
        # s = 1e-4: the default mesh of this shallow state would need 70,005,771 points
        lambda: solve_morse(MorseParams(v1=-6.0004, v2=8.0, alpha=1.0, mass=1.0, hbar=1.0), 1),
    ], ids=["sho-points", "explicit-grid", "shallow-morse"])
    def test_point_cap_rejects_before_allocating(self, solve):
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="grid="):
                solve()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000  # a mesh at the cap takes 10 MB per array


class TestRadialOracle:
    def test_pure_oscillator_ground(self):
        result = solve_sho(3, 0, 0.0, 1.0, 1.0, 1.0, 0)
        assert result.eigenvalue == pytest.approx(1.5, rel=1e-8)
        assert result.node_count == 0

    def test_hydrogen_ground(self):
        result = solve_coulomb(3, 0, 0.0, -1.0, 1.0, 1.0, 0)
        assert result.eigenvalue == pytest.approx(-0.5, rel=1e-6)
        assert result.node_count == 0

    def test_singular_coulomb_ground(self):
        result = solve_coulomb(3, 0, 0.75, -1.0, 1.0, 1.0, 0)
        assert result.eigenvalue == pytest.approx(-2.0 / 9.0, rel=1e-6)

    def test_direct_solve_radial(self):
        problem = RadialProblem(dim=3, l=0, beta=0.0, delta=-1, z=-1.0, mass=1.0, hbar=1.0)
        result = solve_radial(problem, Grid1D(0.0, 30.0, 8001), 0, (-0.6, -0.4))
        assert result.eigenvalue == pytest.approx(-0.5, rel=1e-6)
        assert result.node_count == 0

    def test_radial_grid_must_start_at_zero(self):
        problem = RadialProblem(dim=3, l=0, beta=0.0, delta=-1, z=-1.0, mass=1.0, hbar=1.0)
        with pytest.raises(DomainError):
            solve_radial(problem, Grid1D(0.5, 30.0, 2001), 0, (-0.6, -0.4))
        with pytest.raises(DomainError):
            scan_spectrum(problem, (-0.6, -0.1), 3, grid=Grid1D(0.5, 60.0, 8001))

    def test_critical_coupling_rejected(self):
        problem = RadialProblem(dim=3, l=0, beta=-0.3, delta=-1, z=-1.0, mass=1.0, hbar=1.0)
        with pytest.raises(CriticalCouplingError):
            solve_radial(problem, Grid1D(0.0, 30.0, 2001), 0, (-0.6, -0.4))

    def test_richardson_estimates_shrink_at_fourth_order(self):
        # D = 3 pure oscillator ground state across three grid levels; the
        # box is kept wide so the h^4 signal stays above the rounding floor
        # of the three-term recurrence.
        estimates = []
        for points in (2001, 4001, 8001):
            result = solve_sho(3, 0, 0.0, 1.0, 1.0, 1.0, 0,
                               grid=Grid1D(0.0, 40.0, points), tol_rel=1e-13)
            estimates.append(result.richardson_error_estimate)
        first = estimates[0] / estimates[1]
        second = estimates[1] / estimates[2]
        assert 10.0 < first < 26.0
        assert 10.0 < second < 26.0


class TestScan:
    def test_morse_window_finds_exactly_two(self):
        grid = Grid1D(-2.5, 30.0, 6001)
        results = scan_spectrum(morse_potential, (-2.0, 0.0), 5,
                                grid=grid, mass=1.0, hbar=1.0)
        assert len(results) == 2
        assert results[0].eigenvalue == pytest.approx(-1.125, rel=1e-6)
        assert results[1].eigenvalue == pytest.approx(-0.125, rel=1e-6)
        assert [r.node_count for r in results] == [0, 1]

    def test_pure_inverse_square_has_no_bound_states(self):
        problem = RadialProblem(dim=3, l=0, beta=-0.2, delta=0, z=0.0,
                                mass=1.0, hbar=1.0)
        results = scan_spectrum(problem, (-10.0, -1e-6), 4,
                                grid=Grid1D(0.0, 60.0, 12001))
        assert results == []

    def test_inverse_square_default_grid(self):
        problem = RadialProblem(dim=3, l=0, beta=-0.2, delta=-2, z=0.0,
                                mass=1.0, hbar=1.0)
        assert scan_spectrum(problem, (-10.0, -1e-6), 4) == []

    def test_hydrogen_window_truncates_with_warning(self):
        problem = RadialProblem(dim=3, l=0, beta=0.0, delta=-1, z=-1.0,
                                mass=1.0, hbar=1.0)
        with pytest.warns(RuntimeWarning):
            results = scan_spectrum(problem, (-0.6, -0.01), 2,
                                    grid=Grid1D(0.0, 150.0, 10001), tol_rel=1e-8)
        assert len(results) == 2
        assert results[0].eigenvalue == pytest.approx(-0.5, rel=1e-5)
        assert results[1].eigenvalue == pytest.approx(-0.125, rel=1e-5)

    def test_shallow_well_scan_is_empty(self):
        def shallow(x):
            t = np.exp(-x)
            return -1.0 * t + 8.0 * t * t

        results = scan_spectrum(shallow, (-2.0, -1e-12), 5,
                                grid=Grid1D(-2.5, 30.0, 6001), mass=1.0, hbar=1.0)
        assert results == []

    def test_callable_requires_grid(self):
        with pytest.raises(DomainError):
            scan_spectrum(morse_potential, (-2.0, 0.0), 5)

    def test_window_validation(self):
        with pytest.raises(DomainError):
            scan_spectrum(morse_potential, (0.0, -2.0), 5,
                          grid=Grid1D(-2.5, 30.0, 6001), mass=1.0, hbar=1.0)

    def test_default_grid_reaches_past_r_300(self):
        problem = RadialProblem(dim=3, l=2, beta=0.0, delta=-1, z=-1.0, mass=1.0, hbar=1.0)
        levels = [st.energy for st in coulomb_spectrum(3, 2, 0.0, -1.0, 1.0, 1.0, 10)]
        window = (0.5 * (levels[6] + levels[7]), 0.5 * (levels[9] + levels[10]))
        results = scan_spectrum(problem, window, 5)
        assert [r.node_count for r in results] == [7, 8, 9]
        assert results[0].grid.x_max > 300.0
        for result in results:
            assert result.eigenvalue == pytest.approx(levels[result.node_count], rel=1e-8)

    def test_default_grid_point_cap(self):
        # A window top this close to threshold would need a mesh out to r = 4e4.
        problem = RadialProblem(dim=3, l=0, beta=0.0, delta=-1, z=-1.0, mass=1.0, hbar=1.0)
        with pytest.raises(DomainError, match="grid="):
            scan_spectrum(problem, (-0.6, -1e-7), 3)

    def test_no_warning_when_window_fits(self):
        grid = Grid1D(-2.5, 30.0, 6001)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = scan_spectrum(morse_potential, (-2.0, 0.0), 2,
                                    grid=grid, mass=1.0, hbar=1.0)
        assert len(results) == 2
