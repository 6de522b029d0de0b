import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import numerov_product
from morsebound import oracle
from morsebound.errors import BracketError, ConvergenceError, CriticalCouplingError, DomainError
from morsebound.langer import RadialProblem
from morsebound.morse import MorseParams, MorseState, spectrum as morse_spectrum
from morsebound.potentials import coulomb_spectrum, sho_spectrum
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


def three_state_potential(x):
    t = np.exp(-x)
    return -12.0 * t + 8.0 * t * t


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


def morse_states(seed):
    """Seeded Morse states: sixteen states n of wells with strength n + 1.5 to
    n + 6, then five top states (strength n + 1/2 + s) at s = 0.05, 0.125,
    0.01, 1e-3 and 1e-4."""
    rng = random.Random(seed)

    def well(strength, alpha):
        mass = hbar = 1.0
        if rng.random() >= 0.7:
            mass, hbar = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        v2 = rng.uniform(2.0, 10.0)
        v1 = -strength * hbar * alpha * math.sqrt(2.0 * mass * v2) / mass
        return MorseParams(v1=v1, v2=v2, alpha=alpha, mass=mass, hbar=hbar)

    states = []
    for _ in range(16):
        n = rng.randint(0, 4)
        states.append((well(n + rng.uniform(1.5, 6.0), rng.uniform(0.6, 1.5)), n))
    for s in (0.05, 0.125, 0.01, 1e-3, 1e-4):
        n = rng.randint(0, 3)
        states.append((well(n + 0.5 + s, rng.uniform(0.6, 1.5)), n))
    return states


class TestMorseTail:
    """The tail t = e^(-alpha x) -> 0 is seeded from its Frobenius series, so the
    default mesh stays within its levels of 2001 to 8001 points however slowly the
    state decays."""

    @pytest.mark.parametrize("seed", [5, 11, 23])
    def test_seeded_states_on_the_default_mesh(self, seed):
        for params, n in morse_states(seed):
            want = morse_spectrum(params)[n].energy
            result = solve_morse(params, n)
            assert result.node_count == n
            assert result.grid.points in (2001, 4001, 8001)
            assert abs(result.eigenvalue - want) <= oracle._DEFAULT_TOL_REL * max(1.0, abs(want))

    def test_near_threshold_state_stays_small(self):
        params, n = morse_states(5)[-1]
        assert morse_spectrum(params)[n].s == pytest.approx(1e-4, rel=1e-6)
        tracemalloc.start()
        try:
            result = solve_morse(params, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.node_count == n
        assert peak < 4_000_000

    @pytest.mark.parametrize("params,rel", [
        (MorseParams(v1=-0.88349, v2=15.057, alpha=0.5711, mass=1.224, hbar=0.6177), 1e-9),
        (MorseParams(v1=-6.394, v2=19.636, alpha=1.981, mass=1.529, hbar=1.231), 5e-9),
    ], ids=["s-0.0048", "s-0.0174"])
    def test_shallow_ground_states_on_the_default_mesh(self, params, rel):
        # The tail seed carries 13 Frobenius terms: with 4 these two states
        # were off by 4.9e-8 and 9.2e-9.
        want = morse_spectrum(params)[0].energy
        assert solve_morse(params, 0).eigenvalue == pytest.approx(want, rel=rel, abs=0)

    def test_strong_well_high_state(self):
        # The h^4 error of this n = 6 state passed the 1e-10 stop width on a
        # fixed 8001-point mesh (2.2e-10); the extrapolated value is closer.
        params = MorseParams(v1=-82.39, v2=11.75, alpha=1.675, mass=1.0, hbar=1.431)
        want = morse_spectrum(params)[6].energy
        result = solve_morse(params, 6)
        assert result.node_count == 6
        assert result.eigenvalue == pytest.approx(want, rel=5e-11, abs=0)


def harmonic_potential(x):
    return 0.5 * x * x


HYDROGEN_P = RadialProblem(dim=3, l=1, beta=0.0, delta=-1, z=-1.0, mass=1.0, hbar=1.0)
HIGH_L_SHO = RadialProblem(dim=3, l=60, beta=0.0, delta=2, z=0.5, mass=1.0, hbar=1.0)


class TestRatioKernel:
    """The ratio kernel against the plain product-form recurrence in conftest."""

    @pytest.mark.parametrize("build,grid,energies,stiff", [
        (oracle._line_builder(morse_potential, 1.0, 1.0), Grid1D(-3.0, 30.0, 6001),
         (-1.9, -1.5, -1.0, -0.6, -0.3, -0.05), False),
        # A harmonic well in a wide box: the sweeps start where the WKB decay
        # from the well reaches 20, not at the e^800 far side of the barrier.
        (oracle._line_builder(harmonic_potential, 1.0, 1.0), Grid1D(-40.0, 40.0, 8001),
         (0.3, 1.2, 2.0, 3.7, 6.1), False),
        (oracle._radial_builder(HYDROGEN_P), Grid1D(0.0, 60.0, 8001),
         (-0.2, -0.1, -0.07, -0.04), False),
        # The Morse well swept from its tail, seeded from the Frobenius series.
        (oracle._morse_builder(TWO_STATE), Grid1D(-3.0, 30.0, 6001),
         (-1.9, -1.5, -1.0, -0.6, -0.3, -0.05), False),
        # An l = 60 oscillator: the Frobenius side grows y by about (1e7)^60.5
        # across the log mesh, past the float range of y itself.
        (oracle._radial_builder(HIGH_L_SHO), Grid1D(0.0, 20.0, 8001),
         (61.0, 62.5, 64.0, 66.5), True),
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


COULOMB_5D_P = RadialProblem(dim=5, l=1, beta=0.0, delta=-1, z=-1.0, mass=1.0, hbar=1.0)


def _start_cases():
    """(shooting problem, bracket holding states 0 and 1, both energies) per system."""
    e0, e1, e2 = (st.energy for st in coulomb_spectrum(5, 1, 0.0, -1.0, 1.0, 1.0, 2))
    coulomb = oracle._radial_builder(COULOMB_5D_P)(
        oracle._default_radial_grid(COULOMB_5D_P, e1))
    yield coulomb, (1.2 * e0, 0.5 * (e1 + e2)), e0, e1
    e0, e1 = (st.energy for st in morse_spectrum(TWO_STATE))
    yield oracle._morse_builder(TWO_STATE)(oracle._morse_default_grid(TWO_STATE, None)), \
        (1.2 * e0, 0.5 * e1), e0, e1


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

    def test_bracket_straddling_zero(self):
        # The eigenvalue sits at E = 0, where a relative stop width shrinks
        # with the bracket; the refinement still ends.
        result = solve_1d(lambda x: 0.5 * x * x - 0.5, Grid1D(-12.0, 12.0, 8001), 0, 1.0, 1.0,
                          (-0.3, 0.3))
        assert result.node_count == 0
        assert abs(result.eigenvalue) <= 1e-9

    def test_bracket_reaching_below_the_potential_minimum(self):
        # The first probes sit below the well bottom (-2), where no point of
        # the mesh is classically allowed.
        result = solve_1d(morse_potential, Grid1D(-3.0, 30.0, 6001), 0, 1.0, 1.0, (-50.0, -0.5))
        assert result.eigenvalue == pytest.approx(-1.125, rel=1e-6)
        assert result.node_count == 0

    @pytest.mark.parametrize("case", list(_start_cases()), ids=["coulomb-5d-p", "morse"])
    def test_any_guess_finds_the_same_state(self, case):
        # The neighbouring state, a point outside the bracket and the closed
        # form only change the probes: the state and its energy stay.
        prob, bracket, e0, e1 = case
        tol_rel = 1e-10
        want, nodes = oracle._locate(prob.probe, 0, bracket, tol_rel)
        assert nodes == 0
        assert want == pytest.approx(e0, rel=1e-6)
        for guess in (e1, 2.0 * bracket[0], bracket[1] + 1.0, e0):
            energy, nodes = oracle._locate(prob.probe, 0, bracket, tol_rel, guess)
            assert nodes == 0
            assert abs(energy - want) <= tol_rel * abs(want)

    @pytest.mark.parametrize("e0, bracket, guess", [
        (-0.123456789, (-0.5, -0.01), None),
        (-0.123456789, (-0.5, -0.01), -0.12),
        (3.7, (1.0, 9.0), None),
        (4.4e-7, (1e-7, 1e-6), 4.3e-7),
    ])
    def test_certified_bracket_returns_its_root(self, e0, bracket, guess):
        # A mismatch linear in E, at S = n throughout: the false-position root
        # of the final ends is e0 to rounding, where their midpoint is off by
        # up to tol_rel/2.
        energy, nodes = oracle._locate(lambda e: (2, e0 - e), 2, bracket, 1e-10, guess)
        assert nodes == 2
        assert abs(energy - e0) <= 1e-15 * abs(e0)


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

    @pytest.mark.parametrize("call", [
        lambda: solve_1d(morse_potential, Grid1D(-3.0, 30.0, 6001), 0.5, 1.0, 1.0, (-2.0, -0.5)),
        lambda: solve_1d(morse_potential, Grid1D(-3.0, 30.0, 6001), math.nan, 1.0, 1.0,
                         (-2.0, -0.5)),
        lambda: solve_morse(TWO_STATE, 1.5),
        lambda: solve_sho(3, 0, 0.0, 1.0, 1.0, 1.0, 1.5),
        lambda: solve_coulomb(3, 0, 0.0, -1.0, 1.0, 1.0, 1.0),
        lambda: solve_morse(TWO_STATE, 0, points=2000.5),
        lambda: scan_spectrum(morse_potential, (-2.0, 0.0), 2.5, grid=Grid1D(-2.5, 30.0, 6001),
                              mass=1.0, hbar=1.0),
        lambda: scan_spectrum(morse_potential, (-2.0, 0.0), math.nan,
                              grid=Grid1D(-2.5, 30.0, 6001), mass=1.0, hbar=1.0),
        lambda: Grid1D(0.0, 1.0, 3000.5),
        lambda: solve_1d(morse_potential, Grid1D(-3.0, 30.0, 6001), 0, math.nan, 1.0,
                         (-2.0, -0.5)),
        lambda: scan_spectrum(morse_potential, (-2.0, 0.0), 5, grid=Grid1D(-2.5, 30.0, 6001),
                              mass=1.0, hbar=math.inf),
    ], ids=["target-half", "target-nan", "morse-n", "sho-n", "coulomb-n", "points",
            "max-states-half", "max-states-nan", "grid-points", "mass-nan", "scan-hbar-inf"])
    def test_bad_index_or_unit_is_a_domain_error(self, call):
        with pytest.raises(DomainError):
            call()

    @pytest.mark.parametrize("solve", [
        lambda: solve_sho(3, 0, 0.0, 1.0, 1.0, 1.0, 0, points=oracle._MAX_POINTS + 2),
        lambda: solve_1d(morse_potential, Grid1D(-2.5, 30.0, oracle._MAX_POINTS + 2), 0,
                         1.0, 1.0, (-2.0, -0.5)),
    ], ids=["sho-points", "explicit-grid"])
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

    @pytest.mark.parametrize("family,beta,n", [
        # beta = -0.24 gives S = 0.1 and beta = 0.25 gives S = 0.707 for D = 3, l = 0,
        # where u ~ r^(1/2+S) is far from smooth in r.
        ("coulomb", -0.24, 0), ("coulomb", -0.24, 1), ("coulomb", 0.25, 0), ("coulomb", 0.25, 2),
        ("sho", -0.24, 0), ("sho", -0.24, 1), ("sho", 0.25, 0), ("sho", 0.25, 2),
    ])
    def test_small_s_states_on_the_default_grid(self, family, beta, n):
        if family == "coulomb":
            want = coulomb_spectrum(3, 0, beta, -1.0, 1.0, 1.0, n)[n].energy
            result = solve_coulomb(3, 0, beta, -1.0, 1.0, 1.0, n)
        else:
            want = sho_spectrum(3, 0, beta, 1.0, 1.0, 1.0, n)[n].energy
            result = solve_sho(3, 0, beta, 1.0, 1.0, 1.0, n)
        assert result.eigenvalue == pytest.approx(want, rel=1e-8)
        assert result.node_count == n

    @pytest.mark.parametrize("family,n", [
        ("coulomb", 0), ("coulomb", 1), ("coulomb", 3), ("sho", 0), ("sho", 1), ("sho", 3),
    ])
    def test_richardson_estimate_on_the_default_grid(self, family, n):
        # S = 0.1.  The estimate measures the h^4 truncation error; below about
        # 1e-11 relative the rounding of the recurrence sets the error.
        if family == "coulomb":
            want = coulomb_spectrum(3, 0, -0.24, -1.0, 1.0, 1.0, n)[n].energy
            result = solve_coulomb(3, 0, -0.24, -1.0, 1.0, 1.0, n, tol_rel=1e-14)
        else:
            want = sho_spectrum(3, 0, -0.24, 1.0, 1.0, 1.0, n)[n].energy
            result = solve_sho(3, 0, -0.24, 1.0, 1.0, 1.0, n, tol_rel=1e-14)
        error = abs(result.eigenvalue - want)
        assert error <= 2.0 * result.richardson_error_estimate + 1e-11 * abs(want)

    @pytest.mark.parametrize("args,tol_rel,rel", [
        # l = 200 is allowed only on r = 37545..43260; Bohr radius 1000, where
        # the box reaches r = 35000; Bohr radius 1e-6.
        ((3, 200, 0.0, -1.0, 1.0, 1.0, 0), 1e-14, 1e-9),
        ((3, 0, 0.0, -1.0, 1e-3, 1.0, 0), 1e-14, 1e-9),
        ((3, 0, 0.0, -1.0, 1e6, 1.0, 0), 1e-14, 1e-9),
        # The default tolerance: the stop width is relative, so E = -1.2e-5
        # and E = -5e-7 keep their digits.
        ((3, 200, 0.0, -1.0, 1.0, 1.0, 0), oracle._DEFAULT_TOL_REL, 1e-9),
        ((3, 1000, 0.0, -1.0, 1.0, 1.0, 2), oracle._DEFAULT_TOL_REL, 1e-8),
    ], ids=["l200", "light", "heavy", "l200-default-tol", "l1000-default-tol"])
    def test_default_grid_follows_the_length_scale(self, args, tol_rel, rel):
        want = coulomb_spectrum(*args[:6], args[6] + 1)[args[6]].energy
        result = solve_coulomb(*args, tol_rel=tol_rel)
        assert result.eigenvalue == pytest.approx(want, rel=rel, abs=0)
        assert result.node_count == args[6]

    def test_richardson_estimate_below_an_absolute_stop_width(self):
        # E = -5e-11 lies below 1e-10, so only a relative stop width lets the
        # estimate measure the mesh.
        want = coulomb_spectrum(3, 0, 0.0, -1e-5, 1.0, 1.0, 1)[0].energy
        result = solve_coulomb(3, 0, 0.0, -1e-5, 1.0, 1.0, 0)
        assert result.richardson_error_estimate <= 1e-9 * abs(want)

    def test_uniform_r_cross_check(self):
        # At half-integer S the regular solution u ~ r^2 is smooth in r, so a
        # plain 1-D solve on a uniform r mesh checks the log-mesh solve.
        spacing = 60.0 / 16001
        uniform = solve_1d(lambda r: -1.0 / r + 1.0 / r ** 2, Grid1D(spacing, 60.0, 16001), 0,
                           1.0, 1.0, (-0.2, -0.1))
        log_mesh = solve_coulomb(3, 1, 0.0, -1.0, 1.0, 1.0, 0)
        assert uniform.eigenvalue == pytest.approx(log_mesh.eigenvalue, rel=1e-8)

    def test_critical_coupling_rejected(self):
        problem = RadialProblem(dim=3, l=0, beta=-0.3, delta=-1, z=-1.0, mass=1.0, hbar=1.0)
        with pytest.raises(CriticalCouplingError):
            solve_radial(problem, Grid1D(0.0, 30.0, 2001), 0, (-0.6, -0.4))

    def test_richardson_estimates_shrink_at_fourth_order(self):
        # D = 3 pure oscillator ground state across three grid levels; the
        # box is kept wide so the h^4 signal stays above the rounding floor
        # of the three-term recurrence.
        problem = RadialProblem(dim=3, l=0, beta=0.0, delta=2, z=0.5, mass=1.0, hbar=1.0)
        estimates = []
        for points in (2001, 4001, 8001):
            result = solve_radial(problem, Grid1D(0.0, 40.0, points), 0, (1.2, 1.8),
                                  tol_rel=1e-13)
            estimates.append(result.richardson_error_estimate)
        first = estimates[0] / estimates[1]
        second = estimates[1] / estimates[2]
        assert 10.0 < first < 26.0
        assert 10.0 < second < 26.0


def level_draws(seed):
    """Thirty states per family as (solve, args, closed form): Morse s log-uniform in
    [1e-3, 0.1] for every other state and uniform in [0.1, 3] for the rest; radial
    D 2-5, l <= 3 and S uniform in [0.1, 3]; n <= 4; about half with mass or hbar != 1."""
    rng = random.Random(seed)

    def units():
        return (rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)) if rng.random() < 0.5 else (1.0, 1.0)

    draws = []
    for k in range(30):
        n = rng.randint(0, 4)
        s = 10.0 ** rng.uniform(-3.0, -1.0) if k % 2 else rng.uniform(0.1, 3.0)
        mass, hbar = units()
        alpha, v2 = rng.uniform(0.5, 2.0), rng.uniform(2.0, 10.0)
        v1 = -(n + 0.5 + s) * hbar * alpha * math.sqrt(2.0 * mass * v2) / mass
        params = MorseParams(v1=v1, v2=v2, alpha=alpha, mass=mass, hbar=hbar)
        draws.append((solve_morse, (params, n), morse_spectrum(params)[n].energy))
    for solve, spectrum, sign in ((solve_sho, sho_spectrum, 1.0),
                                  (solve_coulomb, coulomb_spectrum, -1.0)):
        for _ in range(30):
            dim, l, n = rng.randint(2, 5), rng.randint(0, 3), rng.randint(0, 4)
            beta = rng.uniform(0.1, 3.0) ** 2 - (l + (dim - 2) / 2.0) ** 2
            mass, hbar = units()
            args = (dim, l, beta, sign * rng.uniform(0.5, 2.0), mass, hbar)
            draws.append((solve, args + (n,), spectrum(*args, n)[n].energy))
    return draws


class TestLevels:
    """A default mesh starts at 2001 points and doubles, up to 8001, while some
    state's Richardson estimate exceeds 1e-8 |E*|; an explicit mesh stays as given."""

    def test_default_mesh_doubles_only_when_asked(self):
        # E* on 2001 points is off by 4.6e-8 here, past the 1e-8 of its case in
        # test_default_grid_follows_the_length_scale.
        args = (3, 1000, 0.0, -1.0, 1.0, 1.0, 2)
        assert solve_coulomb(*args).grid.points > 2001
        assert solve_coulomb(*args, points=2001).grid.points == 2001

    def test_scan_doubles_for_every_state_if_one_asks(self):
        problem = RadialProblem(dim=3, l=0, beta=-0.24, delta=2, z=0.5, mass=1.0, hbar=1.0)
        levels = [st.energy for st in sho_spectrum(3, 0, -0.24, 1.0, 1.0, 1.0, 5)]
        ground = scan_spectrum(problem, (0.0, 0.5 * (levels[0] + levels[1])), 1)
        assert [r.grid.points for r in ground] == [2001]
        results = scan_spectrum(problem, (0.0, 0.5 * (levels[4] + levels[5])), 6)
        assert [r.grid.points for r in results] == [4001] * 5
        assert [r.node_count for r in results] == [0, 1, 2, 3, 4]
        for result, want in zip(results, levels):
            assert result.eigenvalue == pytest.approx(want, rel=1e-10, abs=0)

    @pytest.mark.parametrize("seed", [5, 7, 11])
    def test_seeded_draws(self, seed):
        for solve, args, want in level_draws(seed):
            result = solve(*args)
            error = abs(result.eigenvalue - want)
            assert result.node_count == args[-1]
            assert error <= 1e-7 * abs(want)
            # The radial errors stay inside the Richardson estimate.  Morse states
            # next to the threshold (s ~ 1e-3) carry an error from the box wall and
            # the recurrence's rounding that no refinement of the mesh shows, so
            # the estimate does not bound them: an open defect of the Morse oracle,
            # not a reason to narrow these draws.
            if solve is not solve_morse:
                assert error <= result.richardson_error_estimate


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
        tracemalloc.start()
        try:
            assert scan_spectrum(problem, (-10.0, -1e-6), 4) == []
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000  # the default mesh stays a few thousand points

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

    def test_each_mesh_is_built_once(self):
        # One call on the requested mesh and one on the doubled-spacing mesh
        # serve all three states of the window.
        calls = []

        def potential(x):
            calls.append(x.size)
            t = np.exp(-x)
            return -12.0 * t + 8.0 * t * t

        results = scan_spectrum(potential, (-4.0, -0.01), 5, grid=Grid1D(-2.5, 30.0, 6001),
                                mass=1.0, hbar=1.0)
        assert [r.node_count for r in results] == [0, 1, 2]
        assert calls == [6001, 3001]

    def test_requested_mesh_refines_from_the_coarse_result(self, monkeypatch):
        # Each state is searched for across the window on the doubled-spacing
        # mesh, so the requested mesh sees only a guessed refinement.
        sizes = []  # mesh size of every probe
        probe = oracle._Shooting.probe

        def counted(prob, energy):
            sizes.append(prob.f0.size)
            return probe(prob, energy)

        monkeypatch.setattr(oracle._Shooting, "probe", counted)
        results = scan_spectrum(three_state_potential, (-4.0, -0.01), 5,
                                grid=Grid1D(-2.5, 30.0, 6001), mass=1.0, hbar=1.0)
        assert len(results) == 3
        assert sizes.count(6001) <= 5 * len(results)

    def test_states_match_unguessed_solves(self):
        grid, window = Grid1D(-2.5, 30.0, 6001), (-4.0, -0.01)
        results = scan_spectrum(three_state_potential, window, 5, grid=grid, mass=1.0, hbar=1.0)
        assert len(results) == 3
        for k, result in enumerate(results):
            want = solve_1d(three_state_potential, grid, k, 1.0, 1.0, window)
            assert result.node_count == want.node_count == k
            assert abs(result.eigenvalue - want.eigenvalue) <= (
                2.0 * oracle._DEFAULT_TOL_REL * abs(want.eigenvalue))

    def test_window_edge_between_the_two_meshes_eigenvalues(self):
        # On 2001 points state 1 lies 2.3e-7 above its doubled-spacing twin; a
        # window starting between them holds it on the requested mesh only.  The
        # twin is then found past the window edge, not clamped to it, so the
        # scan extrapolates and estimates as a solve on the full window does.
        grid, full = Grid1D(-2.5, 30.0, 2001), (-4.0, -0.01)
        build = oracle._line_builder(three_state_potential, 1.0, 1.0)
        fine = oracle._locate(build(grid).probe, 1, full, 1e-13)[0]
        coarse = oracle._locate(build(grid.halved()).probe, 1, full, 1e-13)[0]
        assert coarse < fine - 1e-7
        results = scan_spectrum(three_state_potential, (0.5 * (coarse + fine), -0.01), 5,
                                grid=grid, mass=1.0, hbar=1.0)
        assert [r.node_count for r in results] == [1, 2]
        want = solve_1d(three_state_potential, grid, 1, 1.0, 1.0, full)
        tol = 2.0 * oracle._DEFAULT_TOL_REL * abs(want.eigenvalue)
        assert abs(results[0].eigenvalue - want.eigenvalue) <= tol
        assert abs(results[0].richardson_error_estimate - want.richardson_error_estimate) <= tol
        closed_form = morse_spectrum(MorseParams(v1=-12.0, v2=8.0, alpha=1.0, mass=1.0,
                                                 hbar=1.0))[1].energy
        assert results[0].eigenvalue == pytest.approx(closed_form, rel=5e-11, abs=0)

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


def quartic_potential(x):
    return x ** 4


@pytest.fixture
def swept(monkeypatch):
    """Length of every Numerov sweep, in mesh steps."""
    lengths = []
    sweep = oracle._sweep

    def counted(ratio, coeffs):
        lengths.append(len(coeffs))
        return sweep(ratio, coeffs)

    monkeypatch.setattr(oracle, "_sweep", counted)
    return lengths


class TestSweepWork:
    """Line-mesh sweeps start inside their barriers, and scans guess each state
    from the phase integral; neither changes what a solve or a scan finds."""

    @pytest.mark.parametrize("potential,grid,bracket,window", [
        (harmonic_potential, Grid1D(-40.0, 40.0, 8001), (0.0, 1.0), (0.0, 4.0)),
        (morse_potential, Grid1D(-3.0, 30.0, 6001), (-2.0, -0.5), (-2.0, 0.0)),
    ], ids=["harmonic", "morse"])
    def test_trimmed_barriers_change_no_result(self, monkeypatch, swept, potential, grid,
                                               bracket, window):
        def run():
            return [solve_1d(potential, grid, 0, 1.0, 1.0, bracket)] + scan_spectrum(
                potential, window, 5, grid=grid, mass=1.0, hbar=1.0)

        trimmed = run()
        swept.clear()
        oracle._line_builder(potential, 1.0, 1.0)(grid).probe(trimmed[0].eigenvalue)
        assert sum(swept) < 0.6 * grid.points  # the lowest state's barriers are trimmed
        monkeypatch.setattr(oracle, "_DECAY", math.inf)
        assert run() == trimmed
        assert [r.node_count for r in trimmed[1:]] == list(range(len(trimmed) - 1))

    def test_quartic_scan_finds_every_state(self, monkeypatch, swept):
        # WKB is not exact for x^4: the guess of state 0 is off by 18%, far past
        # the first pad, which doubles until it lands past the eigenvalue.
        def run():
            return scan_spectrum(quartic_potential, (0.0, 25.0), 12,
                                 grid=Grid1D(-6.0, 6.0, 6001), mass=1.0, hbar=1.0)

        guessed, steps = run(), sum(swept)
        swept.clear()
        monkeypatch.setattr(oracle, "_phase_guess", lambda *args: None)
        unguessed = run()
        assert [r.node_count for r in guessed] == list(range(9))
        assert [r.node_count for r in unguessed] == list(range(9))
        for result, want in zip(guessed, unguessed):
            assert abs(result.eigenvalue - want.eigenvalue) <= 1e-10 * abs(want.eigenvalue)
        assert steps <= sum(swept)

    def test_phase_guess_of_the_oscillator(self):
        # The WKB rule gives E_k = k + 1/2 for V = x^2/2, here up to the mesh sum's
        # error at the turning points; a root outside the window is None.
        prob = oracle._line_builder(harmonic_potential, 1.0, 1.0)(Grid1D(-10.0, 10.0, 2001))
        for k in range(4):
            assert oracle._phase_guess(prob, k, 0.0, 4.0) == pytest.approx(k + 0.5, rel=3e-4)
        assert oracle._phase_guess(prob, 4, 0.0, 4.0) is None
        assert oracle._phase_guess(prob, 0, 0.6, 4.0) is None


class TestBracketCounts:
    """A call without a guess counts its bracket ends once, on the requested mesh;
    a guessed solve whose probes certify the window counts nothing.  The
    doubled-spacing level and the states of a scan do not count again."""

    @pytest.fixture
    def meshes(self, monkeypatch):
        sizes = []  # mesh size of every forward count
        forward_nodes = oracle._Shooting.forward_nodes

        def counted(prob, energy):
            sizes.append(prob.f0.size)
            return forward_nodes(prob, energy)

        monkeypatch.setattr(oracle._Shooting, "forward_nodes", counted)
        return sizes

    @pytest.mark.parametrize("solve,counted", [
        (lambda: solve_morse(TWO_STATE, 1), []),
        (lambda: solve_coulomb(3, 0, 0.0, -1.0, 1.0, 1.0, 1), []),
        (lambda: solve_1d(morse_potential, Grid1D(-3.0, 30.0, 6001), 0, 1.0, 1.0,
                          (-2.0, -0.5)), [6001, 6001]),
    ], ids=["morse", "coulomb", "1d"])
    def test_solve_counts_two_ends(self, meshes, solve, counted):
        solve()
        assert meshes == counted

    @pytest.mark.parametrize("n,shift,message,counted", [
        (0, 1, "node count 1 at the lower bracket end exceeds the target 0", [2001]),
        (1, -1, "node count 1 at the upper bracket end does not reach 2", [2001, 2001]),
    ], ids=["past-the-upper-neighbour", "past-the-lower-neighbour"])
    def test_wrong_closed_form_is_a_bracket_error(self, meshes, monkeypatch, n, shift,
                                                   message, counted):
        # Every closed-form energy is moved onto its neighbour's, so the guessed
        # bracket misses state n; its probes never certify the window, and the
        # forward counts at the bracket ends, on the requested mesh, reject it.
        well = MorseParams(v1=-12.0, v2=4.0, alpha=1.0, mass=1.0, hbar=1.0)  # 4 states
        energies = [state.energy for state in morse_spectrum(well)]
        energies = energies[1:] if shift > 0 else [2 * energies[0] - energies[1]] + energies
        monkeypatch.setattr(oracle, "morse_spectrum", lambda params: [
            MorseState(k, 1.0, e, 1.0) for k, e in enumerate(energies)])
        with pytest.raises(BracketError, match=message):
            solve_morse(well, n)
        assert meshes == counted

    @pytest.mark.parametrize("window,states", [((-2.0, -0.5), 1), ((-4.0, -0.01), 3)])
    def test_scan_counts_two_edges(self, meshes, window, states):
        def potential(x):
            t = np.exp(-x)
            return -12.0 * t + 8.0 * t * t

        results = scan_spectrum(potential, window, 5, grid=Grid1D(-2.5, 30.0, 6001),
                                mass=1.0, hbar=1.0)
        assert len(results) == states
        assert meshes == [6001, 6001]
