"""Acceptance suite: every criterion at its stated tolerance, one
pass/fail line per criterion (run with -s to see them)."""

import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from conftest import chain_count, count_sign_changes, morse_overlap, radial_overlap
from morsebound.errors import CriticalCouplingError, UnsupportedDeltaError
from morsebound.langer import (
    RadialProblem,
    angular_factor,
    critical_beta,
    quantized_energy_via_morse,
    to_morse,
)
from morsebound.morse import MorseParams, eigenfunction as morse_eigenfunction, spectrum as morse_spectrum
from morsebound.oracle import Grid1D, scan_spectrum, solve_coulomb, solve_morse, solve_sho
from morsebound.potentials import (
    coulomb_eigenfunction,
    coulomb_spectrum,
    degeneracy,
    pure_coulomb_levels,
    pure_sho_levels,
    sho_eigenfunction,
    sho_spectrum,
)

TWO_STATE = MorseParams(v1=-8.0, v2=8.0, alpha=1.0, mass=1.0, hbar=1.0)


def _report(number, name, failures):
    status = "FAIL" if failures else "PASS"
    print(f"[acceptance] criterion {number:2d} ({name}): {status}")
    assert not failures, f"criterion {number} ({name}): " + "; ".join(failures)


def _check(failures, ok, message):
    if not ok:
        failures.append(message)


def test_criterion_01_morse_finite_spectrum():
    failures = []
    start = time.perf_counter()

    states = morse_spectrum(TWO_STATE)
    _check(failures, len(states) == 2, f"expected 2 states, got {len(states)}")
    _check(failures, states[0].energy == pytest.approx(-1.125, rel=1e-12),
           f"E_0 = {states[0].energy}")
    _check(failures, states[1].energy == pytest.approx(-0.125, rel=1e-12, abs=0),
           f"E_1 = {states[1].energy}")

    for n, expect in ((0, -1.125), (1, -0.125)):
        result = solve_morse(TWO_STATE, n)
        deviation = abs(result.eigenvalue - expect) / abs(expect)
        _check(failures, deviation <= 1e-6, f"oracle n={n} off by {deviation:.2e}")

    def potential(x):
        t = np.exp(-x)
        return -8.0 * t + 8.0 * t * t

    found = scan_spectrum(potential, (-2.0, 0.0), 5,
                          grid=Grid1D(-2.5, 30.0, 6001), mass=1.0, hbar=1.0)
    _check(failures, len(found) == 2, f"scan found {len(found)} states, expected 2")

    elapsed = time.perf_counter() - start
    _check(failures, elapsed < 5.0, f"runtime {elapsed:.1f}s exceeds 5s")
    _report(1, "Morse finite spectrum", failures)


def test_criterion_02_hydrogen_ladder():
    failures = []
    start = time.perf_counter()

    levels = pure_coulomb_levels(3, -1.0, 1.0, 1.0, 5)
    for big_n, energy, _ in levels:
        want = -1.0 / (2.0 * big_n ** 2)
        _check(failures, energy == pytest.approx(want, rel=1e-12, abs=0),
               f"analytic N={big_n}: {energy} vs {want}")

    for big_n in (1, 2, 3):
        want = -1.0 / (2.0 * big_n ** 2)
        result = solve_coulomb(3, 0, 0.0, -1.0, 1.0, 1.0, big_n - 1)
        deviation = abs(result.eigenvalue - want) / abs(want)
        _check(failures, deviation <= 1e-6, f"oracle N={big_n} off by {deviation:.2e}")
        _check(failures, result.node_count == big_n - 1,
               f"oracle N={big_n} node count {result.node_count}")

    elapsed = time.perf_counter() - start
    _check(failures, elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s")
    _report(2, "hydrogen ladder", failures)


def test_criterion_03_oscillator_ladder():
    failures = []
    for dim in (2, 3, 5):
        for big_n, energy, _ in pure_sho_levels(dim, 1.0, 1.0, 1.0, 4):
            want = big_n + dim / 2.0
            _check(failures, energy == pytest.approx(want, rel=1e-12),
                   f"analytic D={dim}, N={big_n}: {energy} vs {want}")
    for n, l, want in ((0, 0, 1.5), (0, 1, 2.5), (1, 0, 3.5)):
        result = solve_sho(3, l, 0.0, 1.0, 1.0, 1.0, n)
        deviation = abs(result.eigenvalue - want) / want
        _check(failures, deviation <= 1e-8,
               f"oracle (n={n}, l={l}) off by {deviation:.2e}")
    _report(3, "oscillator ladder", failures)


def test_criterion_04_singular_family():
    failures = []
    af = angular_factor(3, 0, 0.75)
    _check(failures, af.S == pytest.approx(1.0, rel=1e-15, abs=0), f"S = {af.S}")

    coul = coulomb_spectrum(3, 0, 0.75, -1.0, 1.0, 1.0, 0)[0]
    _check(failures, coul.energy == pytest.approx(-2.0 / 9.0, rel=1e-12, abs=0),
           f"singular Coulomb ground {coul.energy}")
    sho = sho_spectrum(3, 0, 0.75, 1.0, 1.0, 1.0, 0)[0]
    _check(failures, sho.energy == pytest.approx(2.0, rel=1e-12),
           f"singular oscillator ground {sho.energy}")

    res_c = solve_coulomb(3, 0, 0.75, -1.0, 1.0, 1.0, 0)
    dev_c = abs(res_c.eigenvalue - coul.energy) / abs(coul.energy)
    _check(failures, dev_c <= 1e-6, f"Coulomb oracle off by {dev_c:.2e}")
    res_s = solve_sho(3, 0, 0.75, 1.0, 1.0, 1.0, 0)
    dev_s = abs(res_s.eigenvalue - sho.energy) / sho.energy
    _check(failures, dev_s <= 1e-6, f"oscillator oracle off by {dev_s:.2e}")
    _report(4, "singular-family check", failures)


def test_criterion_05_critical_coupling():
    failures = []
    for dim in range(2, 7):
        bc = critical_beta(dim)
        _check(failures, bc == -((dim - 2) ** 2) / 4.0, f"beta_c wrong for D={dim}")
        try:
            angular_factor(dim, 0, bc)
            _check(failures, False, f"beta_c accepted for D={dim}")
        except CriticalCouplingError:
            pass
        try:
            af = angular_factor(dim, 0, bc + 1e-6)
            _check(failures, af.S > 0.0, f"S not positive just above beta_c, D={dim}")
        except CriticalCouplingError:
            _check(failures, False, f"beta_c + 1e-6 rejected for D={dim}")
    _report(5, "critical coupling", failures)


def test_criterion_06_no_inverse_square_bound_states():
    failures = []
    problem = RadialProblem(dim=3, l=0, beta=-0.2, delta=0, z=0.0, mass=1.0, hbar=1.0)
    found = scan_spectrum(problem, (-10.0, -1e-6), 4, grid=Grid1D(0.0, 60.0, 12001))
    _check(failures, found == [], f"scan found {len(found)} inverse-square states")
    for delta in (0, -2):
        try:
            to_morse(RadialProblem(dim=3, l=0, beta=-0.2, delta=delta, z=0.0,
                                   mass=1.0, hbar=1.0), -1.0)
            _check(failures, False, f"to_morse accepted delta={delta}")
        except UnsupportedDeltaError:
            pass
    _report(6, "no inverse-square bound states", failures)


def test_criterion_07_branch_invariance():
    failures = []
    for dim in range(2, 11):
        for l in range(0, 7):
            plus = l + Fraction(dim - 3, 2) + Fraction(1, 2)
            minus = -l - Fraction(dim - 1, 2) + Fraction(1, 2)
            _check(failures, plus ** 2 == minus ** 2,
                   f"exact branch mismatch at D={dim}, l={l}")
            fplus = (l + (dim - 3) / 2.0 + 0.5) ** 2
            fminus = (-l - (dim - 1) / 2.0 + 0.5) ** 2
            _check(failures, fplus == fminus,
                   f"float branch mismatch at D={dim}, l={l}")
    _report(7, "branch invariance", failures)


def test_criterion_08_degeneracy():
    failures = []
    for dim in range(2, 7):
        for l in range(0, 6):
            formula = degeneracy(dim, l).count
            brute = chain_count(dim, l)
            _check(failures, formula == brute,
                   f"d_{l}({dim}) = {formula} vs chains {brute}")
    for dim in range(2, 6):
        for big_n, _, total in pure_sho_levels(dim, 1.0, 1.0, 1.0, 6):
            want = math.comb(big_n + dim - 1, dim - 1)
            _check(failures, total == want,
                   f"level N={big_n}, D={dim}: {total} vs compositions {want}")
    _report(8, "degeneracy", failures)


def test_criterion_09_orthonormality_and_nodes():
    failures = []

    # Morse pair
    states = morse_spectrum(TWO_STATE)
    for i, a in enumerate(states):
        for j, b in enumerate(states):
            val = morse_overlap(TWO_STATE, a, b)
            want = 1.0 if i == j else 0.0
            _check(failures, abs(val - want) < 1e-8,
                   f"Morse <{i}|{j}> = {val}")
    xs = np.linspace(-2.0, 14.0, 8001)
    for st in states:
        vals = [morse_eigenfunction(TWO_STATE, st, float(x)) for x in xs]
        _check(failures, count_sign_changes(vals) == st.n,
               f"Morse node count for n={st.n}")

    # radial families, fixed l
    for l in (0, 1):
        sho_states = sho_spectrum(3, l, 0.0, 1.0, 1.0, 1.0, 2)
        for i in range(3):
            for j in range(3):
                val = radial_overlap(
                    lambda r, a=sho_states[i]: sho_eigenfunction(a, 1.0, 1.0, 1.0, r),
                    lambda r, b=sho_states[j]: sho_eigenfunction(b, 1.0, 1.0, 1.0, r),
                    decay_scale=1.0)
                want = 1.0 if i == j else 0.0
                _check(failures, abs(val - want) < 1e-8,
                       f"oscillator l={l} <{i}|{j}> = {val}")
        coul_states = coulomb_spectrum(3, l, 0.0, -1.0, 1.0, 1.0, 2)
        for i in range(3):
            for j in range(3):
                val = radial_overlap(
                    lambda r, a=coul_states[i]: coulomb_eigenfunction(a, -1.0, 1.0, 1.0, r),
                    lambda r, b=coul_states[j]: coulomb_eigenfunction(b, -1.0, 1.0, 1.0, r),
                    decay_scale=8.0)
                want = 1.0 if i == j else 0.0
                _check(failures, abs(val - want) < 1e-8,
                       f"Coulomb l={l} <{i}|{j}> = {val}")
        rs = np.linspace(1e-4, 16.0, 6001)
        for st in sho_states:
            vals = [sho_eigenfunction(st, 1.0, 1.0, 1.0, float(r)) for r in rs]
            _check(failures, count_sign_changes(vals) == st.n,
                   f"oscillator node count (n={st.n}, l={l})")
        rs = np.linspace(1e-4, 70.0, 9001)
        for st in coul_states:
            vals = [coulomb_eigenfunction(st, -1.0, 1.0, 1.0, float(r)) for r in rs]
            _check(failures, count_sign_changes(vals) == st.n,
                   f"Coulomb node count (n={st.n}, l={l})")
    _report(9, "orthonormality and nodes", failures)


def test_criterion_10_mapping_equivalence():
    failures = []
    for dim in range(2, 7):
        for l in range(0, 4):
            for beta in (0.0, 0.75, 2.0):
                if beta + (l + (dim - 3) / 2.0 + 0.5) ** 2 <= 0.0:
                    continue
                for n in range(0, 5):
                    direct = sho_spectrum(dim, l, beta, 1.0, 1.0, 1.0, n)[n].energy
                    mapped = quantized_energy_via_morse(
                        RadialProblem(dim=dim, l=l, beta=beta, delta=2, z=0.5,
                                      mass=1.0, hbar=1.0), n)
                    _check(failures, mapped == pytest.approx(direct, rel=1e-12),
                           f"oscillator D={dim}, l={l}, beta={beta}, n={n}")
                    direct = coulomb_spectrum(dim, l, beta, -1.0, 1.0, 1.0, n)[n].energy
                    mapped = quantized_energy_via_morse(
                        RadialProblem(dim=dim, l=l, beta=beta, delta=-1, z=-1.0,
                                      mass=1.0, hbar=1.0), n)
                    _check(failures, mapped == pytest.approx(direct, rel=1e-12, abs=0),
                           f"Coulomb D={dim}, l={l}, beta={beta}, n={n}")
    _report(10, "mapping equivalence", failures)
