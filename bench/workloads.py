"""Seeded workloads of the morsebound benchmark and the check of every result.

Each workload is a closed loop with one client: one process, no worker
threads, and an operation starts only when the previous one has finished.
A workload is a stream of *cycles*: each cycle is a fixed mix of operation
kinds whose physical parameters are drawn afresh from the seeded generator.
A run takes whole cycles, so every run sees the same mix of kinds, and only
the drawn parameters differ between seeds.

Reference values for the checks come from the closed forms written out here,
independently of the library, except for the sampled wavefunctions, which are
compared with the library's own eigenfunctions.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import morsebound.cli
from morsebound import langer, morse, oracle, potentials, specfun
from morsebound.langer import RadialProblem
from morsebound.morse import MorseParams
from morsebound.oracle import Grid1D

# Modules a fresh interpreter imports for the set-up time of each workload.
SETUP_MODULES = {
    "cli-analytic": ("morsebound.cli",),
    "closed-form-batch": ("morsebound.morse", "morsebound.potentials",
                          "morsebound.langer", "morsebound.specfun"),
    "oracle-verify": ("morsebound.oracle",),
    "oracle-scan": ("morsebound.oracle",),
}

# Tolerances of the checks; they are the ones the test suite and the
# ``verify`` subcommand use.
CLI_REL = 1e-12
LANGER_REL = 1e-12
NORM_ABS = 1e-8
ORACLE_REL = 1e-6

# On its default grids the radial oracle misses the 1e-6 check when S < 1
# (Coulomb) or S < 1/2 (oscillator), up to 4e-3 relative at S = 0.1, because
# the solution r^(1/2+S) is not smooth at the origin.  The oracle workloads
# keep S >= 1; the closed-form workloads cover every S > 0.  The default
# radial grid of scan_spectrum is coarser, and there S = 1.04 still gives
# 7e-7, so the scans keep S >= 1.25 (below 1e-7).
ORACLE_MIN_S = 1.0
SCAN_MIN_S = 1.25

SAMPLE_POINTS = 2000  # eigenfunction samples per closed-form-batch operation


class CheckFailed(Exception):
    """An operation returned a result that disagrees with its reference."""


@dataclass
class Context:
    """What the operations of one run share: the checkout root, the child
    environment, the output directory and the counters that only the traced
    phase fills in."""

    root: Path
    env: dict
    out: Path
    tracing: bool = False
    potential_calls: int = 0
    integrand_evals: int = 0
    child_peak_kb: int = 0


@dataclass
class Op:
    """One operation: ``run`` is timed, ``check`` raises CheckFailed.

    ``expected`` lists the closed-form energies of oracle operations, in the
    order of the OracleResults that ``run`` returns.  ``traced_extra`` runs
    after the timed call in the traced phase only.
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]
    expected: list | None = None
    traced_extra: Callable[[], None] | None = None


# ---------------------------------------------------------------------------
# Closed forms, written out independently of the library.
# ---------------------------------------------------------------------------

def s_of(dim: int, l: int, beta: float) -> float:
    return math.sqrt(beta + (l + (dim - 2) / 2.0) ** 2)


def morse_strength(params: MorseParams) -> float:
    return params.mass * abs(params.v1) / (
        params.hbar * params.alpha * math.sqrt(2.0 * params.mass * params.v2))


def morse_exponents(params: MorseParams) -> list[float]:
    """Decay exponents s_n = strength - n - 1/2 of every bound state."""
    strength = morse_strength(params)
    return [strength - n - 0.5 for n in range(math.ceil(strength - 0.5))]


def morse_energy(params: MorseParams, n: int) -> float:
    s = morse_strength(params) - n - 0.5
    return -(params.hbar * params.alpha * s) ** 2 / (2.0 * params.mass)


def sho_energy(dim, l, beta, omega, mass, hbar, n) -> float:
    return hbar * omega * (2.0 * n + 1.0 + s_of(dim, l, beta))


def coulomb_energy(dim, l, beta, z, mass, hbar, n) -> float:
    return -(mass * z * z / (2.0 * hbar * hbar)) / (n + 0.5 + s_of(dim, l, beta)) ** 2


def degeneracy_count(dim: int, l: int) -> int:
    below = math.comb(l + dim - 3, dim - 1) if l >= 2 else 0
    return math.comb(l + dim - 1, dim - 1) - below


def close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * abs(want)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Parameter draws shared by the workloads.
# ---------------------------------------------------------------------------

def _units(rng: random.Random) -> tuple[float, float]:
    """Mass and hbar: 1 for most draws, otherwise between 0.5 and 2."""
    if rng.random() < 0.3:
        return rng.uniform(0.5, 2.0), rng.uniform(0.6, 1.6)
    return 1.0, 1.0


def _morse(rng: random.Random, strength: float, alpha: float | None = None) -> MorseParams:
    """A Morse well of the given dimensionless strength."""
    mass, hbar = _units(rng)
    alpha = rng.uniform(0.6, 1.5) if alpha is None else alpha
    v2 = rng.uniform(2.0, 10.0)
    v1 = -strength * hbar * alpha * math.sqrt(2.0 * mass * v2) / mass
    return MorseParams(v1=v1, v2=v2, alpha=alpha, mass=mass, hbar=hbar)


def _radial(rng: random.Random, near_critical: bool = False, min_s: float = 0.0,
            max_l: int = 3):
    """(dim, l, beta) with S = sqrt(beta + (l + (D-2)/2)^2) above ``min_s``.

    ``near_critical`` puts beta just above the critical coupling -(D-2)^2/4;
    in the l = 0 channel that makes S tiny, so with ``min_s`` > 0 such draws
    take l >= 1, where S >= 1.
    """
    dim = rng.randint(2, 5)
    if near_critical:
        l = rng.randint(1 if min_s > 0.0 else 0, max_l)
        return dim, l, -((dim - 2) ** 2) / 4.0 + rng.uniform(0.01, 0.04)
    l = rng.randint(0, max_l)
    floor = min_s ** 2 - (l + (dim - 2) / 2.0) ** 2
    return dim, l, rng.uniform(floor + 0.05, 2.0)


# ---------------------------------------------------------------------------
# cli-analytic: one ``python -m morsebound`` subprocess per operation.
# ---------------------------------------------------------------------------

def run_child(ctx: Context, argv: list[str]):
    """Run a child interpreter; return (exit code, stdout, stderr, peak RSS kB).

    The child is reaped with wait4 so that its own peak RSS is known.
    """
    err_path = ctx.out / "child-stderr.txt"
    with open(err_path, "w+b") as err_file:
        proc = subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE,
                                stderr=err_file, env=ctx.env, cwd=ctx.root)
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        err_file.seek(0)
        err = err_file.read()
    return proc.returncode, out.decode(), err.decode(errors="replace"), usage.ru_maxrss


def _flag(name: str, value) -> str:
    return f"--{name}={value!r}" if isinstance(value, float) else f"--{name}={value}"


def _cli_op(ctx: Context, kind: str, args: list[str], check_stdout) -> Op:
    argv = ["-m", "morsebound", *args]

    def run():
        code, out, err, peak_kb = run_child(ctx, argv)
        ctx.child_peak_kb = max(ctx.child_peak_kb, peak_kb)
        return code, out, err

    def check(outcome):
        code, out, err = outcome
        _require(code == 0, f"{kind}: exit code {code}: {err.strip()[-300:]}")
        check_stdout(out)

    def in_process():
        with contextlib.redirect_stdout(io.StringIO()):
            code = morsebound.cli.main(list(args))
        _require(code == 0, f"{kind}: in-process cli.main returned {code}")

    return Op(kind, run, check, traced_extra=in_process)


def _check_states(rows, want, fmt):
    """rows: list of (n, S, energy) parsed from the CLI; want: the same, expected."""
    _require(len(rows) == len(want), f"{fmt}: {len(rows)} states, expected {len(want)}")
    for (n, s_value, energy), (n_ref, s_ref, e_ref) in zip(rows, want):
        _require(n == n_ref, f"{fmt}: state index {n}, expected {n_ref}")
        _require(close(energy, e_ref, CLI_REL), f"{fmt}: n={n} energy {energy!r} != {e_ref!r}")
        _require(close(s_value, s_ref, CLI_REL), f"{fmt}: n={n} S {s_value!r} != {s_ref!r}")


def _parse_states(out: str, fmt: str):
    if fmt == "json":
        return [(st["n"], st["S"], st["energy"]) for st in json.loads(out)["states"]]
    rows = list(csv.reader(io.StringIO(out)))
    header = rows[0]
    i_n, i_s, i_e = header.index("n"), header.index("S"), header.index("energy")
    return [(int(r[i_n]), float(r[i_s]), float(r[i_e])) for r in rows[1:]]


def spectrum_op(ctx, system: str, fmt: str, flags: dict, want) -> Op:
    """``spectrum`` with the expected (n, S, energy) rows."""
    args = ["spectrum", f"--system={system}", f"--format={fmt}"]
    args += [_flag(k, v) for k, v in flags.items()]

    def check_stdout(out):
        _check_states(_parse_states(out, fmt), want, f"spectrum {system} {fmt}")

    return _cli_op(ctx, f"spectrum-{system}-{fmt}", args, check_stdout)


def _cli_spectrum(ctx, rng, system, fmt):
    if system == "morse":
        params = _morse(rng, rng.uniform(1.5, 8.0))
        flags = {"v1": params.v1, "v2": params.v2, "alpha": params.alpha,
                 "mass": params.mass, "hbar": params.hbar}
        s_values = morse_exponents(params)
        want = [(n, s, morse_energy(params, n)) for n, s in enumerate(s_values)]
        return spectrum_op(ctx, system, fmt, flags, want)
    mass, hbar = _units(rng)
    dim, l, beta = _radial(rng)
    nmax = rng.randint(2, 8)
    flags = {"dim": dim, "l": l, "beta": beta, "nmax": nmax, "mass": mass, "hbar": hbar}
    if system == "sho":
        omega = rng.uniform(0.5, 2.0)
        flags["omega"] = omega
        want = [(n, s_of(dim, l, beta), sho_energy(dim, l, beta, omega, mass, hbar, n))
                for n in range(nmax + 1)]
    else:
        z = -rng.uniform(0.5, 2.0)
        flags["z"] = z
        want = [(n, s_of(dim, l, beta), coulomb_energy(dim, l, beta, z, mass, hbar, n))
                for n in range(nmax + 1)]
    return spectrum_op(ctx, system, fmt, flags, want)


def _cli_map(ctx, rng, system, fmt):
    mass, hbar = _units(rng)
    dim, l, beta = _radial(rng)
    flags = {"dim": dim, "l": l, "beta": beta, "mass": mass, "hbar": hbar}
    if system == "sho":
        omega = rng.uniform(0.5, 2.0)
        energy = rng.uniform(0.5, 6.0)
        flags.update(omega=omega, energy=energy)
        want = {"lambda": 0.5, "v1": -energy / 4.0, "v2": mass * omega ** 2 / 8.0}
    else:
        z = -rng.uniform(0.5, 2.0)
        energy = -rng.uniform(0.05, 2.0)
        flags.update(z=z, energy=energy)
        want = {"lambda": 1.0, "v1": z, "v2": -energy}
    s_value = s_of(dim, l, beta)
    want.update(S=s_value, origin_exponent=0.5 + s_value)
    args = ["map", f"--system={system}", f"--format={fmt}"]
    args += [_flag(k, v) for k, v in flags.items()]

    def check_stdout(out):
        if fmt == "json":
            got = json.loads(out)
        else:
            header, row = list(csv.reader(io.StringIO(out)))
            got = {k: float(v) for k, v in zip(header, row) if k in want}
        for key, value in want.items():
            _require(close(float(got[key]), value, CLI_REL),
                     f"map {system}: {key} {got[key]!r} != {value!r}")

    return _cli_op(ctx, f"map-{system}-{fmt}", args, check_stdout)


def _cli_degeneracy(ctx, rng):
    dim = rng.randint(2, 8)
    lmax = rng.randint(2, 8)
    fmt = rng.choice(("json", "csv"))
    want = [(l, degeneracy_count(dim, l)) for l in range(lmax + 1)]
    args = ["degeneracy", f"--dim={dim}", f"--lmax={lmax}", f"--format={fmt}"]

    def check_stdout(out):
        if fmt == "json":
            got = [(row["l"], row["count"]) for row in json.loads(out)["rows"]]
        else:
            got = [(int(a), int(b)) for a, b in list(csv.reader(io.StringIO(out)))[1:]]
        _require(got == want, f"degeneracy D={dim}: {got} != {want}")

    return _cli_op(ctx, f"degeneracy-{fmt}", args, check_stdout)


def _cli_wavefunction(ctx, rng, system):
    mass, hbar = _units(rng)
    samples = rng.randint(200, 400)
    if system == "morse":
        params = _morse(rng, rng.uniform(2.0, 8.0))
        n = rng.randrange(len(morse_exponents(params)))
        flags = {"v1": params.v1, "v2": params.v2, "alpha": params.alpha,
                 "mass": params.mass, "hbar": params.hbar, "n": n,
                 "min": -2.0 / params.alpha, "max": 12.0 / params.alpha}
        state = morse.spectrum(params)[n]

        def reference(x):
            return morse.eigenfunction(params, state, x)
    else:
        dim, l, beta = _radial(rng)
        n = rng.randint(0, 6)
        flags = {"dim": dim, "l": l, "beta": beta, "mass": mass, "hbar": hbar, "n": n,
                 "min": 0.0}
        if system == "sho":
            omega = rng.uniform(0.5, 2.0)
            flags.update(omega=omega, max=8.0 * math.sqrt(hbar / (mass * omega)) * (1 + n) ** 0.5)
            state = potentials.sho_spectrum(dim, l, beta, omega, mass, hbar, n)[n]

            def reference(r):
                return potentials.sho_eigenfunction(state, omega, mass, hbar, r)
        else:
            z = -rng.uniform(0.5, 2.0)
            flags.update(z=z, max=3.0 * hbar * hbar / (mass * abs(z)) * (n + 2) ** 2)
            state = potentials.coulomb_spectrum(dim, l, beta, z, mass, hbar, n)[n]

            def reference(r):
                return potentials.coulomb_eigenfunction(state, z, mass, hbar, r)
    flags["samples"] = samples
    args = ["wavefunction", f"--system={system}"] + [_flag(k, v) for k, v in flags.items()]

    def check_stdout(out):
        rows = list(csv.reader(io.StringIO(out)))
        _require(rows[0] == ["r_or_x", "u_value"], f"wavefunction {system}: header {rows[0]}")
        _require(len(rows) == samples + 1,
                 f"wavefunction {system}: {len(rows) - 1} samples, expected {samples}")
        _require(float(rows[1][0]) == flags["min"] and float(rows[-1][0]) == flags["max"],
                 f"wavefunction {system}: sample range {rows[1][0]}..{rows[-1][0]}")
        for x_text, u_text in rows[1:]:
            want = reference(float(x_text))
            got = float(u_text)
            _require(abs(got - want) <= CLI_REL * abs(want) or (got == want),
                     f"wavefunction {system}: u({x_text}) = {got!r} != {want!r}")

    return _cli_op(ctx, f"wavefunction-{system}", args, check_stdout)


def cli_cycle(ctx: Context, rng: random.Random, index: int) -> list[Op]:
    return [
        _cli_spectrum(ctx, rng, "morse", "json"),
        _cli_spectrum(ctx, rng, "morse", "csv"),
        _cli_spectrum(ctx, rng, "sho", "json"),
        _cli_spectrum(ctx, rng, "sho", "csv"),
        _cli_spectrum(ctx, rng, "coulomb", "json"),
        _cli_spectrum(ctx, rng, "coulomb", "csv"),
        _cli_map(ctx, rng, "sho", "json"),
        _cli_map(ctx, rng, "coulomb", "csv"),
        _cli_degeneracy(ctx, rng),
        _cli_wavefunction(ctx, rng, "morse"),
        _cli_wavefunction(ctx, rng, "sho"),
        _cli_wavefunction(ctx, rng, "coulomb"),
    ]


# ---------------------------------------------------------------------------
# closed-form-batch: spectra, eigenfunction samples, Langer route, norms.
# ---------------------------------------------------------------------------

def _counted(ctx: Context, f):
    """The integrand itself, or in the traced phase a copy that counts calls."""
    if not ctx.tracing:
        return f

    def counted(x):
        ctx.integrand_evals += 1
        return f(x)

    return counted


def _closed_form_check(kind, want_energy):
    def check(outcome):
        energy, langer_energy, norm, values = outcome
        _require(close(energy, want_energy, LANGER_REL),
                 f"{kind}: closed-form energy {energy!r} != {want_energy!r}")
        if langer_energy is not None:
            _require(close(langer_energy, want_energy, LANGER_REL),
                     f"{kind}: Langer-route energy {langer_energy!r} != {want_energy!r}")
        if norm is not None:
            _require(abs(norm - 1.0) <= NORM_ABS, f"{kind}: norm {norm!r} != 1")
        _require(len(values) == SAMPLE_POINTS and all(math.isfinite(v) for v in values),
                 f"{kind}: eigenfunction samples are not all finite")
    return check


def morse_batch_op(ctx, params: MorseParams, n: int, with_norm: bool,
                   want_energy: float | None = None) -> Op:
    want = morse_energy(params, n) if want_energy is None else want_energy
    xi0 = 2.0 * math.sqrt(2.0 * params.mass * params.v2) / (params.hbar * params.alpha)
    x_lo = -math.log((4.0 * morse_strength(params) + 40.0) / xi0) / params.alpha
    x_hi = -math.log(1e-4 / xi0) / params.alpha
    xs = [x_lo + (x_hi - x_lo) * i / (SAMPLE_POINTS - 1) for i in range(SAMPLE_POINTS)]

    def run():
        state = morse.spectrum(params)[n]
        values = [morse.eigenfunction(params, state, x) for x in xs]
        norm = None
        if with_norm:
            def density(xi):
                x = -math.log(xi / xi0) / params.alpha
                return morse.eigenfunction(params, state, x) ** 2 / xi
            norm = specfun.integrate_halfline(_counted(ctx, density),
                                              decay_scale=2.0 * state.s + 1.0,
                                              tol=1e-10) / params.alpha
        return state.energy, None, norm, values

    return Op("batch-morse", run, _closed_form_check("batch-morse", want))


def radial_batch_op(ctx, family: str, dim, l, beta, coupling, mass, hbar, n: int,
                    with_norm: bool, want_energy: float | None = None) -> Op:
    """``coupling`` is omega for the oscillator and z for the Coulomb case."""
    if family == "sho":
        omega = coupling
        want = sho_energy(dim, l, beta, omega, mass, hbar, n)
        problem = RadialProblem(dim=dim, l=l, beta=beta, delta=2,
                                z=0.5 * mass * omega * omega, mass=mass, hbar=hbar)
        r_max = math.sqrt(2.0 * hbar / (mass * omega) * (want / (hbar * omega) + 45.0))
        scale = math.sqrt(hbar / (mass * omega) * (2 * n + 1 + s_of(dim, l, beta)))
    else:
        z = coupling
        want = coulomb_energy(dim, l, beta, z, mass, hbar, n)
        problem = RadialProblem(dim=dim, l=l, beta=beta, delta=-1, z=z, mass=mass, hbar=hbar)
        kappa = math.sqrt(2.0 * mass * abs(want)) / hbar
        r_max = abs(z) / abs(want) + 28.0 / kappa
        scale = 1.0 / kappa
    if want_energy is not None:
        want = want_energy
    rs = [r_max * (i + 1) / SAMPLE_POINTS for i in range(SAMPLE_POINTS)]
    kind = f"batch-{family}"

    def run():
        # Looked up at call time so that the traced phase sees its wrappers.
        state = getattr(potentials, f"{family}_spectrum")(dim, l, beta, coupling, mass, hbar,
                                                           n)[n]
        u = getattr(potentials, f"{family}_eigenfunction")
        values = [u(state, coupling, mass, hbar, r) for r in rs]
        langer_energy = langer.quantized_energy_via_morse(problem, n)
        norm = None
        if with_norm:
            norm = specfun.integrate_halfline(
                _counted(ctx, lambda r: u(state, coupling, mass, hbar, r) ** 2),
                decay_scale=scale, tol=1e-10)
        return state.energy, langer_energy, norm, values

    return Op(kind, run, _closed_form_check(kind, want))


def batch_cycle(ctx: Context, rng: random.Random, index: int) -> list[Op]:
    ops = []
    for slot in range(4):
        with_norm = slot == 0
        n = rng.randint(0, 30)
        params = _morse(rng, n + rng.uniform(1.5, 8.0))
        ops.append(morse_batch_op(ctx, params, n, with_norm))
        for family in ("sho", "coulomb"):
            dim, l, beta = _radial(rng, near_critical=slot == 1)
            mass, hbar = _units(rng)
            coupling = rng.uniform(0.5, 2.0) if family == "sho" else -rng.uniform(0.5, 2.0)
            ops.append(radial_batch_op(ctx, family, dim, l, beta, coupling, mass, hbar,
                                       rng.randint(0, 30), with_norm))
    return ops


# ---------------------------------------------------------------------------
# oracle-verify: one default-grid oracle solve per operation.
# ---------------------------------------------------------------------------

def _oracle_check(kind, want_nodes):
    def check(outcome):
        results, expected = outcome
        _require(len(results) == len(expected),
                 f"{kind}: {len(results)} states, expected {len(expected)}")
        previous = -math.inf
        for k, (result, want) in enumerate(zip(results, expected)):
            deviation = abs(result.eigenvalue - want) / abs(want)
            _require(deviation <= ORACLE_REL,
                     f"{kind}: state {k} oracle {result.eigenvalue!r} vs closed form "
                     f"{want!r} (relative deviation {deviation:.3g})")
            _require(result.node_count == want_nodes[k],
                     f"{kind}: state {k} has {result.node_count} nodes, expected {want_nodes[k]}")
            _require(result.eigenvalue > previous, f"{kind}: energies do not ascend")
            previous = result.eigenvalue
    return check


def verify_op(family: str, args: tuple, n: int, want_energy: float) -> Op:
    """Solve state n with ``oracle.solve_<family>(*args, n)`` on its default grid."""
    kind = f"verify-{family}"

    def run():
        return [getattr(oracle, f"solve_{family}")(*args, n)], [want_energy]

    return Op(kind, run, _oracle_check(kind, [n]), expected=[want_energy])


def verify_cycle(ctx: Context, rng: random.Random, index: int) -> list[Op]:
    # Every oscillator solve on the default 12001-point grid takes the same
    # number of Numerov steps; Morse solves are cheaper and Coulomb solves
    # (16001 points) dearer.  Seven oscillator states between four Morse and
    # four dearer solves put the median operation in the middle of one tight
    # cluster instead of in the gap between two, where it would swing with
    # the machine's speed.
    ops = []
    for _ in range(4):
        n = rng.randint(0, 4)
        params = _morse(rng, n + rng.uniform(1.5, 6.0))
        ops.append(verify_op("morse", (params,), n, morse_energy(params, n)))
    # A shallow top state every other cycle, s = 0.05 and 0.125 in turn, the
    # first in cycle 0: the default mesh grows like 1/(alpha*s), to ~140k
    # points at s = 0.05.  Fixing s and alpha keeps the largest mesh, and with
    # it the peak memory, the same for every seed.  A run holds well under ten
    # of them, so op_ms_tail stays in the cluster of ordinary solves instead
    # of jumping into theirs when a run fits in one more cycle.
    if index % 2 == 0:
        n = rng.randint(0, 3)
        params = _morse(rng, n + 0.5 + (0.05, 0.125)[index // 2 % 2], alpha=1.0)
        ops.append(verify_op("morse", (params,), n, morse_energy(params, n)))
    for family, slots in (("sho", 7), ("coulomb", 3)):
        for slot in range(slots):
            dim, l, beta = _radial(rng, near_critical=slot == 0, min_s=ORACLE_MIN_S)
            mass, hbar = _units(rng)
            n = rng.randint(0, 4)
            if family == "sho":
                omega = rng.uniform(0.5, 2.0)
                want = sho_energy(dim, l, beta, omega, mass, hbar, n)
                ops.append(verify_op("sho", (dim, l, beta, omega, mass, hbar), n, want))
            else:
                z = -rng.uniform(0.5, 2.0)
                want = coulomb_energy(dim, l, beta, z, mass, hbar, n)
                ops.append(verify_op("coulomb", (dim, l, beta, z, mass, hbar), n, want))
    # This state leaves the mismatch bisection and falls back to node sweeps.
    ops.append(verify_op("coulomb", (3, 2, 0.0, -1.0, 1.0, 1.0), 5,
                         coulomb_energy(3, 2, 0.0, -1.0, 1.0, 1.0, 5)))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# oracle-scan: one scan_spectrum over a window of 3-6 states per operation.
# ---------------------------------------------------------------------------

def _window(energies: list[float], first: int, count: int) -> tuple[float, float]:
    """Energy window holding exactly levels first .. first+count-1; its edges
    sit halfway between neighbouring levels."""
    lo_gap = energies[first + 1] - energies[first] if first == 0 else (
        energies[first] - energies[first - 1])
    top = first + count - 1
    return (energies[first] - 0.5 * lo_gap,
            0.5 * (energies[top] + energies[top + 1]))


def scan_op(ctx, kind: str, target, window, expected, nodes, *, grid=None, mass=None,
            hbar=None) -> Op:
    """``scan_spectrum`` over ``window``; ``expected`` and ``nodes`` describe
    the states the window holds, in ascending order."""

    def run():
        potential = target
        if ctx.tracing and not isinstance(target, RadialProblem):
            def potential(x):
                ctx.potential_calls += 1
                return target(x)
        results = oracle.scan_spectrum(potential, window, len(expected) + 2, grid=grid,
                                       mass=mass, hbar=hbar)
        return results, expected

    return Op(kind, run, _oracle_check(kind, nodes), expected=expected)


# The default radial grid ends at r = 300 at most and is documented as rough.
# A Coulomb window is redrawn until its top state's box, the turning radius
# plus 28 decay lengths as in ``solve_coulomb``, fits inside that.
RADIAL_REACH = 300.0


def _radial_scan(ctx, rng, family: str, count: int) -> Op:
    first = rng.randint(0, 1)
    levels = range(first + count + 1)
    while True:
        dim, l, beta = _radial(rng, min_s=SCAN_MIN_S, max_l=2)
        mass, hbar = _units(rng)
        if family == "sho":
            omega = rng.uniform(0.5, 2.0)
            energies = [sho_energy(dim, l, beta, omega, mass, hbar, k) for k in levels]
            problem = RadialProblem(dim=dim, l=l, beta=beta, delta=2,
                                    z=0.5 * mass * omega * omega, mass=mass, hbar=hbar)
            break
        z = -rng.uniform(0.5, 2.0)
        energies = [coulomb_energy(dim, l, beta, z, mass, hbar, k) for k in levels]
        top = energies[first + count - 1]
        if abs(z / top) + 28.0 * hbar / math.sqrt(2.0 * mass * abs(top)) <= RADIAL_REACH:
            problem = RadialProblem(dim=dim, l=l, beta=beta, delta=-1, z=z, mass=mass,
                                    hbar=hbar)
            break
    window = _window(energies, first, count)
    return scan_op(ctx, f"scan-{family}", problem, window, energies[first:first + count],
                   list(range(first, first + count)))


# Points of the explicit Morse scan grids; with them a four-state Morse scan
# costs about as much as a three-state scan on the default radial grid.
SCAN_POINTS = 8001


def _morse_scan(ctx, rng, count: int, scalar: bool) -> Op:
    first = rng.randint(0, 1)
    # The top state of the window keeps s >= 1, so its tail stays short.
    params = _morse(rng, first + count + 1.5 + rng.uniform(0.5, 3.0))
    energies = [morse_energy(params, k) for k in range(first + count + 1)]
    window = _window(energies, first, count)
    depth = params.v1 ** 2 / (4.0 * params.v2)
    t_wall = (-params.v1 + math.sqrt(params.v1 ** 2 + 4.0 * params.v2 * 500.0 * depth)) / (
        2.0 * params.v2)
    e_top = energies[first + count - 1]
    t_out = (-params.v1 - math.sqrt(params.v1 ** 2 + 4.0 * params.v2 * e_top)) / (2.0 * params.v2)
    kappa = math.sqrt(2.0 * params.mass * abs(e_top)) / params.hbar
    x_min = -math.log(t_wall) / params.alpha
    x_max = -math.log(t_out) / params.alpha + 28.0 / kappa
    grid = Grid1D(x_min, x_max, SCAN_POINTS)
    v1, v2, alpha = params.v1, params.v2, params.alpha
    if scalar:
        def potential(x):
            t = math.exp(-alpha * x)  # raises TypeError for an array argument
            return v1 * t + v2 * t * t
    else:
        def potential(x):
            t = np.exp(-alpha * x)
            return v1 * t + v2 * t * t
    kind = "scan-morse-scalar" if scalar else "scan-morse-vector"
    return scan_op(ctx, kind, potential, window, energies[first:first + count],
                   list(range(first, first + count)), grid=grid, mass=params.mass,
                   hbar=params.hbar)


def scan_cycle(ctx: Context, rng: random.Random, index: int) -> list[Op]:
    # Window sizes are chosen so that the six operations cost about the same,
    # which keeps the median operation inside one cluster for every seed.
    return [
        _radial_scan(ctx, rng, "coulomb", 3),
        _radial_scan(ctx, rng, "sho", 3),
        _radial_scan(ctx, rng, "coulomb", 4),
        _morse_scan(ctx, rng, 4, scalar=False),
        _morse_scan(ctx, rng, 4, scalar=True),
        _morse_scan(ctx, rng, 6, scalar=False),
    ]


CYCLES = {
    "cli-analytic": cli_cycle,
    "closed-form-batch": batch_cycle,
    "oracle-verify": verify_cycle,
    "oracle-scan": scan_cycle,
}


def cycles(workload: str, ctx: Context, seed: int):
    """Endless stream of cycles, each with fresh parameter draws; the same
    seed gives the same stream."""
    rng = random.Random(f"{workload}:{seed}")
    build = CYCLES[workload]
    for index in itertools.count():
        yield build(ctx, rng, index)


@dataclass
class LoopResult:
    durations: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    failures: list[str] = field(default_factory=list)
    oracle: list[tuple] = field(default_factory=list)  # (OracleResult, closed form)


# A traced phase also ends after the cycle that takes the recorder past this
# many spans (about 10 MB of columns), however much of ``seconds`` is left.
SPAN_CAP = 300_000


def run_loop(stream, seconds: float, recorder=None) -> LoopResult:
    """Run whole cycles from ``stream`` until ``seconds`` have passed in them;
    check every result.  Drawing the next cycle's inputs is not timed.

    With a recorder, each operation runs inside an ``op`` span and checks run
    with the original functions restored, so only the operation is traced.
    """
    out = LoopResult()
    op_id = 0
    if recorder is not None:
        recorder.suspend()  # drawing inputs is not traced either
    for cycle in stream:
        cycle_start = time.perf_counter()
        for op in cycle:
            out.attempted += 1
            if recorder is not None:
                recorder.op_id = op_id
                recorder.resume()
            t0 = time.perf_counter()
            try:
                if recorder is not None:
                    with recorder.span("op"):
                        outcome = op.run()
                else:
                    outcome = op.run()
                out.durations.append(time.perf_counter() - t0)
                if recorder is not None and op.traced_extra is not None:
                    op.traced_extra()
            except Exception as exc:  # an operation that raises is a failure
                out.failed += 1
                out.failures.append(f"{op.kind}: {type(exc).__name__}: {exc}")
                continue
            finally:
                if recorder is not None:
                    recorder.suspend()
                op_id += 1
            try:
                op.check(outcome)
            except CheckFailed as exc:
                out.failed += 1
                out.failures.append(str(exc))
                continue
            if op.expected is not None:
                out.oracle.extend(zip(outcome[0], op.expected))
        out.wall_s += time.perf_counter() - cycle_start
        if out.wall_s >= seconds or (recorder is not None and len(recorder) >= SPAN_CAP):
            break
    return out
