"""Command-line front end.

Subcommands: ``spectrum`` (bound-state tables), ``wavefunction`` (CSV samples
of an eigenfunction), ``map`` (Morse image of a radial problem), ``verify``
(analytic vs. Numerov oracle) and ``degeneracy``.  Natural units hbar = m = 1
are the default; every state record is emitted with the schema

    {family, dim, n, l, beta, S, energy, units: {hbar, mass}, provenance}

so analytic and oracle runs can be diffed downstream.  Exit codes: 0 success,
1 physics-domain or verification failure, 2 usage error.

Counts are capped before anything is allocated, with exit 2 past a cap:
``--nmax`` 10000, ``--samples`` 100000, ``--lmax`` and ``degeneracy --dim``
1000.  A negative state index, a non-finite ``--min``/``--max`` and an oracle
mesh past 1,250,001 points are domain errors (exit 1).

Environment overrides: MORSEBOUND_TOL (default verify tolerance, 1e-6) and
MORSEBOUND_POINTS (default oracle grid points).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import oracle, potentials
from .errors import BracketError, ConvergenceError, DomainError
from .langer import RadialProblem, angular_factor, to_morse
from .morse import MorseParams, eigenfunction as morse_eigenfunction, spectrum as morse_spectrum

_ENV_TOL = "MORSEBOUND_TOL"
_ENV_POINTS = "MORSEBOUND_POINTS"

# Caps on the counts the command line accepts.  d_l(D) for D, l <= 1000 has
# at most about 600 digits, well inside what json and csv will print.
_MAX_NMAX = 10_000
_MAX_SAMPLES = 100_000
_MAX_LMAX = 1000
_MAX_DIM = 1000

_STATE_COLUMNS = ["family", "dim", "n", "l", "beta", "S", "energy", "hbar", "mass", "provenance"]


def _env_number(name, parse, fallback):
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return parse(raw)
    except ValueError:
        raise DomainError(
            f"environment variable {name}={raw!r} is not a valid {parse.__name__}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morsebound",
        description="Bound states of the generalized Morse potential and of "
                    "D-dimensional singular oscillator/Coulomb potentials, "
                    "with an independent Numerov oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    system = argparse.ArgumentParser(add_help=False)
    system.add_argument("--system", required=True, choices=tuple(_SYSTEMS))
    system.add_argument("--v1", type=float, help="Morse exp(-alpha x) coupling (< 0 for a well)")
    system.add_argument("--v2", type=float, help="Morse exp(-2 alpha x) coupling (> 0 for a well)")
    system.add_argument("--alpha", type=float, default=1.0,
                        help="Morse inverse length (default 1)")
    system.add_argument("--dim", type=int, help="spatial dimension D >= 2")
    system.add_argument("--l", type=int, default=0, help="angular quantum number (default 0)")
    system.add_argument("--beta", type=float, default=0.0,
                        help="inverse-square coupling (default 0, the pure case)")
    system.add_argument("--omega", type=float, help="oscillator frequency (> 0)")
    system.add_argument("--z", type=float, help="Coulomb coupling (< 0 binds)")
    system.add_argument("--mass", type=float, default=1.0, help="particle mass (default 1)")
    system.add_argument("--hbar", type=float, default=1.0, help="hbar (default 1)")

    sp = sub.add_parser("spectrum", parents=[system], help="bound-state energies")
    sp.add_argument("--nmax", type=int, default=4, help="highest radial index (default 4)")

    wf = sub.add_parser("wavefunction", parents=[system], help="sample one eigenfunction as CSV")
    wf.add_argument("--n", type=int, default=0, help="state index (default 0)")
    wf.add_argument("--min", type=float, required=True, dest="lo", help="first sample point")
    wf.add_argument("--max", type=float, required=True, dest="hi", help="last sample point")
    wf.add_argument("--samples", type=int, default=200, help="sample count (default 200)")

    mp = sub.add_parser("map", parents=[system],
                        help="Morse image of a radial problem at a trial energy")
    mp.add_argument("--energy", type=float, required=True, help="trial energy")

    vf = sub.add_parser("verify", parents=[system],
                        help="compare analytic energies against the Numerov oracle")
    vf.add_argument("--n", type=int, action="append",
                    help="state index to verify (repeatable; default 0)")
    vf.add_argument("--tol", type=float, default=None,
                    help="relative tolerance (default MORSEBOUND_TOL or 1e-6)")
    vf.add_argument("--points", type=int, default=None,
                    help="oracle grid points (default MORSEBOUND_POINTS or per-system)")

    dg = sub.add_parser("degeneracy", help="hyperspherical degeneracy table d_l(D)")
    dg.add_argument("--dim", type=int, required=True)
    dg.add_argument("--lmax", type=int, default=5)

    for p in (sp, mp, vf, dg):
        p.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


@dataclass(frozen=True)
class _System:
    """What the subcommands need of one physical system, read from the parsed ``args``.

    The callables look the library up by its module-level names when they run,
    so a wrapper installed on those names (the benchmark's tracer) sees the calls.
    """

    flags: tuple[str, ...]  # flags the system cannot do without
    spectrum: Callable  # (args, n_max) -> closed-form states 0..n_max (Morse: all)
    label: Callable  # (args, state) -> (family, dim, l, beta, S) of its record
    wave: Callable  # (args, state) -> the eigenfunction x -> u(x)
    solve: Callable  # (args, n, **points) -> oracle.OracleResult of state n
    radial: Callable | None = None  # args -> (delta, z) for map; None for the Morse well


def _morse_params(args) -> MorseParams:
    return MorseParams(v1=args.v1, v2=args.v2, alpha=args.alpha, mass=args.mass, hbar=args.hbar)


def _radial_label(args, state):
    return state.family, state.dim, state.l, args.beta, state.S


_SYSTEMS = {
    "morse": _System(
        flags=("v1", "v2"),
        spectrum=lambda a, n_max: morse_spectrum(_morse_params(a)),
        label=lambda a, st: ("morse", 1, None, None, st.s),
        wave=lambda a, st: partial(morse_eigenfunction, _morse_params(a), st),
        solve=lambda a, n, **kw: oracle.solve_morse(_morse_params(a), n, **kw),
    ),
    "sho": _System(
        flags=("dim", "omega"),
        spectrum=lambda a, n_max: potentials.sho_spectrum(
            a.dim, a.l, a.beta, a.omega, a.mass, a.hbar, n_max),
        label=_radial_label,
        wave=lambda a, st: partial(potentials.sho_eigenfunction, st, a.omega, a.mass, a.hbar),
        solve=lambda a, n, **kw: oracle.solve_sho(
            a.dim, a.l, a.beta, a.omega, a.mass, a.hbar, n, **kw),
        radial=lambda a: (2, 0.5 * a.mass * a.omega ** 2),
    ),
    "coulomb": _System(
        flags=("dim", "z"),
        spectrum=lambda a, n_max: potentials.coulomb_spectrum(
            a.dim, a.l, a.beta, a.z, a.mass, a.hbar, n_max),
        label=_radial_label,
        wave=lambda a, st: partial(potentials.coulomb_eigenfunction, st, a.z, a.mass, a.hbar),
        solve=lambda a, n, **kw: oracle.solve_coulomb(
            a.dim, a.l, a.beta, a.z, a.mass, a.hbar, n, **kw),
        radial=lambda a: (-1, a.z),
    ),
}


def _system(args, parser) -> _System:
    """The table entry of ``--system``, once its required flags are present."""
    system = _SYSTEMS[args.system]
    for name in system.flags:
        if getattr(args, name) is None:
            parser.error(f"--system {args.system} requires --{name}")
    return system


def _state(args, n: int):
    """Closed-form state n of the system in ``args``."""
    if n < 0:
        raise DomainError(f"state index must be >= 0, got {n}")
    states = _SYSTEMS[args.system].spectrum(args, n)
    if n >= len(states):
        raise DomainError(f"state {n} does not exist; the well holds {len(states)}")
    return states[n]


def _record(args, state, energy=None, provenance="analytic"):
    family, dim, l, beta, s_value = _SYSTEMS[args.system].label(args, state)
    return {
        "family": family,
        "dim": dim,
        "n": state.n,
        "l": l,
        "beta": beta,
        "S": s_value,
        "energy": state.energy if energy is None else energy,
        "units": {"hbar": args.hbar, "mass": args.mass},
        "provenance": provenance,
    }


def _flat_row(record):
    flat = {**record, **record["units"]}
    return [flat[key] for key in _STATE_COLUMNS]


def _emit(args, payload, header, rows):
    """Print ``payload`` as JSON, or ``header`` and then ``rows`` as CSV."""
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        writer.writerows(rows)


def _cmd_spectrum(args, parser) -> int:
    if args.nmax > _MAX_NMAX:
        parser.error(f"--nmax must be at most {_MAX_NMAX}")
    states = _system(args, parser).spectrum(args, args.nmax)
    payload = {
        "command": "spectrum",
        "system": args.system,
        "params": {k: getattr(args, k) for k in
                   ("v1", "v2", "alpha", "dim", "l", "beta", "omega", "z", "mass", "hbar")
                   if getattr(args, k) is not None},
        "states": [_record(args, st) for st in states],
    }
    _emit(args, payload, _STATE_COLUMNS, map(_flat_row, payload["states"]))
    return 0


def _cmd_wavefunction(args, parser) -> int:
    if not 2 <= args.samples <= _MAX_SAMPLES:
        parser.error(f"--samples must be between 2 and {_MAX_SAMPLES}")
    system = _system(args, parser)
    if system.radial and args.lo < 0.0:
        parser.error("radial sampling requires --min >= 0")
    if not (math.isfinite(args.lo) and math.isfinite(args.hi)):
        raise DomainError(f"--min and --max must be finite, got {args.lo} and {args.hi}")
    u = system.wave(args, _state(args, args.n))
    xs = np.linspace(args.lo, args.hi, args.samples)
    rows = [[repr(float(x)), repr(float(u(float(x))))] for x in xs]
    writer = csv.writer(sys.stdout)
    writer.writerow(["r_or_x", "u_value"])
    writer.writerows(rows)
    return 0


def _cmd_map(args, parser) -> int:
    if _SYSTEMS[args.system].radial is None:
        parser.error("--system map applies to the radial families (sho or coulomb)")
    delta, z = _system(args, parser).radial(args)
    problem = RadialProblem(dim=args.dim, l=args.l, beta=args.beta, delta=delta,
                            z=z, mass=args.mass, hbar=args.hbar)
    af = angular_factor(args.dim, args.l, args.beta)
    image = to_morse(problem, args.energy)
    payload = {
        "command": "map",
        "system": args.system,
        "dim": args.dim,
        "l": args.l,
        "beta": args.beta,
        "delta": delta,
        "energy": args.energy,
        "lambda": image.lam,
        "v1": image.v1,
        "v2": image.v2,
        "alpha_eff": image.alpha_eff,
        "r0": image.r0,
        "S": af.S,
        "L_plus": af.L_plus,
        "L_minus": af.L_minus,
        "origin_exponent": 0.5 + af.S,
        "has_well": image.v1 < 0.0 < image.v2,
    }
    keys = [k for k in payload if k != "command"]
    _emit(args, payload, keys, [[payload[k] for k in keys]])
    return 0


def _cmd_verify(args, parser) -> int:
    tol = args.tol if args.tol is not None else _env_number(_ENV_TOL, float, 1e-6)
    if not 0.0 < tol < math.inf:
        raise DomainError(f"verify tolerance must be positive and finite, got {tol}")
    points = args.points if args.points is not None else _env_number(_ENV_POINTS, int, None)
    kwargs = {"points": points} if points else {}
    system = _system(args, parser)

    checks = []
    for n in sorted(set(args.n)) if args.n else [0]:
        state = _state(args, n)
        result = system.solve(args, n, **kwargs)
        deviation = abs(result.eigenvalue - state.energy) / max(abs(state.energy), 1e-300)
        checks.append({
            "analytic": _record(args, state),
            "oracle": _record(args, state, result.eigenvalue, "oracle"),
            "node_count": result.node_count,
            "richardson_error_estimate": result.richardson_error_estimate,
            "relative_deviation": deviation,
            "pass": deviation <= tol,
        })
    payload = {
        "command": "verify",
        "system": args.system,
        "tolerance": tol,
        "all_pass": all(check["pass"] for check in checks),
        "checks": checks,
    }
    _emit(args, payload, _STATE_COLUMNS + ["oracle_energy", "relative_deviation", "pass"],
          (_flat_row(check["analytic"])
           + [check["oracle"]["energy"], check["relative_deviation"], check["pass"]]
           for check in checks))
    return 0 if payload["all_pass"] else 1


def _cmd_degeneracy(args, parser) -> int:
    if not 0 <= args.lmax <= _MAX_LMAX:
        parser.error(f"--lmax must be between 0 and {_MAX_LMAX}")
    if args.dim > _MAX_DIM:
        parser.error(f"--dim must be at most {_MAX_DIM}")
    payload = {
        "command": "degeneracy",
        "dim": args.dim,
        "rows": [{"l": l, "count": potentials.degeneracy(args.dim, l).count}
                 for l in range(args.lmax + 1)],
    }
    _emit(args, payload, ["l", "count"], (row.values() for row in payload["rows"]))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "spectrum": _cmd_spectrum,
        "wavefunction": _cmd_wavefunction,
        "map": _cmd_map,
        "verify": _cmd_verify,
        "degeneracy": _cmd_degeneracy,
    }
    try:
        return handlers[args.command](args, parser)
    except (DomainError, BracketError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
