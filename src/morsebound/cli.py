"""Command-line front end.

Subcommands: ``spectrum`` (bound-state tables), ``wavefunction`` (CSV samples
of an eigenfunction), ``map`` (Morse image of a radial problem), ``verify``
(analytic vs. Numerov oracle) and ``degeneracy``.  Natural units hbar = m = 1
are the default; every state record is emitted with the schema

    {family, dim, n, l, beta, S, energy, units: {hbar, mass}, provenance}

so analytic and oracle runs can be diffed downstream.  Exit codes: 0 success,
1 physics-domain or verification failure, 2 usage error.

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

import numpy as np

from . import oracle, potentials
from .errors import BracketError, ConvergenceError, DomainError
from .langer import RadialProblem, angular_factor, to_morse
from .morse import MorseParams, eigenfunction as morse_eigenfunction, spectrum as morse_spectrum

_ENV_TOL = "MORSEBOUND_TOL"
_ENV_POINTS = "MORSEBOUND_POINTS"

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

    def add_units(p):
        p.add_argument("--mass", type=float, default=1.0, help="particle mass (default 1)")
        p.add_argument("--hbar", type=float, default=1.0, help="hbar (default 1)")

    def add_system(p):
        p.add_argument("--system", required=True, choices=("morse", "sho", "coulomb"))
        p.add_argument("--v1", type=float, help="Morse exp(-alpha x) coupling (< 0 for a well)")
        p.add_argument("--v2", type=float, help="Morse exp(-2 alpha x) coupling (> 0 for a well)")
        p.add_argument("--alpha", type=float, default=1.0, help="Morse inverse length (default 1)")
        p.add_argument("--dim", type=int, help="spatial dimension D >= 2")
        p.add_argument("--l", type=int, default=0, help="angular quantum number (default 0)")
        p.add_argument("--beta", type=float, default=0.0,
                       help="inverse-square coupling (default 0, the pure case)")
        p.add_argument("--omega", type=float, help="oscillator frequency (> 0)")
        p.add_argument("--z", type=float, help="Coulomb coupling (< 0 binds)")
        add_units(p)

    sp = sub.add_parser("spectrum", help="bound-state energies")
    add_system(sp)
    sp.add_argument("--nmax", type=int, default=4, help="highest radial index (default 4)")
    sp.add_argument("--format", choices=("json", "csv"), default="json")

    wf = sub.add_parser("wavefunction", help="sample one eigenfunction as CSV")
    add_system(wf)
    wf.add_argument("--n", type=int, default=0, help="state index (default 0)")
    wf.add_argument("--min", type=float, required=True, dest="lo", help="first sample point")
    wf.add_argument("--max", type=float, required=True, dest="hi", help="last sample point")
    wf.add_argument("--samples", type=int, default=200, help="sample count (default 200)")

    mp = sub.add_parser("map", help="Morse image of a radial problem at a trial energy")
    add_system(mp)
    mp.add_argument("--energy", type=float, required=True, help="trial energy")
    mp.add_argument("--format", choices=("json", "csv"), default="json")

    vf = sub.add_parser("verify", help="compare analytic energies against the Numerov oracle")
    add_system(vf)
    vf.add_argument("--n", type=int, action="append",
                    help="state index to verify (repeatable; default 0)")
    vf.add_argument("--tol", type=float, default=None,
                    help="relative tolerance (default MORSEBOUND_TOL or 1e-6)")
    vf.add_argument("--points", type=int, default=None,
                    help="oracle grid points (default MORSEBOUND_POINTS or per-system)")
    vf.add_argument("--format", choices=("json", "csv"), default="json")

    dg = sub.add_parser("degeneracy", help="hyperspherical degeneracy table d_l(D)")
    dg.add_argument("--dim", type=int, required=True)
    dg.add_argument("--lmax", type=int, default=5)
    dg.add_argument("--format", choices=("json", "csv"), default="json")

    return parser


def _require(parser_error, args, names):
    for name in names:
        if getattr(args, name) is None:
            parser_error(f"--system {args.system} requires --{name}")


def _state_record(family, dim, n, l, beta, s_value, energy, hbar, mass,
                  provenance="analytic"):
    return {
        "family": family,
        "dim": dim,
        "n": n,
        "l": l,
        "beta": beta,
        "S": s_value,
        "energy": energy,
        "units": {"hbar": hbar, "mass": mass},
        "provenance": provenance,
    }


def _flat_row(record):
    return [
        record["family"], record["dim"], record["n"], record["l"], record["beta"],
        record["S"], record["energy"], record["units"]["hbar"], record["units"]["mass"],
        record["provenance"],
    ]


def _emit_states(args, payload, out):
    if args.format == "json":
        json.dump(payload, out, indent=2)
        out.write("\n")
    else:
        writer = csv.writer(out)
        writer.writerow(_STATE_COLUMNS)
        for record in payload["states"]:
            writer.writerow(_flat_row(record))


def _analytic_states(args):
    """State records plus the callables needed to re-evaluate them."""
    if args.system == "morse":
        params = MorseParams(v1=args.v1, v2=args.v2, alpha=args.alpha,
                             mass=args.mass, hbar=args.hbar)
        return [
            _state_record("morse", 1, st.n, None, None, st.s, st.energy,
                          args.hbar, args.mass)
            for st in morse_spectrum(params)
        ]
    if args.system == "sho":
        states = potentials.sho_spectrum(args.dim, args.l, args.beta, args.omega,
                                         args.mass, args.hbar, args.nmax)
    else:
        states = potentials.coulomb_spectrum(args.dim, args.l, args.beta, args.z,
                                             args.mass, args.hbar, args.nmax)
    return [
        _state_record(st.family, st.dim, st.n, st.l, args.beta, st.S, st.energy,
                      args.hbar, args.mass)
        for st in states
    ]


def _cmd_spectrum(args, parser) -> int:
    if args.system == "morse":
        _require(parser.error, args, ("v1", "v2"))
    elif args.system == "sho":
        _require(parser.error, args, ("dim", "omega"))
    else:
        _require(parser.error, args, ("dim", "z"))
    records = _analytic_states(args)
    payload = {
        "command": "spectrum",
        "system": args.system,
        "params": {k: getattr(args, k) for k in
                   ("v1", "v2", "alpha", "dim", "l", "beta", "omega", "z", "mass", "hbar")
                   if getattr(args, k) is not None},
        "states": records,
    }
    _emit_states(args, payload, sys.stdout)
    return 0


def _cmd_wavefunction(args, parser) -> int:
    if args.samples < 2:
        parser.error("--samples must be at least 2")
    xs = np.linspace(args.lo, args.hi, args.samples)
    if args.system == "morse":
        _require(parser.error, args, ("v1", "v2"))
        params = MorseParams(v1=args.v1, v2=args.v2, alpha=args.alpha,
                             mass=args.mass, hbar=args.hbar)
        states = morse_spectrum(params)
        if args.n >= len(states):
            raise DomainError(f"state {args.n} does not exist; the well holds {len(states)}")
        values = [morse_eigenfunction(params, states[args.n], float(x)) for x in xs]
    elif args.system == "sho":
        _require(parser.error, args, ("dim", "omega"))
        if args.lo < 0.0:
            parser.error("radial sampling requires --min >= 0")
        state = potentials.sho_spectrum(args.dim, args.l, args.beta, args.omega,
                                        args.mass, args.hbar, args.n)[args.n]
        values = [potentials.sho_eigenfunction(state, args.omega, args.mass,
                                               args.hbar, float(x)) for x in xs]
    else:
        _require(parser.error, args, ("dim", "z"))
        if args.lo < 0.0:
            parser.error("radial sampling requires --min >= 0")
        state = potentials.coulomb_spectrum(args.dim, args.l, args.beta, args.z,
                                            args.mass, args.hbar, args.n)[args.n]
        values = [potentials.coulomb_eigenfunction(state, args.z, args.mass,
                                                   args.hbar, float(x)) for x in xs]
    writer = csv.writer(sys.stdout)
    writer.writerow(["r_or_x", "u_value"])
    for x, u in zip(xs, values):
        writer.writerow([repr(float(x)), repr(float(u))])
    return 0


def _cmd_map(args, parser) -> int:
    if args.system == "morse":
        parser.error("--system map applies to the radial families (sho or coulomb)")
    if args.system == "sho":
        _require(parser.error, args, ("dim", "omega"))
        z = 0.5 * args.mass * args.omega ** 2
        delta = 2
    else:
        _require(parser.error, args, ("dim", "z"))
        z = args.z
        delta = -1
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
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        writer = csv.writer(sys.stdout)
        keys = [k for k in payload if k != "command"]
        writer.writerow(keys)
        writer.writerow([payload[k] for k in keys])
    return 0


def _cmd_verify(args, parser) -> int:
    tol = args.tol if args.tol is not None else _env_number(_ENV_TOL, float, 1e-6)
    if not 0.0 < tol < math.inf:
        raise DomainError(f"verify tolerance must be positive and finite, got {tol}")
    points = args.points if args.points is not None else _env_number(_ENV_POINTS, int, None)
    indices = sorted(set(args.n)) if args.n else [0]

    rows = []
    if args.system == "morse":
        _require(parser.error, args, ("v1", "v2"))
        params = MorseParams(v1=args.v1, v2=args.v2, alpha=args.alpha,
                             mass=args.mass, hbar=args.hbar)
        states = morse_spectrum(params)
        for n in indices:
            if n >= len(states):
                raise DomainError(f"state {n} does not exist; the well holds {len(states)}")
            kwargs = {"points": points} if points else {}
            result = oracle.solve_morse(params, n, **kwargs)
            rows.append((_state_record("morse", 1, n, None, None, states[n].s,
                                       states[n].energy, args.hbar, args.mass), result))
    else:
        if args.system == "sho":
            _require(parser.error, args, ("dim", "omega"))
        else:
            _require(parser.error, args, ("dim", "z"))
        for n in indices:
            kwargs = {"points": points} if points else {}
            if args.system == "sho":
                state = potentials.sho_spectrum(args.dim, args.l, args.beta, args.omega,
                                                args.mass, args.hbar, n)[n]
                result = oracle.solve_sho(args.dim, args.l, args.beta, args.omega,
                                          args.mass, args.hbar, n, **kwargs)
            else:
                state = potentials.coulomb_spectrum(args.dim, args.l, args.beta, args.z,
                                                    args.mass, args.hbar, n)[n]
                result = oracle.solve_coulomb(args.dim, args.l, args.beta, args.z,
                                              args.mass, args.hbar, n, **kwargs)
            rows.append((_state_record(state.family, state.dim, state.n, state.l,
                                       args.beta, state.S, state.energy,
                                       args.hbar, args.mass), result))

    rows.sort(key=lambda item: (item[0]["l"] if item[0]["l"] is not None else 0,
                                item[0]["n"]))
    checks = []
    all_pass = True
    for record, result in rows:
        deviation = abs(result.eigenvalue - record["energy"]) / max(abs(record["energy"]), 1e-300)
        ok = deviation <= tol
        all_pass = all_pass and ok
        oracle_record = dict(record)
        oracle_record["energy"] = result.eigenvalue
        oracle_record["provenance"] = "oracle"
        checks.append({
            "analytic": record,
            "oracle": oracle_record,
            "node_count": result.node_count,
            "richardson_error_estimate": result.richardson_error_estimate,
            "relative_deviation": deviation,
            "pass": ok,
        })
    payload = {
        "command": "verify",
        "system": args.system,
        "tolerance": tol,
        "all_pass": all_pass,
        "checks": checks,
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        writer = csv.writer(sys.stdout)
        writer.writerow(_STATE_COLUMNS + ["oracle_energy", "relative_deviation", "pass"])
        for check in checks:
            writer.writerow(_flat_row(check["analytic"])
                            + [check["oracle"]["energy"], check["relative_deviation"],
                               check["pass"]])
    return 0 if all_pass else 1


def _cmd_degeneracy(args, parser) -> int:
    if args.lmax < 0:
        parser.error("--lmax must be >= 0")
    records = [potentials.degeneracy(args.dim, l) for l in range(args.lmax + 1)]
    if args.format == "json":
        payload = {
            "command": "degeneracy",
            "dim": args.dim,
            "rows": [{"l": rec.l, "count": rec.count} for rec in records],
        }
        print(json.dumps(payload, indent=2))
    else:
        writer = csv.writer(sys.stdout)
        writer.writerow(["l", "count"])
        for rec in records:
            writer.writerow([rec.l, rec.count])
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
