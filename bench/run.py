"""Benchmark of the morsebound package: end to end, and per layer when traced.

    python3 bench/run.py --workload oracle-verify --seed 1 --seconds 20 --trace 0

Run it from anywhere; it measures the package under ``src/`` next to this
directory.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones of ``BENCHMARK.json``; with ``--trace 1``
they are the per-layer ones.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

WORKLOADS = ("cli-analytic", "closed-form-batch", "oracle-verify", "oracle-scan")
SETUP_REPEATS = 9  # fresh interpreters per set-up measurement; the median is reported
ENV_OVERRIDES = ("MORSEBOUND_TOL", "MORSEBOUND_POINTS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

PER_LAYER_UNITS = {
    "cli.interp_ms": "ms",
    "cli.import_ms": "ms",
    "cli.modules_loaded": "count",
    "cli.main_ms": "ms",
    "specfun.laguerre.calls": "count/op",
    "specfun.laguerre.us": "us",
    "specfun.log_gamma.calls": "count/op",
    "specfun.log_gamma.us": "us",
    "specfun.integrate_halfline.calls": "count/op",
    "specfun.integrate_halfline.ms": "ms",
    "specfun.integrate_halfline.evals": "count/call",
    "morse.spectrum.us": "us",
    "morse.eigenfunction.calls": "count/op",
    "morse.eigenfunction.self_us": "us",
    "potentials.spectrum.us": "us",
    "potentials.eigenfunction.calls": "count/op",
    "potentials.eigenfunction.self_us": "us",
    "langer.quantized_energy_via_morse.ms": "ms",
    "langer.to_morse.calls": "count/call",
    "langer.to_morse.us": "us",
    "oracle.solve.ms": "ms",
    "oracle.solve.self_ms": "ms",
    "oracle.solve_1d.ms": "ms",
    "oracle.solve_radial.ms": "ms",
    "oracle.mesh_points": "count",
    "oracle.us_per_mesh_point": "us",
    "oracle.scan_spectrum.ms": "ms",
    "oracle.scan.states": "count",
    "oracle.scan.ms_per_state": "ms",
    "oracle.potential_calls": "count/op",
    "oracle.max_rel_dev": "ratio",
    "oracle.errbar_coverage": "ratio",
    "trace.overhead_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot measure this checkout."""


def tail_percentile(durations: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    With ten samples or fewer there is no such percentile and the maximum is
    returned as the 100th.
    """
    ordered = sorted(durations)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ENV_OVERRIDES}
    env["PYTHONPATH"] = str(SRC)
    return env


# ``workloads`` and ``spans`` import morsebound, so the functions below import
# them only after main() has put src/ on the path.

def timed_children(ctx, argv: list[str], repeats: int) -> tuple[list[float], list[str]]:
    """Wall seconds and stdout of ``repeats`` fresh interpreters, after one
    untimed run that leaves the bytecode cache warm."""
    from workloads import run_child

    walls, outputs = [], []
    for i in range(repeats + 1):
        t0 = time.perf_counter()
        code, out, err, _ = run_child(ctx, argv)
        wall = time.perf_counter() - t0
        if code != 0:
            raise BenchError(f"child {argv} exited with {code}: {err.strip()[-500:]}")
        if i:
            walls.append(wall)
            outputs.append(out)
    return walls, outputs


def measure_setup(ctx, workload: str, repeats: int) -> float:
    from workloads import SETUP_MODULES

    walls, _ = timed_children(ctx, ["-c", "import " + ", ".join(SETUP_MODULES[workload])],
                              repeats)
    return statistics.median(walls)


_IMPORT_PROBE = ("import sys, time\n"
                 "n = len(sys.modules)\n"
                 "t = time.perf_counter()\n"
                 "import morsebound.cli\n"
                 "print(time.perf_counter() - t, len(sys.modules) - n)\n")


def cli_probes(ctx, repeats: int) -> dict:
    """Bare interpreter start, and the import of the CLI measured inside a child."""
    interp, _ = timed_children(ctx, ["-c", "pass"], repeats)
    _, outputs = timed_children(ctx, ["-c", _IMPORT_PROBE], repeats)
    rows = [line.split() for line in outputs]
    return {
        "cli.interp_ms": 1e3 * statistics.median(interp),
        "cli.import_ms": 1e3 * statistics.median(float(r[0]) for r in rows),
        "cli.modules_loaded": statistics.median(int(r[1]) for r in rows),
    }


def end_to_end(workload: str, loop, setup_s: float, ctx, setup_repeats: int = SETUP_REPEATS
               ) -> tuple[dict, dict]:
    """End-to-end values, and notes that say how they were obtained."""
    p50 = 1e3 * statistics.median(loop.durations)
    tail, pct = tail_percentile(loop.durations)
    if workload == "cli-analytic":
        peak_kb = ctx.child_peak_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": setup_s,
        "ops_per_s": len(loop.durations) / loop.wall_s,
        "op_ms_p50": p50,
        "op_ms_tail": 1e3 * tail,
        "peak_rss_mb": peak_kb / 1024.0,
        "ok_frac": 1.0 - loop.failed / loop.attempted,
    }
    notes = {
        "setup_s": f"median of {setup_repeats} fresh interpreters",
        "op_ms_p50": f"{len(loop.durations)} samples",
        "op_ms_tail": f"p{pct:.1f} of {len(loop.durations)} samples",
        "peak_rss_mb": ("largest peak of the CLI child processes" if workload == "cli-analytic"
                        else "peak of the benchmark process"),
        "ok_frac": f"fail_frac = {loop.failed}/{loop.attempted} = "
                   f"{loop.failed / loop.attempted:.6g}",
    }
    return values, notes


def per_layer(recorder, traced, untraced, ctx, probes: dict) -> dict:
    """Per-layer values from the spans of the traced phase."""
    summary = recorder.summary()
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def row(*names):
        rows = [summary.get(name, zero) for name in names]
        return {key: sum(r[key] for r in rows) for key in zero}

    def per_call(r, key, scale):
        return scale * r[key] / r["calls"] if r["calls"] else 0.0

    ops = traced.attempted
    lag, lg = row("specfun.laguerre"), row("specfun.log_gamma")
    quad = row("specfun.integrate_halfline")
    m_spec, m_eig = row("morse.spectrum"), row("morse.eigenfunction")
    p_spec = row("potentials.sho_spectrum", "potentials.coulomb_spectrum")
    p_eig = row("potentials.sho_eigenfunction", "potentials.coulomb_eigenfunction")
    quant, to_morse = row("langer.quantized_energy_via_morse"), row("langer.to_morse")
    solve, s1d, srad = row("oracle.solve"), row("oracle.solve_1d"), row("oracle.solve_radial")
    scan = row("oracle.scan_spectrum")
    pairs = untraced.oracle + traced.oracle
    traced_results = [result for result, _ in traced.oracle]
    mesh = [r.grid.points + r.grid.halved().points for r in traced_results]
    deviations = [abs(r.eigenvalue - want) / abs(want) for r, want in pairs]
    covered = [abs(r.eigenvalue - want) <= r.richardson_error_estimate for r, want in pairs]
    scan_states = len(traced_results) if scan["calls"] else 0
    oracle_s = s1d["total_s"] + srad["total_s"] + scan["total_s"]
    values = dict(probes)
    values.update({
        "cli.main_ms": per_call(row("cli.main"), "total_s", 1e3),
        "specfun.laguerre.calls": lag["calls"] / ops,
        "specfun.laguerre.us": per_call(lag, "total_s", 1e6),
        "specfun.log_gamma.calls": lg["calls"] / ops,
        "specfun.log_gamma.us": per_call(lg, "total_s", 1e6),
        "specfun.integrate_halfline.calls": quad["calls"] / ops,
        "specfun.integrate_halfline.ms": per_call(quad, "total_s", 1e3),
        "specfun.integrate_halfline.evals": (ctx.integrand_evals / quad["calls"]
                                             if quad["calls"] else 0.0),
        "morse.spectrum.us": per_call(m_spec, "total_s", 1e6),
        "morse.eigenfunction.calls": m_eig["calls"] / ops,
        "morse.eigenfunction.self_us": per_call(m_eig, "self_s", 1e6),
        "potentials.spectrum.us": per_call(p_spec, "total_s", 1e6),
        "potentials.eigenfunction.calls": p_eig["calls"] / ops,
        "potentials.eigenfunction.self_us": per_call(p_eig, "self_s", 1e6),
        "langer.quantized_energy_via_morse.ms": per_call(quant, "total_s", 1e3),
        "langer.to_morse.calls": (recorder.child_calls("langer.to_morse",
                                                       "langer.quantized_energy_via_morse")
                                  / quant["calls"] if quant["calls"] else 0.0),
        "langer.to_morse.us": per_call(to_morse, "total_s", 1e6),
        "oracle.solve.ms": per_call(solve, "total_s", 1e3),
        "oracle.solve.self_ms": per_call(solve, "self_s", 1e3),
        "oracle.solve_1d.ms": per_call(s1d, "total_s", 1e3),
        "oracle.solve_radial.ms": per_call(srad, "total_s", 1e3),
        "oracle.mesh_points": statistics.fmean(mesh) if mesh else 0.0,
        "oracle.us_per_mesh_point": 1e6 * oracle_s / sum(mesh) if mesh else 0.0,
        "oracle.scan_spectrum.ms": per_call(scan, "total_s", 1e3),
        "oracle.scan.states": scan_states / scan["calls"] if scan["calls"] else 0.0,
        "oracle.scan.ms_per_state": 1e3 * scan["total_s"] / scan_states if scan_states else 0.0,
        "oracle.potential_calls": ctx.potential_calls / ops,
        "oracle.max_rel_dev": max(deviations) if deviations else 0.0,
        "oracle.errbar_coverage": statistics.fmean(covered) if covered else 0.0,
        "trace.overhead_frac": (statistics.median(traced.durations)
                                / statistics.median(untraced.durations) - 1.0),
    })
    return values


def provenance(seed: int, attempted: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next(line.split(":", 1)[1].strip() for line in info
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((SRC / "morsebound").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "ops_per_run": attempted,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool,
            setup_repeats: int = SETUP_REPEATS) -> dict:
    """One run: ``{"report": lines of the report, "result": the result object}``."""
    import workloads
    from spans import BINDINGS, SpanRecorder

    OUT.mkdir(exist_ok=True)
    ctx = workloads.Context(root=ROOT, env=child_env(), out=OUT)
    report = []
    if not trace:
        setup_s = measure_setup(ctx, workload, setup_repeats)
        loop = workloads.run_loop(workloads.cycles(workload, ctx, seed), seconds)
        metrics, notes = end_to_end(workload, loop, setup_s, ctx, setup_repeats)
        units, loops = END_TO_END_UNITS, [loop]
    else:
        probes = cli_probes(ctx, setup_repeats)
        # Both phases run the same stream of operations.
        untraced = workloads.run_loop(workloads.cycles(workload, ctx, seed), seconds / 2.0)
        recorder = SpanRecorder()
        ctx.tracing = True
        recorder.install(BINDINGS)
        try:
            traced = workloads.run_loop(workloads.cycles(workload, ctx, seed), seconds / 2.0,
                                        recorder)
        finally:
            recorder.restore()
            ctx.tracing = False
        leaks = wrapped_bindings(BINDINGS)
        if leaks:
            raise BenchError(f"tracing wrappers left behind: {leaks}")
        spans_path = OUT / f"spans-{workload}.csv.gz"
        recorder.write_csv(spans_path)
        report.append(f"spans: {len(recorder)} written to {spans_path.relative_to(ROOT)}")
        metrics = per_layer(recorder, traced, untraced, ctx, probes)
        notes = {"oracle.us_per_mesh_point": "derived: oracle solve time / mesh points",
                 "trace.overhead_frac": "traced op_ms_p50 / untraced op_ms_p50 - 1"}
        units, loops = PER_LAYER_UNITS, [untraced, traced]
    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    report.append("provenance: " + json.dumps(provenance(seed, attempted)))
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        report.append(f"{name} = {metrics[name]:.6g} {unit}{note}")
    report.extend(f"FAILED {text}" for loop in loops for text in loop.failures[:20])
    return {
        "report": report,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()},
        },
    }


def wrapped_bindings(bindings) -> list[str]:
    """Bindings that still hold a tracing wrapper instead of the library function."""
    import importlib

    return [f"{module}.{attr}" for module, attr, _ in bindings
            if hasattr(getattr(importlib.import_module(module), attr), "__wrapped__")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "morsebound" / "__init__.py").is_file():
        print(f"error: no morsebound package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    for name in ENV_OVERRIDES:
        os.environ.pop(name, None)
    sys.path.insert(0, str(SRC))
    import morsebound

    if Path(morsebound.__file__).resolve().parent != (SRC / "morsebound").resolve():
        print(f"error: imported morsebound from {morsebound.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(run["report"]))
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
