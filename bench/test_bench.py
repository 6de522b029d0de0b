"""Checks of the benchmark itself: failure accounting, metric names and units,
and that tracing leaves no wrapper behind."""

from __future__ import annotations

import importlib
import json
import sys

import run

sys.path.insert(0, str(run.SRC))

import spans  # noqa: E402
import workloads  # noqa: E402
from morsebound.morse import MorseParams  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _ctx():
    run.OUT.mkdir(exist_ok=True)
    return workloads.Context(root=run.ROOT, env=run.child_env(), out=run.OUT)


def _units(section):
    return {entry["name"]: entry["unit"] for entry in BENCHMARK[section]}


def test_perturbed_reference_counts_in_fail_frac():
    ctx = _ctx()
    params = MorseParams(v1=-12.0, v2=4.0, alpha=1.0, mass=1.0, hbar=1.0)
    want = workloads.morse_energy(params, 1)
    coulomb = workloads.coulomb_energy(3, 0, 0.75, -1.0, 1.0, 1.0, 0)
    ops = [
        workloads.morse_batch_op(ctx, params, 1, True),
        workloads.morse_batch_op(ctx, params, 1, True, want_energy=want * (1 + 1e-9)),
        workloads.verify_op("coulomb", (3, 0, 0.75, -1.0, 1.0, 1.0), 0, coulomb),
        workloads.verify_op("coulomb", (3, 0, 0.75, -1.0, 1.0, 1.0), 0, coulomb * (1 + 1e-5)),
    ]
    loop = workloads.run_loop([ops], 0.0)
    assert (loop.attempted, loop.failed) == (4, 2)
    assert all("batch-morse" in text or "verify-coulomb" in text for text in loop.failures)
    values, notes = run.end_to_end("oracle-verify", loop, 1.0, ctx)
    assert values["ok_frac"] == 0.5
    assert "fail_frac = 2/4" in notes["ok_frac"]


def test_cli_check_rejects_a_perturbed_energy():
    ctx = _ctx()
    flags = {"dim": 3, "l": 0, "beta": 0.75, "omega": 1.0, "nmax": 1}
    want = [(n, 1.0, workloads.sho_energy(3, 0, 0.75, 1.0, 1.0, 1.0, n)) for n in range(2)]
    bad = [(n, s, e * (1 + 1e-10)) for n, s, e in want]
    ops = [workloads.spectrum_op(ctx, "sho", "csv", flags, want),
           workloads.spectrum_op(ctx, "sho", "csv", flags, bad)]
    loop = workloads.run_loop([ops], 0.0)
    assert (loop.attempted, loop.failed) == (2, 1)
    assert ctx.child_peak_kb > 0


def _check_result(result, section):
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units(section)
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    json.dumps(result)


def test_end_to_end_names_and_units_match_benchmark_json():
    assert run.END_TO_END_UNITS == _units("end_to_end")
    assert run.PER_LAYER_UNITS == _units("per_layer")
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.CYCLES) == set(workloads.SETUP_MODULES)
    _check_result(run.measure("closed-form-batch", 5, 0.0, False, setup_repeats=1)["result"],
                  "end_to_end")


def test_traced_run_reports_per_layer_metrics_and_leaves_no_wrapper():
    def bound():
        return {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in spans.BINDINGS}

    before = bound()
    result = run.measure("closed-form-batch", 6, 0.0, True, setup_repeats=1)["result"]
    _check_result(result, "per_layer")
    assert result["metrics"]["specfun.laguerre.calls"]["value"] > 0
    after = bound()
    assert all(after[key] is before[key] for key in before)
    assert run.wrapped_bindings(spans.BINDINGS) == []


def test_span_self_time_excludes_children():
    recorder = spans.SpanRecorder()
    with recorder.span("outer"):
        with recorder.span("inner"):
            pass
        with recorder.span("inner"):
            pass
    own = recorder.self_times()
    total = [e - s for s, e in zip(recorder.start, recorder.end)]
    assert abs(own[0] - (total[0] - total[1] - total[2])) < 1e-12
    assert recorder.child_calls("inner", "outer") == 2
    assert recorder.summary()["inner"]["calls"] == 2


def test_seed_fixes_the_inputs():
    def kinds_and_energies(seed):
        stream = workloads.cycles("oracle-verify", _ctx(), seed)
        return [(op.kind, op.expected) for _ in range(3) for op in next(stream)]

    assert kinds_and_energies(3) == kinds_and_energies(3)
    assert kinds_and_energies(3) != kinds_and_energies(4)
