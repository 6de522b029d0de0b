import csv
import io
import json
import math

import numpy as np
import pytest

from morsebound.cli import main
from morsebound.langer import RadialProblem, to_morse
from morsebound.morse import MorseParams, eigenfunction as morse_eigenfunction
from morsebound.morse import spectrum as morse_spectrum
from morsebound.potentials import (
    coulomb_eigenfunction,
    coulomb_spectrum,
    sho_eigenfunction,
    sho_spectrum,
)


HUGE = "1" + "0" * 400  # an integer argparse accepts and no float holds


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpectrumCommand:
    def test_morse_json(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--system", "morse",
                               "--v1", "-8", "--v2", "8", "--alpha", "1",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        energies = [st["energy"] for st in payload["states"]]
        assert energies == pytest.approx([-1.125, -0.125], rel=1e-12, abs=0)
        assert all(st["provenance"] == "analytic" for st in payload["states"])

    def test_morse_json_round_trip(self, capsys):
        _, out, _ = run_cli(capsys, "spectrum", "--system", "morse",
                            "--v1", "-8", "--v2", "8", "--alpha", "1")
        payload = json.loads(out)
        p = payload["params"]
        for st in payload["states"]:
            # energy must be recomputable from the reported exponent
            rebuilt = -(p["hbar"] * p["alpha"] * st["S"]) ** 2 / (2.0 * p["mass"])
            assert rebuilt == pytest.approx(st["energy"], rel=1e-15, abs=0)

    def test_sho_json_round_trip(self, capsys):
        _, out, _ = run_cli(capsys, "spectrum", "--system", "sho", "--dim", "3",
                            "--l", "1", "--beta", "0.75", "--omega", "1",
                            "--nmax", "3")
        payload = json.loads(out)
        p = payload["params"]
        for st in payload["states"]:
            rebuilt = p["hbar"] * p["omega"] * (2 * st["n"] + 1 + st["S"])
            assert rebuilt == pytest.approx(st["energy"], rel=1e-15, abs=0)

    def test_coulomb_csv(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--system", "coulomb",
                               "--dim", "3", "--z", "-1", "--nmax", "1",
                               "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["family", "dim", "n", "l", "beta", "S", "energy",
                           "hbar", "mass", "provenance"]
        assert float(rows[1][6]) == pytest.approx(-0.5, rel=1e-12, abs=0)
        assert float(rows[2][6]) == pytest.approx(-0.125, rel=1e-12, abs=0)

    def test_missing_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["spectrum", "--system", "morse"])
        assert err.value.code == 2

    def test_physics_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--system", "sho", "--dim", "3",
                               "--beta", "-0.5", "--omega", "1")
        assert code == 1
        assert "critical" in err


class TestWavefunctionCommand:
    def test_csv_columns_and_origin(self, capsys):
        code, out, _ = run_cli(capsys, "wavefunction", "--system", "coulomb",
                               "--dim", "3", "--z", "-1", "--n", "0",
                               "--min", "0", "--max", "5", "--samples", "6")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["r_or_x", "u_value"]
        assert len(rows) == 7
        assert float(rows[1][1]) == 0.0  # u(0) = 0
        # interior sample against the hydrogen 1s closed form
        r, u = float(rows[2][0]), float(rows[2][1])
        assert u == pytest.approx(2.0 * r * math.exp(-r), rel=1e-12, abs=0)

    def test_morse_wavefunction(self, capsys):
        code, out, _ = run_cli(capsys, "wavefunction", "--system", "morse",
                               "--v1", "-8", "--v2", "8", "--n", "1",
                               "--min", "-2", "--max", "10", "--samples", "50")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 51

    def test_out_of_range_state(self, capsys):
        code, _, err = run_cli(capsys, "wavefunction", "--system", "morse",
                               "--v1", "-8", "--v2", "8", "--n", "7",
                               "--min", "-2", "--max", "10")
        assert code == 1
        assert "does not exist" in err

    @pytest.mark.parametrize("argv", [
        # s = 282.3 and norm_const underflows to 0.0
        ["--system", "morse", "--v1=-400", "--v2", "1", "--n", "0",
         "--min=-5.3", "--max=-5.2", "--samples", "3"],
        # r**(1/2+S) = 40**501 overflows a float on its own
        ["--system", "sho", "--dim", "3", "--l", "500", "--omega", "1", "--n", "0",
         "--min", "0", "--max", "40", "--samples", "9"],
        # L_10000 overflows at t = 2500 while u stays of order 0.1
        ["--system", "sho", "--dim", "3", "--omega", "1", "--n", "10000",
         "--min", "0", "--max", "100"],
        # the --n cap in a Morse well of strength 10000.65: L_10000 at xi of order 1e4
        ["--system", "morse", "--v1=-14143", "--v2", "1", "--n", "10000",
         "--min=-9", "--max=-8", "--samples", "3"],
    ], ids=["deep-morse-well", "sho-l500", "sho-n10000", "morse-n10000"])
    def test_deep_well_and_high_l_are_finite(self, capsys, argv):
        code, out, _ = run_cli(capsys, "wavefunction", *argv)
        assert code == 0
        values = [float(row[1]) for row in list(csv.reader(io.StringIO(out)))[1:]]
        assert all(math.isfinite(v) for v in values) and any(values)

    @pytest.mark.parametrize("argv", [
        # t = r^2 leaves the float range, or L does while exp(-t/2) underflows
        ["--system", "sho", "--dim", "3", "--omega", "1", "--n", "3",
         "--min", "0", "--max", "1e300"],
        ["--system", "sho", "--dim", "3", "--omega", "1", "--n", "3",
         "--min", "0", "--max", "1e200", "--samples", "3"],
        ["--system", "coulomb", "--dim", "3", "--z", "-1", "--n", "2",
         "--min", "0", "--max", "1e300", "--samples", "5"],
    ], ids=["sho-r1e300", "sho-r1e200", "coulomb-r1e300"])
    def test_far_tail_underflows_to_zero(self, capsys, argv):
        code, out, _ = run_cli(capsys, "wavefunction", *argv)
        assert code == 0
        assert {float(row[1]) for row in list(csv.reader(io.StringIO(out)))[1:]} == {0.0}

    @pytest.mark.parametrize("system,lo,hi,samples", [
        ("morse", -2.0, 10.0, 2),
        ("morse", -2.0, 10.0, 3),
        ("morse", -2.0, 10.0, 257),
        ("morse", -2.0, 10.0, 100000),
        ("morse", 3.0, 3.0, 5),  # lo == hi
        ("morse", -7.3, -0.2, 257),  # negative range
        ("morse", 10.0, -2.5, 257),  # decreasing, mixed sign
        ("morse", -0.1, 0.7, 3),
        ("sho", 0.0, 1e-300, 257),  # width 1e-300
        ("sho", 0.0, 1e-321, 1000),  # the step underflows to 0
        ("sho", 0.0, 1e308, 257),
    ])
    def test_sample_points_match_numpy_linspace(self, capsys, system, lo, hi, samples):
        flags = {"morse": ["--v1", "-8", "--v2", "8"], "sho": ["--dim", "3", "--omega", "1"]}
        code, out, _ = run_cli(capsys, "wavefunction", "--system", system, *flags[system],
                               f"--min={lo!r}", f"--max={hi!r}", "--samples", str(samples))
        assert code == 0
        xs = [row[0] for row in csv.reader(io.StringIO(out))][1:]
        want = np.linspace(lo, hi, samples)
        assert [float(x).hex() for x in xs] == [float(x).hex() for x in want]


class TestMapCommand:
    def test_oscillator_image(self, capsys):
        code, out, _ = run_cli(capsys, "map", "--system", "sho", "--dim", "3",
                               "--l", "0", "--beta", "0.75", "--omega", "1",
                               "--energy", "1.5")
        assert code == 0
        payload = json.loads(out)
        assert payload["lambda"] == 0.5
        assert payload["v1"] == pytest.approx(-0.375)
        assert payload["v2"] == pytest.approx(0.125)
        assert payload["S"] == pytest.approx(1.0)
        assert payload["origin_exponent"] == pytest.approx(1.5)

    def test_coulomb_image(self, capsys):
        code, out, _ = run_cli(capsys, "map", "--system", "coulomb", "--dim", "3",
                               "--z", "-1", "--energy", "-0.5")
        payload = json.loads(out)
        assert (payload["lambda"], payload["v1"], payload["v2"]) == (1.0, -1.0, 0.5)
        assert payload["has_well"] is True

    def test_morse_not_mappable(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["map", "--system", "morse", "--v1", "-8", "--v2", "8",
                  "--energy", "1.0"])
        assert err.value.code == 2


class TestVerifyCommand:
    def test_morse_both_states_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--system", "morse",
                               "--v1", "-8", "--v2", "8", "--alpha", "1",
                               "--n", "0", "--n", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_pass"] is True
        assert len(payload["checks"]) == 2
        for check in payload["checks"]:
            assert check["relative_deviation"] <= payload["tolerance"]
            assert check["oracle"]["provenance"] == "oracle"

    def test_singular_coulomb_example(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--system", "coulomb",
                               "--dim", "3", "--beta", "0.75", "--z", "-1",
                               "--n", "0", "--l", "0", "--points", "8001")
        assert code == 0
        payload = json.loads(out)
        assert payload["checks"][0]["analytic"]["energy"] == pytest.approx(-2.0 / 9.0)
        assert payload["checks"][0]["relative_deviation"] < 1e-6

    @pytest.mark.parametrize("argv", [
        ["--system", "coulomb", "--z", "-1", "--n", "0", "--n", "1"],
        ["--system", "sho", "--omega", "1", "--n", "1"],
    ], ids=["coulomb", "sho"])
    def test_small_s_states_pass(self, capsys, argv):
        # beta = -0.24 puts S = 0.1, next to the critical coupling -0.25
        code, out, _ = run_cli(capsys, "verify", "--dim", "3", "--beta", "-0.24", "--l", "0",
                               *argv)
        assert code == 0
        assert json.loads(out)["all_pass"] is True

    def test_state_far_from_the_origin(self, capsys):
        # l = 200 is allowed only on r = 37545..43260, and |E| = 1.2e-5.
        code, out, _ = run_cli(capsys, "verify", "--system", "coulomb", "--dim", "3",
                               "--z", "-1", "--l", "200", "--n", "0")
        assert code == 0
        assert json.loads(out)["checks"][0]["node_count"] == 0

    def test_unreachable_tolerance_fails(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--system", "morse",
                               "--v1", "-8", "--v2", "8", "--n", "0",
                               "--tol", "1e-15")
        assert code == 1
        assert json.loads(out)["all_pass"] is False

    # env is {} in every case: no environment variable sets a CLI value.  The
    # column stays so that the case ids keep their argvN-envN form.
    @pytest.mark.parametrize("argv,env", [
        (["verify", "--system", "morse", "--v1", "-8", "--v2", "8", "--alpha", "nan"], {}),
        (["spectrum", "--system", "morse", "--v1=-inf", "--v2", "8"], {}),
        (["spectrum", "--system", "sho", "--dim", "3", "--omega", "nan"], {}),
        (["verify", "--system", "morse", "--v1", "-8", "--v2", "8", "--points", "-1"], {}),
        (["verify", "--system", "morse", "--v1", "-8", "--v2", "8", "--points", "1001"], {}),
        (["verify", "--system", "morse", "--v1", "-8", "--v2", "8", "--tol", "nan"], {}),
        (["verify", "--system", "morse", "--v1", "-8", "--v2", "8", "--tol", "-1"], {}),
        (["verify", "--system", "morse", "--v1", "-8", "--v2", "8", "--tol", "inf"], {}),
        (["spectrum", "--system", "sho", "--dim", "3", "--omega", "1", "--hbar", "nan"], {}),
        (["spectrum", "--system", "coulomb", "--dim", "3", "--z", "-1", "--mass", "inf"], {}),
        (["map", "--system", "sho", "--dim", "3", "--omega", "nan", "--energy", "2"], {}),
        (["map", "--system", "coulomb", "--dim", "3", "--z", "-1", "--energy", "inf"], {}),
        (["wavefunction", "--system", "morse", "--v1", "-8", "--v2", "8", "--n", "-1",
          "--min", "-2", "--max", "10"], {}),
        (["wavefunction", "--system", "coulomb", "--dim", "3", "--z", "-1",
          "--min", "nan", "--max", "3"], {}),
        (["wavefunction", "--system", "coulomb", "--dim", "3", "--z", "-1",
          "--min", "0", "--max", "inf"], {}),
        # one point past the oracle's mesh cap: rejected before the mesh is built
        (["verify", "--system", "morse", "--v1", "-8", "--v2", "8", "--points", "1250003"], {}),
        # zero points is a mesh too small to solve on, not a request for the default one
        (["verify", "--system", "morse", "--v1", "-8", "--v2", "8", "--points", "0"], {}),
        (["verify", "--system", "morse", "--v1", "-8", "--v2", "8", "--tol", "0"], {}),
        # both ends finite, but the width overflows: no NaN sample points
        (["wavefunction", "--system", "morse", "--v1", "-8", "--v2", "8",
          "--min=-1e308", "--max=1e308", "--samples", "3"], {}),
        # a well of 14142 states, past the 10001 rows of the largest --nmax table
        (["spectrum", "--system", "morse", "--v1=-2e4", "--v2", "1"], {}),
        # a well strength past the float range: no count at all
        (["spectrum", "--system", "morse", "--v1=-1e308", "--v2", "1e-300"], {}),
        # counts too large for a float, caught where S is formed
        (["spectrum", "--system", "sho", "--dim", HUGE, "--omega", "1"], {}),
        (["map", "--system", "sho", "--dim", HUGE, "--omega", "1", "--energy", "2"], {}),
        (["spectrum", "--system", "coulomb", "--dim", "3", "--l", HUGE, "--z", "-1"], {}),
        # S^2 is a float, but not the integer (D-2)^2 of the critical-coupling message
        (["spectrum", "--system", "sho", "--dim", "14" + "0" * 153, "--beta=-1e308",
          "--omega", "1"], {}),
        # Coulomb length or Rydberg energy outside the float range, and an
        # oscillator level or coupling that overflows
        (["spectrum", "--system", "coulomb", "--dim", "3", "--z=-1e200", "--mass", "1e200"], {}),
        (["wavefunction", "--system", "coulomb", "--dim", "3", "--z=-1e300", "--n", "0",
          "--min", "0", "--max", "1"], {}),
        (["spectrum", "--system", "coulomb", "--dim", "3", "--z=-1e-200", "--hbar", "1e200"], {}),
        (["spectrum", "--system", "sho", "--dim", "3", "--omega", "1e308"], {}),
        (["map", "--system", "sho", "--dim", "3", "--omega", "1e200", "--energy", "1"], {}),
    ])
    def test_bad_input_is_a_clean_error(self, capsys, argv, env):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert "nan" not in out.lower()
        if argv[-2:] == ["--points", "0"]:
            assert "got 0" in err

    def test_shallow_morse_state(self, capsys):
        # s = 1e-3, E = -5e-7: the tail seed keeps the default mesh at 8001
        # points, and the relative stop width keeps the default tolerance.
        code, out, _ = run_cli(capsys, "verify", "--system", "morse", "--v1", "-6.004",
                               "--v2", "8", "--n", "1")
        assert code == 0
        assert json.loads(out)["checks"][0]["node_count"] == 1

    def test_stale_environment_is_ignored(self, capsys, monkeypatch):
        # The CLI reads no environment variable, so these settings change nothing.
        monkeypatch.setenv("MORSEBOUND_TOL", "nan")
        monkeypatch.setenv("MORSEBOUND_POINTS", "abc")
        code, out, _ = run_cli(capsys, "verify", "--system", "morse",
                               "--v1", "-8", "--v2", "8", "--n", "0")
        assert code == 0
        assert json.loads(out)["tolerance"] == 1e-6


class TestDegeneracyCommand:
    def test_csv_rows(self, capsys):
        code, out, _ = run_cli(capsys, "degeneracy", "--dim", "3", "--lmax", "2",
                               "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows == [["l", "count"], ["0", "1"], ["1", "3"], ["2", "5"]]

    def test_json(self, capsys):
        _, out, _ = run_cli(capsys, "degeneracy", "--dim", "4", "--lmax", "2")
        payload = json.loads(out)
        assert payload["rows"] == [{"l": 0, "count": 1}, {"l": 1, "count": 4},
                                   {"l": 2, "count": 9}]


class TestUsageErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["map", "--system", "coulomb", "--dim", "3", "--z", "-1", "--energy=-1e-3"],
        ["spectrum", "--system", "morse", "--v1=-8e0", "--v2", "8"],
    ])
    def test_negative_exponent_form_with_equals(self, capsys, argv):
        assert run_cli(capsys, *argv)[0] == 0

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as err:
            main(["degeneracy", "--dim", "3", "--frobnicate"])
        assert err.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--system", "sho", "--dim", "3", "--omega", "1", "--nmax", "10001"],
        ["wavefunction", "--system", "coulomb", "--dim", "3", "--z", "-1",
         "--min", "0", "--max", "3", "--samples", "100001"],
        ["degeneracy", "--dim", "3", "--lmax", "1001"],
        ["degeneracy", "--dim", "1001", "--lmax", "2"],
        ["degeneracy", "--dim", "100000", "--lmax", "10000"],  # d_l(D) past 4300 digits
        ["verify", "--system", "sho", "--dim", "3", "--omega", "1", "--n", "10001"],
        ["wavefunction", "--system", "sho", "--dim", "3", "--omega", "1", "--n", "10001",
         "--min", "0", "--max", "3"],
    ])
    def test_count_past_its_cap(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "must be" in capsys.readouterr().err

    def test_largest_degeneracy_table_prints(self, capsys):
        code, out, _ = run_cli(capsys, "degeneracy", "--dim", "1000", "--lmax", "1000")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == 1001
        assert rows[2]["count"] == 1002 * 999 // 2  # d_2(D) = (D+2)(D-1)/2


# Flags of one instance per system, and the same instance built in the library.
SYSTEM_FLAGS = {
    "morse": ["--v1", "-8", "--v2", "8", "--alpha", "0.5"],
    "sho": ["--dim", "3", "--l", "1", "--beta", "0.75", "--omega", "1.2"],
    "coulomb": ["--dim", "4", "--l", "1", "--beta", "0.5", "--z", "-1.5"],
}


def direct(system):
    """(n, S, energy) of the states `spectrum --nmax 2` prints, and u(n, x)."""
    if system == "morse":
        params = MorseParams(v1=-8.0, v2=8.0, alpha=0.5, mass=1.0, hbar=1.0)
        states = morse_spectrum(params)
        return ([(st.n, st.s, st.energy) for st in states],
                lambda n, x: morse_eigenfunction(params, states[n], x))
    if system == "sho":
        states = sho_spectrum(3, 1, 0.75, 1.2, 1.0, 1.0, 2)
        return ([(st.n, st.S, st.energy) for st in states],
                lambda n, r: sho_eigenfunction(states[n], 1.2, 1.0, 1.0, r))
    states = coulomb_spectrum(4, 1, 0.5, -1.5, 1.0, 1.0, 2)
    return ([(st.n, st.S, st.energy) for st in states],
            lambda n, r: coulomb_eigenfunction(states[n], -1.5, 1.0, 1.0, r))


@pytest.mark.parametrize("system", list(SYSTEM_FLAGS))
@pytest.mark.parametrize("command", ["spectrum", "wavefunction", "map", "verify"])
def test_every_command_on_every_system(capsys, command, system):
    states, u = direct(system)
    argv = [command, "--system", system, *SYSTEM_FLAGS[system]]
    if command == "spectrum":
        code, out, _ = run_cli(capsys, *argv, "--nmax", "2")
        assert code == 0
        assert [(st["n"], st["S"], st["energy"]) for st in json.loads(out)["states"]] == states
    elif command == "verify":
        code, out, _ = run_cli(capsys, *argv, "--n", "1", "--n", "0")
        assert code == 0
        for check, (n, s_value, energy) in zip(json.loads(out)["checks"], states[:2], strict=True):
            analytic, oracle = check["analytic"], check["oracle"]
            assert (analytic["n"], analytic["S"], analytic["energy"]) == (n, s_value, energy)
            assert (oracle["n"], oracle["S"], oracle["provenance"]) == (n, s_value, "oracle")
            assert oracle["energy"] == pytest.approx(energy, rel=1e-6)
            assert check["node_count"] == n
    elif command == "wavefunction":
        lo = "-3" if system == "morse" else "0"
        code, out, _ = run_cli(capsys, *argv, "--n", "1", "--min", lo, "--max", "8",
                               "--samples", "9")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert len(rows) == 9
        assert [float(v) for _, v in rows] == [u(1, float(x)) for x, _ in rows]
    elif system == "morse":
        with pytest.raises(SystemExit) as err:
            main([*argv, "--energy", "1"])
        assert err.value.code == 2
    else:
        delta, z, energy = (2, 0.5 * 1.2 ** 2, 2.0) if system == "sho" else (-1, -1.5, -0.3)
        code, out, _ = run_cli(capsys, *argv, "--energy", str(energy))
        assert code == 0
        payload = json.loads(out)
        dim, l, beta = (3, 1, 0.75) if system == "sho" else (4, 1, 0.5)
        image = to_morse(RadialProblem(dim=dim, l=l, beta=beta, delta=delta, z=z,
                                       mass=1.0, hbar=1.0), energy)
        assert (payload["lambda"], payload["v1"], payload["v2"]) == (image.lam, image.v1, image.v2)
        assert payload["S"] == states[0][1]
