"""The analytic path imports neither numpy, the oracle nor dataclasses (with the
inspect it pulls in); the package's lazy attributes still resolve."""

import json
import os
import subprocess
import sys

import pytest

import morsebound

# Run in a fresh interpreter: the test session itself has numpy loaded.
CHILD = """
import contextlib, io, json, sys
import morsebound.cli as cli

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "numpy"
                  or m in ("morsebound.oracle", "dataclasses", "inspect"))

report = {}
for argv in (["spectrum", "--system", "morse", "--v1", "-8", "--v2", "8"],
             ["spectrum", "--system", "sho", "--dim", "3", "--omega", "1", "--format", "csv"],
             ["map", "--system", "coulomb", "--dim", "3", "--z", "-1", "--energy", "-0.5"],
             ["degeneracy", "--dim", "3"],
             ["wavefunction", "--system", "coulomb", "--dim", "3", "--z", "-1",
              "--min", "0", "--max", "5", "--samples", "6"]):
    with contextlib.redirect_stdout(io.StringIO()):
        report[argv[0] + " " + argv[2]] = (cli.main(argv), loaded())
with contextlib.redirect_stdout(io.StringIO()):
    report["verify"] = (cli.main(["verify", "--system", "morse", "--v1", "-8", "--v2", "8"]),
                        loaded())
print(json.dumps(report))
"""


def test_analytic_commands_leave_numpy_and_the_oracle_unloaded():
    src = os.path.dirname(os.path.dirname(morsebound.__file__))
    proc = subprocess.run([sys.executable, "-c", CHILD], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src})
    report = json.loads(proc.stdout)
    verify_code, after_verify = report.pop("verify")
    for command, (code, loaded) in report.items():
        assert (command, code, loaded) == (command, 0, [])
    assert verify_code == 0
    assert "morsebound.oracle" in after_verify and "numpy" in after_verify


def test_lazy_attributes_resolve():
    oracle = morsebound.__getattr__("oracle")
    assert oracle is sys.modules["morsebound.oracle"]
    assert morsebound.__getattr__("cli") is sys.modules["morsebound.cli"]
    assert morsebound.Grid1D is oracle.Grid1D
    assert morsebound.OracleResult is oracle.OracleResult


def test_star_import_serves_every_public_name():
    namespace = {}
    exec("from morsebound import *", namespace)
    assert set(morsebound.__all__) <= namespace.keys()


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        morsebound.no_such_name
