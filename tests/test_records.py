"""Every record type is a frozen value: its fields are set by position or keyword,
it compares, hashes and pickles field by field, and it refuses assignment."""

import pickle

import pytest

from morsebound import cli
from morsebound.langer import AngularFactor, MorseImage, RadialProblem
from morsebound.morse import MorseParams, MorseState
from morsebound.oracle import Grid1D, OracleResult
from morsebound.potentials import DegeneracyRecord, RadialState

# (record type, its fields in order, one field changed to another valid value)
CASES = [
    (MorseParams, dict(v1=-8.0, v2=8.0, alpha=1.0, mass=1.0, hbar=1.0), ("hbar", 2.0)),
    (MorseState, dict(n=0, s=3.5, energy=-1.125, norm_const=2.0), ("n", 1)),
    (RadialProblem, dict(dim=3, l=0, beta=0.0, delta=-1, z=-1.0, mass=1.0, hbar=1.0),
     ("delta", 2)),
    (AngularFactor, dict(L_plus=0.0, L_minus=-1.0, S=0.5), ("S", 1.5)),
    (MorseImage, dict(lam=2.0, v1=-0.5, v2=0.125, alpha_eff=1.0, r0=1.0), ("r0", 2.0)),
    (RadialState, dict(n=0, l=0, dim=3, S=0.5, energy=-0.5, family="coulomb"),
     ("family", "oscillator")),
    (DegeneracyRecord, dict(l=1, dim=3, count=3), ("dim", 4)),
    (Grid1D, dict(x_min=0.0, x_max=1.0, points=2001), ("points", 2003)),
    (OracleResult, dict(eigenvalue=-0.5, node_count=0, grid=Grid1D(0.0, 1.0, 2001),
                        richardson_error_estimate=1e-12), ("node_count", 1)),
    (cli._System, dict(flags=("dim",), spectrum=len, label=abs, wave=min, solve=max,
                       radial=None), ("radial", sum)),
]


@pytest.mark.parametrize("cls,fields,changed", CASES, ids=[c.__name__ for c, *_ in CASES])
def test_record_is_a_frozen_value(cls, fields, changed):
    record = cls(**fields)
    assert cls(*fields.values()) == record
    assert hash(cls(*fields.values())) == hash(record)
    assert [getattr(record, name) for name in fields] == list(fields.values())
    assert record != cls(**dict(fields, **dict([changed])))
    assert record != tuple(fields.values())
    assert pickle.loads(pickle.dumps(record)) == record
    assert repr(record) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in fields.items())})"
    name, value = changed
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) == fields[name]


@pytest.mark.parametrize("cls,fields", [case[:2] for case in CASES],
                         ids=[c.__name__ for c, *_ in CASES])
def test_record_rejects_a_wrong_field_list(cls, fields):
    values = list(fields.values())
    for args, kwargs in (
        (values + [0], {}),  # one positional too many
        (values, {next(iter(fields)): values[0]}),  # a field given twice
        ((), dict(fields, no_such_field=1)),
    ):
        with pytest.raises(TypeError, match="takes the fields"):
            cls(*args, **kwargs)
    missing = list(fields)[-2]
    with pytest.raises(AttributeError, match=missing):
        cls(*values[:-2])


def test_system_radial_defaults_to_none():
    system = cli._System(flags=(), spectrum=len, label=abs, wave=min, solve=max)
    assert system.radial is None
    assert system == cli._System((), len, abs, min, max, None)


def test_oracle_records_carry_no_dict():
    # A scan, and a caller checking many states, keep every result; slots keep
    # each one at about 200 bytes with its grid, where dicts took about 280.
    grid = Grid1D(0.0, 1.0, 2001)
    assert not hasattr(grid, "__dict__")
    assert not hasattr(OracleResult(-0.5, 0, grid, 1e-12), "__dict__")
