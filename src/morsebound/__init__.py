"""Bound-state engine for the generalized Morse potential and the
D-dimensional singular harmonic oscillator and singular Coulomb potentials.

The closed-form spectra and eigenfunctions live in :mod:`morsebound.morse`
and :mod:`morsebound.potentials`; the Langer map connecting the radial
problems to the Morse well is in :mod:`morsebound.langer`; the independent
Numerov shooting oracle is in :mod:`morsebound.oracle`; special functions and
quadrature in :mod:`morsebound.specfun`; the command line in
:mod:`morsebound.cli`.  ``cli``, ``oracle``, ``Grid1D`` and ``OracleResult``
load on first access, so numpy, which only the oracle uses, loads only then.
"""

import importlib

from . import langer, morse, potentials, specfun
from .errors import (
    BracketError,
    ConvergenceError,
    CriticalCouplingError,
    DomainError,
    FamilyMismatchError,
    MorseBoundError,
    UnsupportedDeltaError,
)
from .langer import AngularFactor, MorseImage, RadialProblem
from .morse import MorseParams, MorseState
from .potentials import DegeneracyRecord, RadialState

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "cli", "langer", "morse", "oracle", "potentials", "specfun",
    "MorseBoundError", "DomainError", "CriticalCouplingError",
    "UnsupportedDeltaError", "FamilyMismatchError", "BracketError",
    "ConvergenceError",
    "MorseParams", "MorseState",
    "RadialProblem", "AngularFactor", "MorseImage",
    "RadialState", "DegeneracyRecord",
    "Grid1D", "OracleResult",
]


def __getattr__(name):
    if name in ("cli", "oracle"):
        return importlib.import_module(f".{name}", __name__)
    if name in ("Grid1D", "OracleResult"):
        return getattr(importlib.import_module(".oracle", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
