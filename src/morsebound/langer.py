"""Radial reduction in D dimensions and the Langer map onto the Morse problem.

A spherically symmetric problem separates into u'' + (2m/hbar^2)[eps - V(r)
- L(L+1) hbar^2/(2 m r^2)] u = 0 with two equivalent angular branches,
L = l + (D-3)/2 or L = -l - (D-1)/2.  For the potential family

    V(r) = z * r^delta + hbar^2 * beta / (2 m r^2),

the substitution u = sqrt(r/r0) * phi, r = r0 * exp(-Lam*alpha*x) turns the
radial equation into a generalized Morse problem whenever (delta, Lam) is
(2, 1/2) or (-1, 1).  The combination S = sqrt(beta + (L + 1/2)^2) controls
the r -> 0 behavior u ~ r^(1/2+S); bound states require S^2 > 0, which for
l = 0 is the critical-coupling condition beta > -(D-2)^2/4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import CriticalCouplingError, DomainError, UnsupportedDeltaError

__all__ = [
    "RadialProblem",
    "AngularFactor",
    "MorseImage",
    "angular_factor",
    "critical_beta",
    "to_morse",
    "origin_exponent",
    "quantized_energy_via_morse",
]

_ALLOWED_DELTAS = (2, -1, 0, -2)


@dataclass(frozen=True)
class RadialProblem:
    """A D-dimensional radial problem of the family z*r^delta + beta/r^2 term.

    ``z`` is the coupling of the power-law part: for the oscillator (delta=2)
    z = m*omega^2/2, for the Coulomb case (delta=-1) z is the charge coupling
    (z < 0 attracts).  ``beta`` is the dimensionless inverse-square strength.
    """

    dim: int
    l: int
    beta: float
    delta: int
    z: float
    mass: float
    hbar: float

    def __post_init__(self):
        if self.dim < 2:
            raise DomainError(f"dimension must be >= 2, got {self.dim}")
        if self.l < 0:
            raise DomainError(f"angular quantum number must be >= 0, got {self.l}")
        if self.delta not in _ALLOWED_DELTAS:
            raise DomainError(f"delta must be one of {_ALLOWED_DELTAS}, got {self.delta}")
        if self.mass <= 0.0:
            raise DomainError(f"mass must be positive, got {self.mass}")
        if self.hbar <= 0.0:
            raise DomainError(f"hbar must be positive, got {self.hbar}")


@dataclass(frozen=True)
class AngularFactor:
    """Both admissible L branches and the branch-independent S."""

    L_plus: float
    L_minus: float
    S: float


@dataclass(frozen=True)
class MorseImage:
    """Morse parameters produced by the Langer map, in the r0 = alpha = 1 gauge."""

    lam: float
    v1: float
    v2: float
    alpha_eff: float
    r0: float


def critical_beta(dim: int) -> float:
    """Critical inverse-square coupling -(D-2)^2/4 for the l = 0 channel."""
    if dim < 2:
        raise DomainError(f"dimension must be >= 2, got {dim}")
    return -((dim - 2) ** 2) / 4.0


def angular_factor(dim: int, l: int, beta: float) -> AngularFactor:
    """Angular branches L and the combination S = sqrt(beta + (L+1/2)^2).

    Raises
    ------
    CriticalCouplingError
        When beta + (L+1/2)^2 <= 0: the particle falls to the centre and no
        bound-state problem of this form exists (strict inequality).
    """
    if dim < 2:
        raise DomainError(f"dimension must be >= 2, got {dim}")
    if l < 0:
        raise DomainError(f"angular quantum number must be >= 0, got {l}")
    if not math.isfinite(beta):
        raise DomainError(f"beta must be finite, got {beta}")
    l_plus = l + (dim - 3) / 2.0
    l_minus = -l - (dim - 1) / 2.0
    s_squared = beta + (l_plus + 0.5) ** 2
    if s_squared <= 0.0:
        raise CriticalCouplingError(
            f"coupling beta={beta} is at or below the critical value "
            f"-(D-2)^2/4 = {critical_beta(dim)} for D={dim}, l={l} "
            "(fall to the centre; S^2 must be positive)"
        )
    return AngularFactor(L_plus=l_plus, L_minus=l_minus, S=math.sqrt(s_squared))


def to_morse(problem: RadialProblem, energy: float) -> MorseImage:
    """Morse parameter image of the radial problem at trial energy ``energy``.

    In the internal gauge r0 = 1, alpha = 1:

    * delta = 2  (oscillator): Lam = 1/2, v1 = -energy/4, v2 = z/4
      (z = m*omega^2/2, so v2 = m*omega^2/8);
    * delta = -1 (Coulomb):    Lam = 1,   v1 = z,         v2 = -energy.

    The image has a Morse well (v1 < 0 < v2) exactly when the physical
    admissibility conditions hold: energy > 0 and z > 0 for the oscillator,
    z < 0 and energy < 0 for the Coulomb case.
    """
    if problem.delta in (0, -2):
        raise UnsupportedDeltaError(
            f"delta={problem.delta} leaves a pure inversely quadratic potential, "
            "which holds no bound states; only delta = 2 or -1 map onto a Morse well"
        )
    if problem.delta == 2:
        return MorseImage(lam=0.5, v1=-energy / 4.0, v2=problem.z / 4.0, alpha_eff=1.0, r0=1.0)
    return MorseImage(lam=1.0, v1=problem.z, v2=-energy, alpha_eff=1.0, r0=1.0)


def origin_exponent(problem: RadialProblem) -> float:
    """Exponent p in u(r) ~ r^p as r -> 0; always 1/2 + S > 1/2, so u(0) = 0."""
    return 0.5 + angular_factor(problem.dim, problem.l, problem.beta).S


def quantized_energy_via_morse(problem: RadialProblem, n: int) -> float:
    """Energy of radial state n obtained through the Morse image.

    Solves the Morse quantization condition n + s + 1/2 = strength(image)
    for the trial energy, with s pinned to Lam*S by the image's fixed Morse
    energy -(hbar*Lam*alpha*S)^2/(2m).  This is the mapping route checked
    against the direct closed forms; it agrees with them to near machine
    precision but exercises :func:`to_morse` at every bisection step.
    """
    if n < 0:
        raise DomainError(f"radial quantum number must be >= 0, got {n}")
    af = angular_factor(problem.dim, problem.l, problem.beta)
    if problem.delta == 2:
        if problem.z <= 0.0:
            raise DomainError("oscillator mapping requires z = m*omega^2/2 > 0")
        lam = 0.5
    elif problem.delta == -1:
        if problem.z >= 0.0:
            raise DomainError("Coulomb mapping requires an attractive coupling z < 0")
        lam = 1.0
    else:
        raise UnsupportedDeltaError(
            f"delta={problem.delta}: a pure inversely quadratic potential holds no bound states"
        )
    target = n + lam * af.S + 0.5

    def excess(energy: float) -> float:
        image = to_morse(problem, energy)
        strength = problem.mass * abs(image.v1) / (
            problem.hbar * image.alpha_eff * math.sqrt(2.0 * problem.mass * image.v2)
        )
        return strength - target

    # ``excess`` is monotonically increasing in the trial energy on the
    # physical domain for both families, so plain bisection is exact.
    if problem.delta == 2:
        scale = problem.hbar * math.sqrt(2.0 * problem.z / problem.mass)  # hbar*omega
        lo, hi = 1e-300, scale
        grow = 0
        while excess(hi) < 0.0:
            hi *= 2.0
            grow += 1
            if grow > 200:
                raise DomainError("quantization condition has no solution at this n")
    else:
        bohr = problem.hbar ** 2 / (problem.mass * abs(problem.z))
        scale = problem.hbar ** 2 / (2.0 * problem.mass * bohr ** 2)
        lo, hi = -scale, -1e-300
        grow = 0
        while excess(lo) > 0.0:
            lo *= 2.0
            grow += 1
            if grow > 200:
                raise DomainError("quantization condition has no solution at this n")
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if excess(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-16 * max(abs(lo), abs(hi)):
            break
    return 0.5 * (lo + hi)
