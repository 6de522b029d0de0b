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

from ._record import Record
from .errors import CriticalCouplingError, DomainError, UnsupportedDeltaError
from .morse import MorseParams, well_strength

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


class RadialProblem(Record):
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
        if not 0.0 < self.mass < math.inf:
            raise DomainError(f"mass must be positive and finite, got {self.mass}")
        if not 0.0 < self.hbar < math.inf:
            raise DomainError(f"hbar must be positive and finite, got {self.hbar}")
        if not math.isfinite(self.z):
            raise DomainError(f"coupling z must be finite, got {self.z}")


class AngularFactor(Record):
    """Both admissible L branches and the branch-independent S."""

    L_plus: float
    L_minus: float
    S: float


class MorseImage(Record):
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
    DomainError
        When D or l is too large for (l + (D-2)/2)^2 to be a float.
    """
    if dim < 2:
        raise DomainError(f"dimension must be >= 2, got {dim}")
    if l < 0:
        raise DomainError(f"angular quantum number must be >= 0, got {l}")
    if not math.isfinite(beta):
        raise DomainError(f"beta must be finite, got {beta}")
    try:
        l_plus = l + (dim - 3) / 2.0
        l_minus = -l - (dim - 1) / 2.0
        s_squared = beta + (l_plus + 0.5) ** 2
        if s_squared <= 0.0:
            raise CriticalCouplingError(
                f"coupling beta={beta} is at or below the critical value "
                f"-(D-2)^2/4 = {critical_beta(dim)} for D={dim}, l={l} "
                "(fall to the centre; S^2 must be positive)"
            )
    except OverflowError:
        raise DomainError("dimension and angular quantum number must be small enough "
                          "for (l + (D-2)/2)^2 to be a float") from None
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
    if not math.isfinite(energy):
        raise DomainError(f"trial energy must be finite, got {energy}")
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

    Solves the Morse quantization condition n + s + 1/2 = well_strength(image)
    for the trial energy, with s pinned to Lam*S by the image's fixed Morse
    energy -(hbar*Lam*alpha*S)^2/(2m).  The image is a well on one side of
    zero (E > 0 for the oscillator, E < 0 for Coulomb), and there the strength
    grows with the signed energy, so 64 geometric bisection steps in |E| on
    [e^-708, e^708] pin E to a float's precision, with a :func:`to_morse` call
    at each.  DomainError: no well on either side, or no such E for which the
    strength is a float.
    """
    if n < 0:
        raise DomainError(f"radial quantum number must be >= 0, got {n}")
    s_value = angular_factor(problem.dim, problem.l, problem.beta).S
    for sign in (1.0, -1.0):
        image = to_morse(problem, sign)
        if image.v1 < 0.0 < image.v2:
            target = n + image.lam * s_value + 0.5
            break
    else:
        raise DomainError(f"the Morse image of z={problem.z}, delta={problem.delta} "
                          "has no well at any trial energy")

    lo, hi = math.exp(-708.0), math.exp(708.0)
    for _ in range(64):
        mid = math.sqrt(lo) * math.sqrt(hi)
        image = to_morse(problem, sign * mid)
        strength = well_strength(MorseParams(image.v1, image.v2, image.alpha_eff,
                                             problem.mass, problem.hbar))
        # too weak a well: raise the signed energy
        if (strength < target) == (sign > 0.0):
            lo = mid
        else:
            hi = mid
    # The last probe lies within an ulp or two of the root, unless the root is
    # past a range end (lo or hi never moved) or where m*|v1| or sqrt(2*m*v2)
    # leaves the float range (they closed on that edge).
    if not abs(strength - target) <= 1e-9 * target:
        raise DomainError(f"no |E| in [e^-708, e^708] gives state n={n} in float arithmetic")
    return sign * math.sqrt(lo) * math.sqrt(hi)
