"""Complete bound-state solutions of the D-dimensional singular harmonic
oscillator and singular Coulomb potentials, plus pure-case (beta = 0)
relabelings and hyperspherical degeneracy counting.

Both towers are infinite, so spectrum generators truncate at a caller-chosen
n_max (the generalized Morse well, by contrast, holds finitely many states).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, FamilyMismatchError
from .langer import angular_factor
from .specfun import laguerre, log_gamma

__all__ = [
    "RadialState",
    "DegeneracyRecord",
    "sho_spectrum",
    "sho_eigenfunction",
    "coulomb_spectrum",
    "coulomb_eigenfunction",
    "pure_sho_levels",
    "pure_coulomb_levels",
    "degeneracy",
]

OSCILLATOR = "oscillator"
COULOMB = "coulomb"


@dataclass(frozen=True)
class RadialState:
    """One radial bound state labeled (n, l) in D dimensions."""

    n: int
    l: int
    dim: int
    S: float
    energy: float
    family: str


@dataclass(frozen=True)
class DegeneracyRecord:
    """Count of hyperspherical harmonics sharing l in D dimensions."""

    l: int
    dim: int
    count: int


def _check_tower(mass: float, hbar: float, n_max: int) -> None:
    if not (0.0 < mass < math.inf and 0.0 < hbar < math.inf):
        raise DomainError(f"mass and hbar must be positive and finite, got {mass}, {hbar}")
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max}")


def sho_spectrum(dim: int, l: int, beta: float, omega: float, mass: float,
                 hbar: float, n_max: int) -> list[RadialState]:
    """Singular harmonic oscillator levels eps_n = hbar*omega*(2n + 1 + S).

    The tower is infinite and strictly increasing; states n = 0..n_max are
    returned.  Requires omega > 0 and an above-critical coupling beta.
    """
    if not 0.0 < omega < math.inf:
        raise DomainError(f"omega must be positive and finite, got {omega}")
    _check_tower(mass, hbar, n_max)
    af = angular_factor(dim, l, beta)
    return [
        RadialState(n=n, l=l, dim=dim, S=af.S,
                    energy=hbar * omega * (2.0 * n + 1.0 + af.S), family=OSCILLATOR)
        for n in range(n_max + 1)
    ]


def coulomb_spectrum(dim: int, l: int, beta: float, z: float, mass: float,
                     hbar: float, n_max: int) -> list[RadialState]:
    """Singular Coulomb levels eps_n = -hbar^2/[2 m a^2 (n + 1/2 + S)^2].

    Here a = hbar^2/(m|z|) and binding requires z < 0; the energies are
    negative and increase strictly toward zero with n.
    """
    if not -math.inf < z < 0.0:
        raise DomainError(f"attractive Coulomb coupling requires finite z < 0, got {z}")
    _check_tower(mass, hbar, n_max)
    af = angular_factor(dim, l, beta)
    a = hbar * hbar / (mass * abs(z))
    rydberg = hbar * hbar / (2.0 * mass * a * a)
    return [
        RadialState(n=n, l=l, dim=dim, S=af.S,
                    energy=-rydberg / (n + 0.5 + af.S) ** 2, family=COULOMB)
        for n in range(n_max + 1)
    ]


def _radial_value(prefactor_log: float, power: float, r: float, half_arg: float,
                  lag: float) -> float:
    # u = exp(prefactor_log) * r**power * exp(-half_arg) * lag, evaluated in
    # log space when the pieces would overflow or underflow individually.
    if half_arg <= 350.0:
        return math.exp(prefactor_log) * r ** power * math.exp(-half_arg) * lag
    if lag == 0.0:
        return 0.0
    exponent = prefactor_log + power * math.log(r) - half_arg + math.log(abs(lag))
    if exponent < -745.0:
        return 0.0
    return math.copysign(math.exp(exponent), lag)


def sho_eigenfunction(state: RadialState, omega: float, mass: float, hbar: float,
                      r: float) -> float:
    """Normalized oscillator radial function u_n(r).

    u = A * r^(1/2+S) * exp(-m*omega*r^2/(2*hbar)) * L_n^(S)(m*omega*r^2/hbar),
    with A fixed so the half-line norm of u is one.  u(0) = 0.
    """
    if state.family != OSCILLATOR:
        raise FamilyMismatchError(f"expected an oscillator state, got family={state.family!r}")
    if omega <= 0.0:
        raise DomainError(f"omega must be positive, got {omega}")
    if r < 0.0:
        raise DomainError(f"radius must be non-negative, got {r}")
    if r == 0.0:
        return 0.0
    gam = mass * omega / hbar
    t = gam * r * r
    # A = sqrt(2 * n! * gam^(S+1) / Gamma(n + S + 1))
    log_a = 0.5 * (
        math.log(2.0) + log_gamma(state.n + 1.0) + (state.S + 1.0) * math.log(gam)
        - log_gamma(state.n + state.S + 1.0)
    )
    lag = laguerre(state.n, state.S, t)
    return _radial_value(log_a, 0.5 + state.S, r, 0.5 * t, lag)


def coulomb_eigenfunction(state: RadialState, z: float, mass: float, hbar: float,
                          r: float) -> float:
    """Normalized Coulomb radial function u_n(r).

    With nu = n + 1/2 + S and a = hbar^2/(m|z|):
    u = B * r^(1/2+S) * exp(-r/(a*nu)) * L_n^(2S)(2r/(a*nu)), unit half-line
    norm, u(0) = 0.  For D=3, beta=0, n=l=0 this is the hydrogen 1s form
    proportional to r*exp(-r/a).
    """
    if state.family != COULOMB:
        raise FamilyMismatchError(f"expected a coulomb state, got family={state.family!r}")
    if z >= 0.0:
        raise DomainError(f"attractive Coulomb coupling requires z < 0, got {z}")
    if r < 0.0:
        raise DomainError(f"radius must be non-negative, got {r}")
    if r == 0.0:
        return 0.0
    a = hbar * hbar / (mass * abs(z))
    nu = state.n + 0.5 + state.S
    length = a * nu
    t = 2.0 * r / length
    # B = sqrt(n! / ((length/2)^(2S+2) * 2*nu * Gamma(n + 2S + 1)))
    log_b = 0.5 * (
        log_gamma(state.n + 1.0)
        - (2.0 * state.S + 2.0) * math.log(0.5 * length)
        - math.log(2.0 * nu)
        - log_gamma(state.n + 2.0 * state.S + 1.0)
    )
    lag = laguerre(state.n, 2.0 * state.S, t)
    return _radial_value(log_b, 0.5 + state.S, r, 0.5 * t, lag)


def degeneracy(dim: int, l: int) -> DegeneracyRecord:
    """Essential degeneracy d_l(D) = C(D+l-1, l) - C(D+l-3, l-2).

    These are the homogeneous polynomials of degree l in D variables less
    those of the form r^2 times degree l-2 (none for l < 2).  It equals
    (D+2l-2)*(D+l-3)! / (l!*(D-2)!) wherever that is defined, and gives 1
    for D = 2, l = 0 (the constant harmonic on the circle).
    """
    if dim < 2:
        raise DomainError(f"dimension must be >= 2, got {dim}")
    if l < 0:
        raise DomainError(f"angular quantum number must be >= 0, got {l}")
    count = math.comb(dim + l - 1, l) - (math.comb(dim + l - 3, l - 2) if l >= 2 else 0)
    return DegeneracyRecord(l=l, dim=dim, count=count)


def pure_sho_levels(dim: int, omega: float, mass: float, hbar: float,
                    n_max: int) -> list[tuple[int, float, int]]:
    """Pure (beta = 0) oscillator ladder: (N, hbar*omega*(N + D/2), degeneracy).

    The principal label N = 2n + l collects all (n, l) with l <= N and l of
    the same parity as N; the total degeneracy at N sums d_l(D) over those l.
    """
    if omega <= 0.0:
        raise DomainError(f"omega must be positive, got {omega}")
    _check_tower(mass, hbar, n_max)
    levels = []
    for big_n in range(n_max + 1):
        total = sum(degeneracy(dim, l).count for l in range(big_n % 2, big_n + 1, 2))
        levels.append((big_n, hbar * omega * (big_n + dim / 2.0), total))
    return levels


def pure_coulomb_levels(dim: int, z: float, mass: float, hbar: float,
                        n_max: int) -> list[tuple[int, float, int]]:
    """Pure (beta = 0) Coulomb ladder for N = 1..n_max.

    Energy -hbar^2 / {2 m a^2 [N + (D-3)/2]^2} with N = n + l + 1 collecting
    l = 0..N-1.  The standard labeling assumes D >= 3; for D = 2 the same
    formula is exposed as written (N - 1/2 in the denominator label), an
    extrapolation not singled out by the relabeling argument.
    """
    if z >= 0.0:
        raise DomainError(f"attractive Coulomb coupling requires z < 0, got {z}")
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    a = hbar * hbar / (mass * abs(z))
    rydberg = hbar * hbar / (2.0 * mass * a * a)
    levels = []
    for big_n in range(1, n_max + 1):
        energy = -rydberg / (big_n + (dim - 3) / 2.0) ** 2
        total = sum(degeneracy(dim, l).count for l in range(big_n))
        levels.append((big_n, energy, total))
    return levels
