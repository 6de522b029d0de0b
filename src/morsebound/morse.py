"""Bound states of the one-dimensional generalized Morse potential.

The potential is V(x) = v1*exp(-alpha*x) + v2*exp(-2*alpha*x).  A well able
to bind requires v1 < 0 and v2 > 0, and then the spectrum is *finite*: the
allowed indices satisfy n < strength - 1/2 with the dimensionless well
strength m|v1| / (hbar*alpha*sqrt(2*m*v2)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .specfun import laguerre, log_gamma

__all__ = [
    "MorseParams",
    "MorseState",
    "well_strength",
    "state_count",
    "spectrum",
    "eigenfunction",
    "potential",
    "xi_of_x",
]

# Above this value of xi the prefactor xi**s * exp(-xi/2) is evaluated in log
# space to dodge intermediate overflow (xi grows like exp(-alpha*x)).
_XI_DIRECT_MAX = 700.0


@dataclass(frozen=True)
class MorseParams:
    """Potential couplings and particle constants of the 1-D problem.

    Parameters without a well (v1 >= 0 or v2 <= 0) are representable; they
    simply carry no bound states.
    """

    v1: float
    v2: float
    alpha: float
    mass: float
    hbar: float

    def __post_init__(self):
        for name in ("v1", "v2", "alpha", "mass", "hbar"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)}")
        if self.alpha <= 0.0:
            raise DomainError(f"alpha must be positive, got {self.alpha}")
        if self.mass <= 0.0:
            raise DomainError(f"mass must be positive, got {self.mass}")
        if self.hbar <= 0.0:
            raise DomainError(f"hbar must be positive, got {self.hbar}")

    @property
    def has_well(self) -> bool:
        return self.v1 < 0.0 and self.v2 > 0.0


@dataclass(frozen=True)
class MorseState:
    """One bound state: index, decay exponent s > 0, energy < 0, norm."""

    n: int
    s: float
    energy: float
    norm_const: float


def potential(params: MorseParams, x: float) -> float:
    """V(x) = v1*exp(-alpha*x) + v2*exp(-2*alpha*x)."""
    t = math.exp(-params.alpha * x)
    return params.v1 * t + params.v2 * t * t


def well_strength(params: MorseParams) -> float:
    """Dimensionless well strength m|v1|/(hbar*alpha*sqrt(2*m*v2)).

    The quantization condition reads n + s + 1/2 = strength, so the number of
    bound states is the number of integers n >= 0 below strength - 1/2.
    """
    if params.v2 <= 0.0:
        raise DomainError("well strength is defined only for v2 > 0")
    return params.mass * abs(params.v1) / (
        params.hbar * params.alpha * math.sqrt(2.0 * params.mass * params.v2)
    )


def state_count(params: MorseParams) -> int:
    """Number of bound states held by the well (0 when there is no well)."""
    if not params.has_well:
        return 0
    bound = well_strength(params) - 0.5
    if bound <= 0.0:
        return 0
    return math.ceil(bound)


def spectrum(params: MorseParams) -> list[MorseState]:
    """All bound states, ordered by n with strictly increasing energies.

    Energies follow the closed form

        E_n = -v1^2/(4*v2) * (1 - (n + 1/2)/strength)^2,

    identical to -(hbar*alpha*s_n)^2/(2m) with s_n = strength - n - 1/2.
    The normalization constant sqrt(alpha * n! * 2s / Gamma(n + 2s + 1))
    makes the position-space norm of :func:`eigenfunction` equal one; it is
    validated against quadrature in the test suite.
    """
    count = state_count(params)
    if count == 0:
        return []
    strength = well_strength(params)
    depth_scale = params.v1 * params.v1 / (4.0 * params.v2)
    states = []
    for n in range(count):
        s = strength - n - 0.5
        energy = -depth_scale * (1.0 - (n + 0.5) / strength) ** 2
        log_norm = 0.5 * (
            math.log(params.alpha)
            + log_gamma(n + 1.0)
            + math.log(2.0 * s)
            - log_gamma(n + 2.0 * s + 1.0)
        )
        states.append(MorseState(n=n, s=s, energy=energy, norm_const=math.exp(log_norm)))
    return states


def xi_of_x(params: MorseParams, x: float) -> float:
    """Morse variable xi = 2*sqrt(2*m*v2)*exp(-alpha*x)/(hbar*alpha)."""
    if params.v2 <= 0.0:
        raise DomainError("xi is defined only for v2 > 0")
    ln_xi = (
        math.log(2.0 * math.sqrt(2.0 * params.mass * params.v2) / (params.hbar * params.alpha))
        - params.alpha * x
    )
    if ln_xi > 709.0:
        return math.inf
    return math.exp(ln_xi)


def _require_member(params: MorseParams, state: MorseState) -> None:
    count = state_count(params)
    if not (0 <= state.n < count):
        raise DomainError(f"state index {state.n} outside the {count}-state spectrum")
    s_expect = well_strength(params) - state.n - 0.5
    if abs(state.s - s_expect) > 1e-12 * abs(s_expect):
        raise DomainError(
            f"state exponent s={state.s} inconsistent with these parameters (expected {s_expect})"
        )


def eigenfunction(params: MorseParams, state: MorseState, x: float) -> float:
    """Normalized bound-state wavefunction psi_n(x).

    psi_n = N_n * xi^s * exp(-xi/2) * L_n^(2s)(xi) with xi = xi_of_x(x); it
    vanishes like xi^s as x -> +inf and like exp(-xi/2) as x -> -inf.
    """
    _require_member(params, state)
    xi = xi_of_x(params, x)
    if xi == 0.0 or math.isinf(xi):
        return 0.0
    if xi <= _XI_DIRECT_MAX:
        return (
            state.norm_const
            * xi ** state.s
            * math.exp(-0.5 * xi)
            * laguerre(state.n, 2.0 * state.s, xi)
        )
    lag = laguerre(state.n, 2.0 * state.s, xi)
    if lag == 0.0:
        return 0.0
    exponent = (
        math.log(state.norm_const) + state.s * math.log(xi) - 0.5 * xi + math.log(abs(lag))
    )
    if exponent < -745.0:
        return 0.0
    return math.copysign(math.exp(exponent), lag)
