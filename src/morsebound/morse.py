"""Bound states of the one-dimensional generalized Morse potential.

The potential is V(x) = v1*exp(-alpha*x) + v2*exp(-2*alpha*x).  A well able
to bind requires v1 < 0 and v2 > 0, and then the spectrum is *finite*: the
allowed indices satisfy n < strength - 1/2 with the dimensionless well
strength m|v1| / (hbar*alpha*sqrt(2*m*v2)).
"""

from __future__ import annotations

import math

from ._record import Record
from .errors import DomainError
from .specfun import _last_state, _log_space_product, laguerre, log_gamma

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

class MorseParams(Record):
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


class MorseState(Record):
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
    if bound == math.inf:
        raise DomainError("the well strength overflows a float")
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
        states.append(MorseState(n=n, s=s, energy=energy,
                                 norm_const=math.exp(_log_norm(params.alpha, n, s))))
    return states


def _log_norm(alpha: float, n: int, s: float) -> float:
    """ln N_n = (ln alpha + ln n! + ln 2s - ln Gamma(n + 2s + 1)) / 2."""
    return 0.5 * (math.log(alpha) + log_gamma(n + 1.0) + math.log(2.0 * s)
                  - log_gamma(n + 2.0 * s + 1.0))


def xi_of_x(params: MorseParams, x: float) -> float:
    """Morse variable xi = 2*sqrt(2*m*v2)*exp(-alpha*x)/(hbar*alpha)."""
    if params.v2 <= 0.0:
        raise DomainError("xi is defined only for v2 > 0")
    ln_xi = _ln_xi0(params) - params.alpha * x
    if ln_xi > 709.0:
        return math.inf
    return math.exp(ln_xi)


def _ln_xi0(params: MorseParams) -> float:  # ln xi(0), for v2 > 0
    return math.log(2.0 * math.sqrt(2.0 * params.mass * params.v2) / (params.hbar * params.alpha))


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
    vanishes like xi^s as x -> +inf and like exp(-xi/2) as x -> -inf.  The
    product is formed from its logarithms, with ln N_n computed once per state
    rather than from ``state.norm_const``, which underflows to 0 in deep wells.
    """
    if x != x:
        raise DomainError(f"position must be a number, got {x}")
    memo = _last_state[0]
    if memo[0] is not state or memo[1] is not params:
        _require_member(params, state)
        values = _ln_xi0(params), _log_norm(params.alpha, state.n, state.s)
        _last_state[0] = memo = (state, params, values)
    ln_xi0, log_norm = memo[2]
    ln_xi = ln_xi0 - params.alpha * x
    xi = 0.0 if ln_xi > 709.0 else math.exp(ln_xi)  # psi = 0 where xi leaves the float range
    if xi == 0.0:
        return 0.0
    return _log_space_product(log_norm, state.s, xi, xi, state.n, 2.0 * state.s,
                              laguerre(state.n, 2.0 * state.s, xi))
