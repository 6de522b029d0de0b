"""Special functions and half-line quadrature behind the closed-form spectra.

Everything here is scalar arithmetic with no dependencies beyond the standard
library.  The Laguerre recurrence and ``_log_space_product`` build every
bound-state eigenfunction in the package; ``log_gamma`` is ``math.lgamma``; the
double-exponential quadrature supplies the numerical side of every
normalization and orthogonality test.

The recurrence reads its constants from one step table per (n, alpha), and only
the last table is kept (O(n) memory, about 150 bytes per degree); its results are
bit-identical to forming each constant inside the loop.
"""

from __future__ import annotations

import math

from .errors import ConvergenceError, DomainError

__all__ = ["laguerre", "log_gamma", "integrate_halfline"]

# (state, parameters, (ln N, scale)) of the last eigenfunction call that passed validation, so
# the next call for that state object repeats no per-state work.  Rebound as one whole tuple.
_last_state: list[tuple] = [(None, None, None)]

# (n, alpha, steps) of the last Laguerre recurrence, where steps holds the triples
# (2k + 1 + alpha, k + alpha, k + 1) for k = 1..n-1.  Rebound as one whole tuple.
_last_steps: list[tuple] = [(None, None, ())]


def _steps(n: int, alpha: float) -> tuple:
    """The recurrence's step triples for degree n and parameter alpha, formed once per (n, alpha)."""
    memo = _last_steps[0]
    if memo[0] != n or memo[1] != alpha:
        memo = (n, alpha, tuple([(2.0 * k + 1.0 + alpha, k + alpha, k + 1.0) for k in range(1, n)]))
        _last_steps[0] = memo
    return memo[2]


def laguerre(n: int, alpha: float, x: float) -> float:
    """Generalized Laguerre polynomial L_n^(alpha)(x) by upward recurrence.

    Parameters
    ----------
    n : int
        Polynomial degree, n >= 0.
    alpha : float
        Superscript parameter, alpha > -1.
    x : float
        Argument, x >= 0 (the orthogonality half-line).

    Returns
    -------
    float
        L_n^(alpha)(x).

    Notes
    -----
    The three-term recurrence in the degree,

        (k+1) L_{k+1} = (2k + 1 + alpha - x) L_k - (k + alpha) L_{k-1},

    is stable for x >= 0 and alpha > -1 and costs one step per degree.  The
    step constants 2k + 1 + alpha, k + alpha and k + 1 depend only on (n, alpha),
    so they come from a table formed once for the last (n, alpha) and kept
    (O(n) memory, about 150 bytes per degree, less than the n-state spectrum
    an eigenfunction caller already holds).  Each step keeps its order of
    operations and its division, so the result is bit-identical to forming the
    constants in the loop.  x = +inf is accepted: the far-tail callers discard
    its value.  The explicit finite series suffers catastrophic cancellation of
    binomial terms for moderate x and lives only in the test suite as an oracle.
    """
    if not isinstance(n, int) or n < 0:
        raise DomainError(f"Laguerre degree must be a non-negative int, got {n!r}")
    if not alpha > -1.0:
        raise DomainError(f"Laguerre parameter must exceed -1, got {alpha}")
    if not x >= 0.0:
        raise DomainError(f"Laguerre argument must be non-negative, got {x}")
    if n == 0:
        return 1.0
    prev, cur = 1.0, 1.0 + alpha - x
    for a, b, c in _steps(n, alpha):
        prev, cur = cur, ((a - x) * cur - b * prev) / c
    return cur


def log_gamma(x: float) -> float:
    """Natural log of the Gamma function for x > 0 (``math.lgamma``)."""
    if x <= 0.0:
        raise DomainError(f"log_gamma requires a positive argument, got {x}")
    return math.lgamma(x)


def _scaled_laguerre(n: int, alpha: float, x: float):
    """(m, s) with L_n^(alpha)(x) = m e^s for n >= 1: ``laguerre``'s recurrence with
    (prev, cur) divided by |cur| > 1 and ln|cur| added to s, so no term overflows."""
    prev, cur, scale = 1.0, 1.0 + alpha - x, 0.0
    for a, b, c in _steps(n, alpha):
        if abs(cur) > 1.0:
            scale += math.log(abs(cur))
            prev, cur = prev / abs(cur), math.copysign(1.0, cur)
        prev, cur = cur, ((a - x) * cur - b * prev) / c
    return cur, scale


def _log_space_product(log_norm: float, power: float, x: float, t: float, n: int,
                       alpha: float, lag: float) -> float:
    """exp(log_norm) * x**power * exp(-t/2) * lag with lag = L_n^(alpha)(t), the
    shape of every eigenfunction.

    The factors may leave the float range on their own (a deep Morse well, a
    high l, a far tail) while the product does not, so their logarithms are
    summed, with ln|L| from ``_scaled_laguerre`` where ``lag`` is not finite.
    """
    half = 0.5 * t
    if half == math.inf or lag == 0.0:  # exp(-t/2) = 0 outweighs any power of t in L
        return 0.0
    lag, scale = (lag, 0.0) if math.isfinite(lag) else _scaled_laguerre(n, alpha, t)
    return math.copysign(
        math.exp(log_norm + power * math.log(x) - half + scale + math.log(abs(lag))), lag)


def integrate_halfline(f, decay_scale: float = 1.0, tol: float = 1e-10,
                       max_levels: int = 12) -> float:
    """Integrate f over (0, inf) for integrands with exponential-type decay.

    Parameters
    ----------
    f : callable
        Integrand; may carry an integrable power singularity at 0 and must
        decay at least exponentially at infinity.
    decay_scale : float
        Rough decay length of f; sets the substitution scale so the quadrature
        nodes cover the support of integrands like x**p * exp(-x/decay_scale).
    tol : float
        Absolute error target; the estimate between successive refinement
        levels must fall below it.
    max_levels : int
        Halving budget before giving up.

    Notes
    -----
    Uses the exp-sinh double-exponential substitution x = scale*exp(sinh t)
    with the trapezoidal rule in t, halving the step until two consecutive
    levels agree to within ``tol``.  Convergence is double-exponential in the
    node count, so the inter-level difference is a safe error estimate.
    """
    if decay_scale <= 0.0:
        raise DomainError(f"decay_scale must be positive, got {decay_scale}")
    if tol <= 0.0:
        raise DomainError(f"tol must be positive, got {tol}")

    t_cap = 6.9  # exp(sinh t) stays finite in double precision below this

    def term_at(t: float):
        x = decay_scale * math.exp(math.sinh(t))
        val = f(x) * x * math.cosh(t)
        if not math.isfinite(val):
            return None  # overflow in the far tail; the true term is negligible
        return val

    previous = None
    for level in range(max_levels + 1):
        h = 1.0 / (1 << level)
        total = term_at(0.0) or 0.0
        peak = abs(total)
        for sign in (1.0, -1.0):
            quiet = 0
            j = 1
            while j * h <= t_cap:
                term = term_at(sign * j * h)
                j += 1
                if term is None:
                    break
                total += term
                mag = abs(term)
                if mag > peak:
                    peak = mag
                if mag <= 1e-18 * peak + 1e-305:
                    quiet += 1
                    if quiet >= 3:
                        break
                else:
                    quiet = 0
        estimate = h * total
        # The inter-level difference cannot drop below the roundoff of the
        # trapezoid sum itself, so large-magnitude integrals get a scaled floor.
        if previous is not None and abs(estimate - previous) <= tol + 16.0 * 2.2e-16 * abs(estimate):
            return estimate
        previous = estimate
    raise ConvergenceError(
        f"half-line quadrature did not reach tol={tol} within {max_levels} refinement levels"
    )
