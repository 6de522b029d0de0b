"""Special functions and half-line quadrature behind the closed-form spectra.

Everything here is scalar arithmetic with no dependencies beyond the standard
library.  The generalized Laguerre recurrence is the building block of every
bound-state eigenfunction in the package; the double-exponential quadrature
supplies the numerical side of every normalization and orthogonality test.
"""

from __future__ import annotations

import math

from .errors import ConvergenceError, DomainError

__all__ = ["laguerre", "log_gamma", "integrate_halfline"]


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
    explicit finite series suffers catastrophic cancellation of binomial
    terms for moderate x and lives only in the test suite as an oracle.
    """
    if n < 0:
        raise DomainError(f"Laguerre degree must be non-negative, got {n}")
    if alpha <= -1.0:
        raise DomainError(f"Laguerre parameter must exceed -1, got {alpha}")
    if x < 0.0:
        raise DomainError(f"Laguerre argument must be non-negative, got {x}")
    if n == 0:
        return 1.0
    prev = 1.0
    cur = 1.0 + alpha - x
    for k in range(1, n):
        prev, cur = cur, ((2.0 * k + 1.0 + alpha - x) * cur - (k + alpha) * prev) / (k + 1.0)
    return cur


# Lanczos rational approximation, g = 7, nine terms.  Relative accuracy of
# log_gamma is a few 1e-15 across the positive axis, comfortably inside the
# 1e-13 contract on [0.5, 200].
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)


def log_gamma(x: float) -> float:
    """Natural log of the Gamma function for x > 0."""
    if x <= 0.0:
        raise DomainError(f"log_gamma requires a positive argument, got {x}")
    if x < 0.5:
        # Recurrence Gamma(x) = Gamma(x+1)/x keeps the Lanczos sum in its
        # accurate band.
        return log_gamma(x + 1.0) - math.log(x)
    xm1 = x - 1.0
    acc = _LANCZOS_COEFFS[0]
    for k, coeff in enumerate(_LANCZOS_COEFFS[1:], start=1):
        acc += coeff / (xm1 + k)
    t = xm1 + _LANCZOS_G + 0.5
    return _HALF_LOG_TWO_PI + (xm1 + 0.5) * math.log(t) - t + math.log(acc)


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
