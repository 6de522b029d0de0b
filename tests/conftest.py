"""Shared test oracles: exact-series Laguerre evaluation, the terminating
Kummer series, quantum-number chain enumeration, the factorial degeneracy
formula, sign-change counting, quadrature overlaps and a product-form
Numerov reference."""

import math
from fractions import Fraction

from morsebound.errors import DomainError
from morsebound.morse import eigenfunction as morse_eigenfunction
from morsebound.specfun import integrate_halfline


def laguerre_series(n, alpha, x):
    """Finite-series Laguerre value with exact rational arithmetic.

    sum_k (-1)^k * binom(n + alpha, n - k) * x^k / k!, where the binomial is
    the product form valid for non-integer alpha.  Both alpha and x enter as
    exact binary fractions, so the only float rounding is the final cast.
    """
    a = Fraction(alpha)
    xf = Fraction(x)
    total = Fraction(0)
    for k in range(n + 1):
        binom = Fraction(1)
        for i in range(1, n - k + 1):
            binom *= (a + k + i) / i
        total += (-1) ** k * binom * xf ** k / math.factorial(k)
    return float(total)


def kummer_m_poly(n, b, z):
    """Terminating confluent hypergeometric series M(-n, b, z).

    With a non-positive integer first argument the Kummer series truncates to
    a degree-n polynomial proportional to L_n^(b-1)(z), an independent
    cross-check on ``morsebound.specfun.laguerre``.
    """
    if n < 0:
        raise DomainError(f"series order must be non-negative, got {n}")
    if b <= 0.0 and float(b).is_integer():
        raise DomainError(f"Kummer parameter b must not be a non-positive integer, got {b}")
    total = 1.0
    term = 1.0
    for k in range(n):
        term *= -(n - k) * z / ((b + k) * (k + 1.0))
        total += term
    return total


def chain_count(dim, l):
    """Brute-force count of hyperspherical quantum-number chains for (D, l).

    The labels descend l = l_{D-1} >= l_{D-2} >= ... >= l_2 >= 0 with the
    innermost l_1 ranging over -l_2 .. +l_2.
    """
    if dim == 2:
        return 1 if l == 0 else 2
    if dim == 3:
        return 2 * l + 1
    return sum(chain_count(dim - 1, k) for k in range(l + 1))


def factorial_degeneracy(dim, l):
    """d_l(D) = (D+2l-2)*(D+l-3)! / (l!*(D-2)!), and 1 for D = 2, l = 0 where it degenerates."""
    if dim == 2 and l == 0:
        return 1
    return (dim + 2 * l - 2) * math.factorial(dim + l - 3) // (
        math.factorial(l) * math.factorial(dim - 2))


def count_sign_changes(values):
    nodes = 0
    prev = 0.0
    for v in values:
        if v != 0.0:
            if prev != 0.0 and (v > 0.0) != (prev > 0.0):
                nodes += 1
            prev = v
    return nodes


def morse_overlap(params, state_a, state_b, tol=1e-11):
    """<psi_a | psi_b> over the whole line, split at x = 0 for the quadrature."""
    s_min = min(state_a.s, state_b.s)

    def right(x):
        return morse_eigenfunction(params, state_a, x) * morse_eigenfunction(params, state_b, x)

    def left(x):
        return morse_eigenfunction(params, state_a, -x) * morse_eigenfunction(params, state_b, -x)

    scale_right = 1.0 / (params.alpha * s_min)
    return (integrate_halfline(right, decay_scale=scale_right, tol=tol)
            + integrate_halfline(left, decay_scale=0.5 / params.alpha, tol=tol))


def radial_overlap(u_a, u_b, decay_scale, tol=1e-11):
    return integrate_halfline(lambda r: u_a(r) * u_b(r), decay_scale=decay_scale, tol=tol)


def numerov_product(prob, energy):
    """Plain product-form Numerov reference for a ``morsebound.oracle`` shooting problem.

    Runs c[i+1] y[i+1] = (12 - 10 c[i]) y[i] - c[i-1] y[i-1] on y itself, from
    the problem's own seeds, bounds and matching point, and returns the
    forward node count, the matched node count (left count up to the matching
    point plus right count down to it), the mismatch
    (y[ic+1] - y[ic-1])/y[ic] of the left solution minus that of the right one,
    and how often the live values had to be rescaled to stay finite.
    """
    i0, i1 = prob._bounds(energy)
    ic = prob.match_index(energy, i0, i1)
    c = (prob._base + prob._w * energy).tolist()
    rescales = 0

    def sweep(y0, y1, path):
        nonlocal rescales
        nodes, ym, yp, yc = 0, 0.0, y0, y1
        for back, here, ahead in zip(path, path[1:], path[2:]):
            yn = ((12.0 - 10.0 * c[here]) * yc - c[back] * yp) / c[ahead]
            nodes += yn * yc < 0.0
            ym, yp, yc = yp, yc, yn
            if abs(yc) > 1e250:
                ym, yp, yc = ym * 1e-250, yp * 1e-250, yc * 1e-250
                rescales += 1
        return nodes, ym, yp, yc

    left = (1.0, prob._seed_left(energy, i0))
    tail = prob._seed_right(energy, i1)
    right = (0.0, 1.0) if math.isinf(tail) else (1.0, tail)
    forward = sweep(*left, range(i0, i1 + 1))[0]
    matched = sweep(*left, range(i0, ic + 1))[0] + sweep(*right, range(i1, ic - 1, -1))[0]
    _, lm1, l0, lp1 = sweep(*left, range(i0, ic + 2))
    _, rp1, r0, rm1 = sweep(*right, range(i1, ic - 2, -1))
    return forward, matched, (lp1 - lm1) / l0 - (rp1 - rm1) / r0, rescales
