"""Independent Numerov shooting eigensolver.

This module is the numerical check on every closed-form eigenvalue in the
package.  It integrates y'' = f y with f = f0 - w E using the
three-point Numerov scheme (fourth order in the spacing) in Johnson's
renormalized form: one kernel carries the ratio R[i] = F[i+1]/F[i] of
F = (1 - h^2 f/12) y through R[i] = U[i] - 1/R[i-1], so nothing overflows and
a node is a negative ratio.  Each refinement step is one probe: a left sweep
up to the last classical turning point on the mesh and a right sweep down to it
give the log-derivative mismatch there and the matched node count S(E), the sum
of the two one-sided counts; on a 1-D mesh, the caller's box, both start at WKB
decay 20 from the outermost allowed points, where the other branch is e^-40.
S changes only at the mismatch's poles, so {E : S(E) = n} is the pole-free
window holding the n-th eigenvalue and one zero of the mismatch.  The refinement
probes its guess and pads past it, doubling until one lands past the eigenvalue,
bisects until both ends lie in that window, which certifies them, then takes
Anderson-Bjorck false-position steps until the bracket is narrower than tol_rel
times its larger end.  Forward node counts at the ends, on the requested mesh,
check a scan's window, an unguessed bracket and a guessed one whose ends were
not certified.

On a 1-D mesh y is the wavefunction, f0 = k V and w = k, k = 2m/hbar^2.
Radial and Morse problems are one equation, y'' = sum_p (a_p - b_p E) rho^p y,
on a mesh uniform in the paper's Langer variable ln rho: rho = r with
u = sqrt(r) y on [1e-7 r_max, r_max] and the table {p: (a_p, b_p)} =
{0: (S^2, 0), 2: (0, k)} plus k z on a_(2+delta), or rho = t = e^(-alpha x)
(the x mesh swept from the tail) and {0: (0, k/alpha^2), 1: (k v1/alpha^2, 0),
2: (k v2/alpha^2, 0)}.  rho = 0 is a regular singular point: the Frobenius
series rho^s (1 + a1 rho + ...), s = sqrt(a_0 - b_0 E), seeds the first two values.

The solve_* wrappers guess the closed form, and a solve is refined again from its
result, uncounted, on a mesh with doubled spacing.  A scan guesses state n from the
Langer phase integral h sum sqrt(max(w E - f0, 0)) = (n + 1/2) pi on that mesh, which
holds exactly for all three families in the continuum (Langer, Phys. Rev. 51, 669,
1937), refines it there first and then on the requested mesh from there.  Both
report E* = E_h + (E_h - E_2h)/15 and R = |E_h - E_2h|/15.  A default mesh starts
at 2001 points and doubles, up to 8001, while some R > 1e-8 |E*|; a finer level
starts from E* and reuses the last one as its doubled-spacing mesh.
"""

from __future__ import annotations

import functools
import math
import operator
import warnings

import numpy as np

from ._record import Record
from .errors import BracketError, ConvergenceError, CriticalCouplingError, DomainError
from .langer import RadialProblem, angular_factor
from .morse import MorseParams, spectrum as morse_spectrum
from .potentials import coulomb_spectrum, sho_spectrum

__all__ = [
    "Grid1D",
    "OracleResult",
    "solve_1d",
    "solve_radial",
    "scan_spectrum",
    "solve_morse",
    "solve_sho",
    "solve_coulomb",
]

_DEFAULT_TOL_REL = 1e-10
# Largest mesh any solve accepts; a probe keeps about six mesh-sized arrays alive.
_MAX_POINTS = 1_250_001
_MAX_ITER = 200
# Integration starts where h^2*f/12 stays below this cap: past it the Numerov
# factor 1 - h^2*f/12 turns negative and the recurrence alternates signs,
# minting spurious nodes.  The regular solution is ~0 that deep in a barrier,
# so skipping the over-stiff points loses nothing.
_BARRIER_CAP = 0.8
_DECAY = 20.0  # WKB decay where a line-mesh sweep starts: the other branch is e^-40 < 2^-53
_R_MIN = 1e-7  # inner end of a radial log mesh, relative to r_max
_DEFAULT_POINTS, _FINEST_DEFAULT = 2001, 8001  # first and last level of every default mesh
_DOUBLING_REL = 1e-8  # a default mesh doubles while some state has R > this * |E*|
_MAX_SCAN_REACH = 25_000.0  # no default scan box past this r: one box serves the whole window


class Grid1D(Record):
    """Mesh of at least 1000 points, uniform in x on [x_min, x_max]; a radial
    solve reads Grid1D(0, r_max, N) as N points uniform in ln r on [1e-7 r_max, r_max]."""

    x_min: float
    x_max: float
    points: int
    __slots__ = tuple(__annotations__)

    def __post_init__(self):
        _whole(self.points, "grid points", 1000)
        if not -math.inf < self.x_min < self.x_max < math.inf:
            raise DomainError(f"grid needs finite x_min < x_max, got [{self.x_min}, {self.x_max}]")

    @property
    def spacing(self) -> float:
        return (self.x_max - self.x_min) / (self.points - 1)

    def positions(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.points)

    def halved(self) -> "Grid1D":
        """Mesh with doubled spacing (exact when points is odd)."""
        return Grid1D(self.x_min, self.x_max, (self.points - 1) // 2 + 1)


class OracleResult(Record):
    """A numerically determined eigenvalue with its mesh and error estimate."""

    eigenvalue: float
    node_count: int
    grid: Grid1D
    richardson_error_estimate: float
    __slots__ = tuple(__annotations__)  # no dict per result: callers keep many of them


class _Shooting:
    """Discretized shooting problem y'' = (f0 - w E) y on a mesh of spacing h."""

    def __init__(self, h: float, f0: np.ndarray, w, series=None):
        self.h = h
        self.f0 = f0
        self.w = np.broadcast_to(w, f0.shape)  # energy weight per point
        self._gw = (h * h / 12.0) * w  # g(E) = h^2 f/12 = g0 - gw*E
        self._g0 = (h * h / 12.0) * f0
        # Every probe refills these in place, so a solve allocates no
        # mesh-sized arrays after construction.
        self._g = np.empty_like(self._g0)
        self._u = np.empty_like(self._g0)
        self._mask = np.empty(f0.shape, dtype=bool)
        # series = (rho, terms) switches the left seed from the generic
        # barrier form to the Frobenius series at rho = 0; terms is the
        # {p: (a_p, b_p)} table of f = sum_p (a_p - b_p E) rho^p.
        self.series = series

    def _bounds(self, energy: float):
        """First and last mesh index the recurrence may visit at this energy.

        Fills the buffers with g = h^2 f/12 and, between those indices,
        U = 12/c - 10 with c = 1 - g, formed as 2 + 12 g/c to keep g's precision.
        Assumes a single-well potential, so {i : g_i <= cap} is one block.  On a
        line mesh both then move in to decay _DECAY from the outermost allowed
        points (g <= 0); a Langer box already ends at decay 30 or the series' reach.
        """
        g = np.multiply(self._gw, -energy, out=self._g)
        g += self._g0
        inside = np.less_equal(g, _BARRIER_CAP, out=self._mask)
        if np.count_nonzero(inside) < 8:
            raise BracketError(
                "the mesh cannot represent this energy: the barrier is too stiff "
                "almost everywhere (reduce the spacing or the box)"
            )
        i0, i1 = int(inside.argmax()), _last_true(inside)
        if self.series is None and (allowed := np.less_equal(g, 0.0, out=self._mask)).any():
            a, b = int(allowed.argmax()), _last_true(allowed)
            i0 = max(i0, a - 1 - _decay_reach(g[i0:a][::-1], self._u[i0:a][::-1]))
            i1 = min(i1, b + 1 + _decay_reach(g[b + 1:i1 + 1], self._u[b + 1:i1 + 1]))
        g, u = g[i0:i1 + 1], self._u[i0:i1 + 1]
        np.subtract(1.0, g, out=u)
        np.divide(g, u, out=u)
        u *= 12.0
        u += 2.0
        return i0, i1

    def _growth(self, energy: float, i: int):
        """f = y''/y at mesh point i and exp(h*sqrt(f)) capped at e^30: the step
        ratio, toward the well, of the solution that decays into a barrier there."""
        f = float(self.f0[i]) - float(self.w[i]) * energy
        return f, math.exp(min(math.sqrt(max(f, 0.0)) * self.h, 30.0))

    def _seed_left(self, energy: float, i0: int) -> float:
        """y[i0 + 1] / y[i0] of the solution regular at the left end."""
        if self.series is None:
            return self._growth(energy, i0)[1]
        rho, terms = self.series
        if (c0 := terms[0][0] - terms[0][1] * energy) <= 0.0:
            return math.inf  # no decaying branch at or above the threshold: y[i0] = 0
        s = math.sqrt(c0)
        c = [(p, a - b * energy) for p, (a, b) in terms.items() if p]
        t0, t1 = rho[i0:i0 + 2].tolist()  # t1 > t0: rho grows along the sweep
        # a_j j (j + 2s) = sum_{p > 0} c_p a_{j-p} up to a_13, a_0 = 1 after max(p) zeros; the
        # terms stop once max(p) in a row (the oscillator's odd a_j are 0) are below an ulp.
        top = max(terms)
        a, total, quiet = [0.0] * top + [1.0], 1.0, 0
        while quiet < top and (j := len(a) - top) < 14:
            aj = 0.0
            for p, cp in c:
                aj += cp * a[-p]
            a.append(aj := aj / (j * (j + 2.0 * s)))
            total += (term := abs(aj) * t1 ** j)
            quiet = quiet + 1 if term < 2.0 ** -53 * total else 0
        y0 = y1 = 0.0
        for aj in reversed(a[top:]):  # Horner's rule: np.polyval's array steps cost 1 us each
            y0, y1 = y0 * t0 + aj, y1 * t1 + aj
        return math.exp(self.h * s) * y1 / y0

    def _seed_right(self, energy: float, i1: int) -> float:
        """y[i1 - 1] / y[i1]: a decaying tail in a barrier, else y[i1] = 0."""
        f_end, growth = self._growth(energy, i1)
        return growth if f_end > 0.0 else math.inf

    def match_index(self, i0: int, i1: int) -> int:
        """Last classical turning point on the mesh at the last probed energy
        (the least f if there is none)."""
        allowed = np.less_equal(self._g, 0.0, out=self._mask)
        last = _last_true(allowed) if allowed.any() else int(np.argmin(self._g))
        return min(max(last, i0 + 2), i1 - 2)

    def forward_nodes(self, energy: float) -> int:
        """Sign changes of the forward solution: the count of mesh eigenvalues below E."""
        i0, i1 = self._bounds(energy)
        seed = self._seed_left(energy, i0) * self._c_ratio(i0 + 1, i0)
        return _sweep(seed, self._u[i0 + 1:i1])[0]

    def probe(self, energy: float):
        """Node count S(E) of the matched solution and the matching mismatch.

        The left solution is swept up to the matching point ic and the right
        one down to it.  Matching scales the right solution to agree in sign
        with the left one at ic, so S is the left count up to ic plus the
        right count down to ic; it changes only at the mismatch's poles.  The
        mismatch is the scaled log-derivative difference
        (y[ic+1] - y[ic-1])/y[ic] of the left solution minus that of the right
        one: strictly decreasing in E between its poles and zero exactly at
        the mesh eigenvalue.
        """
        i0, i1 = self._bounds(energy)
        ic = self.match_index(i0, i1)
        u = self._u
        seed = self._seed_left(energy, i0) * self._c_ratio(i0 + 1, i0)
        n_left, r_left = _sweep(seed, u[i0 + 1:ic])  # F[ic] / F[ic - 1]
        seed = self._seed_right(energy, i1) * self._c_ratio(i1 - 1, i1)
        n_right, q_right = _sweep(seed, u[i1 - 1:ic:-1])  # F[ic] / F[ic + 1]
        # With F = c*y, both one-sided solutions obey c[ic+1] y[ic+1] +
        # c[ic-1] y[ic-1] = (12 - 10 c[ic]) y[ic], which reduces the mismatch
        # to the y[ic-1]/y[ic] ratios: the right one is U[ic] - 1/q_right.
        gap = float(u[ic]) - 1.0 / q_right - 1.0 / r_left
        return n_left + n_right, (self._c_ratio(ic, ic - 1) + self._c_ratio(ic, ic + 1)) * gap

    def _c_ratio(self, i: int, j: int) -> float:
        """c[i]/c[j] of the Numerov factor c = 1 - g at the last probed energy."""
        return (1.0 - float(self._g[i])) / (1.0 - float(self._g[j]))


def _last_true(mask: np.ndarray) -> int:
    """Index of the last True entry of a boolean array with at least one."""
    return mask.size - 1 - int(mask[::-1].argmax())


def _decay_reach(g: np.ndarray, scratch: np.ndarray) -> int:
    """Barrier points (g = h^2 f/12, from the well outward) before sum sqrt(12 g) >= _DECAY."""
    np.multiply(g, 12.0, out=scratch)
    np.sqrt(scratch, out=scratch)
    return int(np.searchsorted(np.cumsum(scratch, out=scratch), _DECAY))


def _sweep(ratio: float, coeffs):
    """Johnson's renormalized Numerov recurrence R[i] = U[i] - 1/R[i-1].

    R[i] = F[i+1]/F[i] with F = c*y, so a negative ratio is a node of y.
    Starts from the seed ratio, runs over ``coeffs`` (an array or strided view
    of the U values in sweep order) and returns the number of nodes met and
    the last ratio.  Ratios cannot overflow; an exact zero (y lands on a mesh
    point) is stepped over as a tiny positive ratio, so the node is counted on
    the next step.
    """
    nodes = 0
    for u in memoryview(coeffs):  # yields Python floats without a copy
        ratio = u - 1.0 / ratio
        if ratio <= 0.0:
            if ratio == 0.0:
                ratio = 1e-300
            else:
                nodes += 1
    return nodes, ratio


def _locate(probe, target: int, bracket, tol_rel: float, guess=None):
    """Eigenvalue with ``target`` nodes inside ``bracket``, and ``target``, or None
    unless both final ends were probed at S = target.  Such ends hold exactly that
    mesh eigenvalue, as S(E) + [mismatch(E) <= 0] of them lie below any E, and the
    false-position root of their mismatches is returned; otherwise the midpoint.

    Every step is one _Shooting.probe call: ``guess`` and then pads past it
    toward the eigenvalue, doubling until one lands past it, each skipped
    outside the bracket; then bisection
    until both ends have the matched node count S = target, which pins them
    inside the pole-free window holding the eigenvalue; then Anderson-Bjorck
    false-position steps on the mismatch, kept a quarter tolerance inside the
    ends, or bisection when three steps have not halved the bracket.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    s_lo = s_hi = None  # S at each end once probed; the mismatch is > 0 at lo, <= 0 at hi
    f_lo = f_hi = v_lo = v_hi = 0.0  # mismatch at each end: v as probed, f Anderson-Bjorck scaled
    recent = [math.inf] * 3  # bracket widths before the last three steps inside the window
    moved = 0  # end the last false-position step replaced: -1 lo, +1 hi
    start, step = guess, 0.0  # probed before any bisection, then pads doubling past it
    iters = 0
    while (width := hi - lo) > (tol := tol_rel * max(abs(lo), abs(hi))):
        if iters >= _MAX_ITER:
            raise ConvergenceError(f"eigenvalue refinement exhausted {_MAX_ITER} iterations")
        iters += 1
        inside = s_lo == s_hi == target
        secant = inside and width <= 0.5 * recent[0]
        if secant:
            energy = lo + width * f_lo / (f_lo - f_hi)
            energy = min(max(energy, lo + 0.25 * tol), hi - 0.25 * tol)
        else:
            energy = start if start is not None and lo < start < hi else 0.5 * (lo + hi)
        recent = recent[1:] + [width] if inside else [math.inf] * 3
        s, f = probe(energy)
        side = -1 if s < target or (s == target and f > 0.0) else 1
        if energy == start:  # pads toward the eigenvalue, doubling until one lands past it
            step = 0.0 if side * step > 0.0 else 2.0 * step or -side * _pad(guess, tol_rel)
            start = guess + step if step else None
        if secant and side == moved:  # Anderson-Bjorck: scale the value at the end that stays
            f_old = f_lo if side < 0 else f_hi
            m = 1.0 - f / f_old if f_old and f / f_old < 1.0 else 0.5
            if side < 0:
                f_hi *= m
            else:
                f_lo *= m
        moved = side if secant else 0
        if side < 0:
            lo, s_lo, f_lo, v_lo = energy, s, f, f
        else:
            hi, s_hi, f_hi, v_hi = energy, s, f, f
    if s_lo == s_hi == target:
        return min(max(lo + (hi - lo) * v_lo / (v_lo - v_hi), lo), hi), target
    return 0.5 * (lo + hi), None


def _pad(energy: float, tol_rel: float) -> float:
    """How far past a guess _locate probes second, toward the eigenvalue."""
    return max(5e-4, 5e3 * tol_rel) * abs(energy)


def _phase_guess(prob: _Shooting, k: int, lo: float, hi: float):
    """E in (lo, hi) with h * sum sqrt(max(w E - f0, 0)) = (k + 1/2) pi on prob's mesh, the
    Langer phase integral of state k, to a relative 1e-7; None if no such E is found."""
    def phase(energy: float):  # as a probe with S = k throughout: _locate's false position
        v = np.multiply(prob.w, energy, out=prob._u)  # scratch: no probe is under way
        v -= prob.f0
        np.maximum(v, 0.0, out=v)
        return k, (k + 0.5) * math.pi - prob.h * float(np.sqrt(v, out=v).sum())

    energy, certified = _locate(phase, k, (lo, hi), 1e-7)  # None: a root past an end
    return None if certified is None else energy


def _whole(value, name: str, least: int) -> int:
    """``value`` as an int; DomainError unless it is an integer >= ``least``."""
    try:
        if (index := operator.index(value)) >= least:
            return index
    except TypeError:
        pass
    raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")


def _check_solve_inputs(grid: Grid1D, tol_rel: float) -> None:
    if not 0.0 < tol_rel < math.inf:
        raise DomainError(f"tol_rel must be finite and positive, got {tol_rel}")
    if grid.points < 1999:  # the doubled-spacing mesh needs Grid1D's 1000 points
        raise DomainError("a solve needs at least 1999 grid points (it is repeated "
                          f"with doubled spacing), got {grid.points}")
    if grid.points > _MAX_POINTS:
        raise DomainError(f"a solve takes at most {_MAX_POINTS} grid points, got "
                          f"{grid.points}; pass a coarser grid= or fewer points")


def _extrapolated(e_fine: float, e_coarse: float, nodes: int, grid: Grid1D) -> OracleResult:
    """E* = E_h + (E_h - E_2h)/15, with the Richardson estimate R = |E_h - E_2h|/15."""
    step = (e_fine - e_coarse) / 15.0
    return OracleResult(e_fine + step, nodes, grid, richardson_error_estimate=abs(step))


def _finer(grid: Grid1D, results, grow: bool):
    """The next level of a default (``grow``) mesh, with halved spacing, if one is due."""
    if grow and grid.points < _FINEST_DEFAULT and any(
            r.richardson_error_estimate > _DOUBLING_REL * abs(r.eigenvalue) for r in results):
        return Grid1D(grid.x_min, grid.x_max, 2 * grid.points - 1)


def _solve_dual(build, grid: Grid1D, target: int, bracket, tol_rel: float,
                guess=None, grow: bool = False, e_coarse=None) -> OracleResult:
    """State ``target`` from ``guess``, extrapolated against ``e_coarse`` or else against
    the doubled-spacing mesh's result from there; a finer level, if due, starts from E*
    with this one as its doubled-spacing one.  Forward node counts check the bracket ends
    before the refinement without a guess, else only if _locate did not certify them."""
    _check_solve_inputs(grid, tol_rel)
    target = _whole(target, "target_nodes", 0)
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise BracketError(f"bracket must satisfy lo < hi, got ({lo}, {hi})")
    fine = build(grid)
    if guess is None:
        _count_ends(fine, target, lo, hi)
    e_fine, nodes = _locate(fine.probe, target, (lo, hi), tol_rel, guess)
    if nodes is None and guess is not None:
        _count_ends(fine, target, lo, hi)
    nodes = fine.probe(e_fine)[0] if nodes is None else nodes
    del fine  # the next mesh is built once this one is freed
    if e_coarse is None:
        e_coarse = _locate(build(grid.halved()).probe, target, (lo, hi), tol_rel, e_fine)[0]
    result = _extrapolated(e_fine, e_coarse, nodes, grid)
    if (finer := _finer(grid, [result], grow)) is None:
        return result
    return _solve_dual(build, finer, target, bracket, tol_rel, result.eigenvalue, grow, e_fine)


def _count_ends(prob: _Shooting, target: int, lo: float, hi: float) -> None:
    """BracketError unless forward node counts put mesh eigenvalue ``target`` in (lo, hi]."""
    if (n := prob.forward_nodes(lo)) > target:
        raise BracketError(f"node count {n} at the lower bracket end exceeds the target {target}")
    if (n := prob.forward_nodes(hi)) <= target:
        raise BracketError(f"node count {n} at the upper bracket end does not reach "
                           f"{target + 1}; the bracket holds no such eigenvalue")


def _line_builder(potential, mass: float, hbar: float):
    if not (0.0 < mass < math.inf and 0.0 < hbar < math.inf):
        raise DomainError(f"mass and hbar must be positive and finite, got {mass}, {hbar}")
    kfac = 2.0 * mass / (hbar * hbar)

    def build(grid: Grid1D) -> _Shooting:
        xs = grid.positions()
        try:
            vs = np.asarray(potential(xs), dtype=float)
            if vs.shape != xs.shape:
                raise TypeError
        except TypeError:
            vs = np.array([float(potential(float(x))) for x in xs])
        if not np.all(np.isfinite(vs)):
            raise DomainError("potential must be finite on the whole grid")
        return _Shooting(float(xs[1] - xs[0]), kfac * vs, kfac)

    return build


def _on_mesh(terms: dict, rho: np.ndarray):
    """f0 = sum_p a_p rho^p and w = sum_p b_p rho^p; a w set by b_0 alone stays a scalar."""
    f0, w = np.full_like(rho, terms[0][0]), terms[0][1]
    for p, (a, b) in terms.items():
        if p and a:
            f0 = f0 + a * rho ** p
        if p and b:
            w = w + b * rho ** p
    return f0, w


def _langer_builder(terms: dict, mesh):
    """Builder of y'' = sum_p (a_p - b_p E) rho^p y on mesh(grid), uniform in ln rho,
    seeded from the Frobenius series at rho = 0."""
    def build(grid: Grid1D) -> _Shooting:
        ls = mesh(grid)
        rho = np.exp(ls)
        return _Shooting(float(ls[1] - ls[0]), *_on_mesh(terms, rho), (rho, terms))

    return build


def _radial_terms(problem: RadialProblem) -> dict:
    """{p: (a_p, b_p)} of the Langer equation for y = u/sqrt(r) in ln r:
    a = S^2 + k z r^(2+delta), b = k r^2, k = 2m/hbar^2."""
    s_sq = angular_factor(problem.dim, problem.l, problem.beta).S ** 2  # validates the coupling
    kfac = 2.0 * problem.mass / (problem.hbar * problem.hbar)
    terms = {0: (s_sq, 0.0), 2: (0.0, kfac)}
    a, b = terms.get(2 + problem.delta, (0.0, 0.0))
    terms[2 + problem.delta] = (a + kfac * problem.z, b)  # delta = 0 or -2 adds to a term
    if terms[0][0] <= 0.0:  # an explicit r^-2 piece adds k z to S^2
        raise CriticalCouplingError("combined inverse-square coupling is at or below "
                                    "the critical value")
    return terms


def _radial_builder(problem: RadialProblem):
    def mesh(grid: Grid1D) -> np.ndarray:
        if grid.x_min != 0.0:
            raise DomainError("radial grids are Grid1D(0, r_max, points)")
        return np.linspace(math.log(_R_MIN * grid.x_max), math.log(grid.x_max), grid.points)

    return _langer_builder(_radial_terms(problem), mesh)


def _morse_builder(params: MorseParams):
    """The Morse problem on a Grid1D in x, reversed so the sweep starts at the tail."""
    scale = 2.0 * params.mass / (params.hbar * params.alpha) ** 2
    terms = {0: (0.0, scale), 1: (scale * params.v1, 0.0), 2: (scale * params.v2, 0.0)}
    return _langer_builder(terms, lambda grid: -params.alpha * grid.positions()[::-1])  # ln t


def solve_1d(potential, grid: Grid1D, target_nodes: int, mass: float, hbar: float,
             bracket, *, tol_rel: float = _DEFAULT_TOL_REL) -> OracleResult:
    """Eigenvalue of a 1-D potential with ``target_nodes`` interior nodes.

    ``bracket`` must contain exactly that eigenvalue; the node counts of the
    forward solution at the bracket ends are checked before any bisection.
    """
    return _solve_dual(_line_builder(potential, mass, hbar), grid, target_nodes,
                       bracket, tol_rel)


def solve_radial(problem: RadialProblem, grid: Grid1D, target_nodes: int, bracket,
                 *, tol_rel: float = _DEFAULT_TOL_REL) -> OracleResult:
    """Eigenvalue of the radial problem with ``target_nodes`` nodes in (0, r_max).

    ``grid`` is Grid1D(0, r_max, N): N points uniform in ln r on
    [1e-7 * r_max, r_max], the first two seeded with the regular branch
    u ~ r^(1/2+S).
    """
    return _solve_dual(_radial_builder(problem), grid, target_nodes, bracket, tol_rel)


def scan_spectrum(target, energy_window, max_states: int, *, grid: Grid1D | None = None,
                  mass: float | None = None, hbar: float | None = None,
                  tol_rel: float = _DEFAULT_TOL_REL) -> list[OracleResult]:
    """All eigenvalues inside ``energy_window``, in ascending order.

    ``target`` is either a :class:`RadialProblem` or a 1-D potential callable
    (then ``grid``, ``mass`` and ``hbar`` are required).  The forward node
    counts at the window edges, made once on the first requested mesh, give
    the states inside and are the bracket check of each.  Each state is searched
    for across the window on the doubled-spacing mesh, with memoized probes,
    from its phase-integral guess if that lies in the window, then refined on
    the requested mesh from there.  A twin past a window edge is found again
    around that result.  Without ``grid`` every state moves to a finer level
    when one asks.  If more than ``max_states`` states live in the window only
    the lowest ones are returned and a RuntimeWarning is issued.
    """
    lo, hi = float(energy_window[0]), float(energy_window[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise DomainError(f"energy window must be finite with lo < hi, got ({lo}, {hi})")
    max_states = _whole(max_states, "max_states", 1)

    grow = grid is None
    if isinstance(target, RadialProblem):
        build = _radial_builder(target)
        if grid is None:
            grid = _default_radial_grid(target, hi, reach=_MAX_SCAN_REACH)
    else:
        if grid is None or mass is None or hbar is None:
            raise DomainError("scanning a callable potential requires grid, mass and hbar")
        build = _line_builder(target, mass, hbar)
    _check_solve_inputs(grid, tol_rel)

    fine = build(grid)
    n_lo, n_hi = fine.forward_nodes(lo), fine.forward_nodes(hi)
    if (inside := n_hi - n_lo) > max_states:
        warnings.warn(f"energy window holds {inside} states but max_states={max_states}; "
                      "returning the lowest ones (window too small to honour them all)",
                      RuntimeWarning, stacklevel=2)
    states = range(n_lo, min(n_hi, n_lo + max_states))
    half = build(grid.halved()) if states else None
    coarse = functools.cache(half.probe) if states else None
    located = [_locate(coarse, k, (lo, hi), tol_rel, _phase_guess(half, k, lo, hi))
               for k in states]
    guesses = [e for e, _ in located]
    while True:
        twins, results = located, []
        located = [_locate(fine.probe, k, (lo, hi), tol_rel, g) for k, g in zip(states, guesses)]
        for k, (e, n), (e_coarse, certified) in zip(states, located, twins):
            if certified is None:  # the twin lies past a window edge: find it around e instead
                pad = _pad(e, tol_rel)
                e_coarse = _locate(coarse, k, (e - pad, e + pad), tol_rel, e)[0]
            results.append(_extrapolated(e, e_coarse, fine.probe(e)[0] if n is None else n, grid))
        if (grid := _finer(grid, results, grow)) is None:
            return results
        coarse, fine, guesses = fine.probe, build(grid), [r.eigenvalue for r in results]


def _default_radial_grid(problem: RadialProblem, energy: float, points: int | None = None,
                         reach: float = math.inf) -> Grid1D:
    """Log mesh out to where the WKB decay exponent, the integral of sqrt(f) dr/r
    past the outermost turning point at ``energy`` (past the least Langer f if
    there is none), reaches 30; a box past ``reach`` raises DomainError."""
    terms = _radial_terms(problem)
    # The probe spans 15 decades each side of the decay length at ``energy``
    # (unit energy at 0); b_2 = 2m/hbar^2.
    rs = np.geomspace(1e-15, 1e15, 4001) / math.sqrt(terms[2][1] * (abs(energy) or 1.0))
    f0, w = _on_mesh(terms, rs)
    f = f0 - w * energy
    allowed = np.flatnonzero(f <= 0.0)
    start = int(allowed[-1]) if allowed.size else int(np.argmin(f))
    decay = np.cumsum(np.sqrt(f[start + 1:]) / rs[start + 1:] * np.diff(rs[start:]))
    past = start + 1 + np.flatnonzero(decay >= 30.0)
    if not past.size or rs[past[0]] > reach:
        raise DomainError(f"no default radial grid for E = {energy:g} ends within "
                          f"r = {min(reach, rs[-1]):g}; pass an explicit grid=")
    return Grid1D(0.0, float(rs[past[0]]), _DEFAULT_POINTS if points is None else points)


# Convenience entry points with closed-form guesses, brackets and grids.  The refinement
# converges wherever its bracket came from, so they cost nothing in independence.

def _morse_default_grid(params: MorseParams, points: int | None) -> Grid1D:
    """x from the wall, where V reaches 500 well depths (at least 200), to the
    tail, where k|v1|t/alpha^2 = 0.02 and the Frobenius seed takes over."""
    wall = max(500.0 * params.v1 ** 2 / (4.0 * params.v2), 200.0)
    t_wall = (-params.v1 + math.sqrt(params.v1 ** 2 + 4.0 * params.v2 * wall)) / (2.0 * params.v2)
    t_tail = 0.02 * (params.hbar * params.alpha) ** 2 / (2.0 * params.mass * abs(params.v1))
    return Grid1D(-math.log(t_wall) / params.alpha, -math.log(t_tail) / params.alpha,
                  _DEFAULT_POINTS if points is None else points)


def solve_morse(params: MorseParams, n: int, *, points: int | None = None,
                tol_rel: float = _DEFAULT_TOL_REL) -> OracleResult:
    """Oracle eigenvalue for the n-th Morse bound state of ``params``."""
    n = _whole(n, "n", 0)
    states = morse_spectrum(params)
    if n >= len(states):
        raise DomainError(f"state {n} does not exist; the well holds {len(states)} states")
    return _solve_state(_morse_builder(params), states, n,
                        _morse_default_grid(params, points), tol_rel, points is None)


def solve_sho(dim: int, l: int, beta: float, omega: float, mass: float, hbar: float,
              n: int, *, points: int | None = None,
              tol_rel: float = _DEFAULT_TOL_REL) -> OracleResult:
    """Oracle eigenvalue for the singular-oscillator state (n, l)."""
    n = _whole(n, "n", 0)
    problem = RadialProblem(dim=dim, l=l, beta=beta, delta=2,
                            z=0.5 * mass * omega * omega, mass=mass, hbar=hbar)
    states = sho_spectrum(dim, l, beta, omega, mass, hbar, n + 1)
    grid = _default_radial_grid(problem, states[n].energy, points)
    return _solve_state(_radial_builder(problem), states, n, grid, tol_rel, points is None)


def solve_coulomb(dim: int, l: int, beta: float, z: float, mass: float, hbar: float,
                  n: int, *, points: int | None = None,
                  tol_rel: float = _DEFAULT_TOL_REL) -> OracleResult:
    """Oracle eigenvalue for the singular-Coulomb state (n, l)."""
    n = _whole(n, "n", 0)
    problem = RadialProblem(dim=dim, l=l, beta=beta, delta=-1, z=z, mass=mass, hbar=hbar)
    states = coulomb_spectrum(dim, l, beta, z, mass, hbar, n + 1)
    grid = _default_radial_grid(problem, states[n].energy, points)
    return _solve_state(_radial_builder(problem), states, n, grid, tol_rel, points is None)


def _solve_state(build, states, n: int, grid: Grid1D, tol_rel: float, grow: bool):
    """State n of ``states`` on ``build``'s problem, from its closed form, in a
    window of 20% of |E| around it, capped at 45% of each gap to a neighbour."""
    energy = states[n].energy
    pad_dn = pad_up = 0.2 * abs(energy)
    if n + 1 < len(states):
        pad_up = min(pad_up, 0.45 * (states[n + 1].energy - energy))
    if n > 0:
        pad_dn = min(pad_dn, 0.45 * (energy - states[n - 1].energy))
    return _solve_dual(build, grid, n, (energy - pad_dn, energy + pad_up), tol_rel, energy, grow)
