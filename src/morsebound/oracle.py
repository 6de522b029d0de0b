"""Independent Numerov shooting eigensolver.

This module is the numerical check on every closed-form eigenvalue in the
package.  It integrates y'' = (2m/hbar^2)(V - E) y with the three-point
Numerov scheme (fourth order in the spacing) in Johnson's renormalized form:
one kernel carries the ratio R[i] = F[i+1]/F[i] of F = (1 - h^2 f/12) y
through R[i] = U[i] - 1/R[i-1], so nothing overflows and a node is a negative
ratio.  Forward node counts check the bracket ends.  Each refinement step is
one probe: a left sweep up to the outermost classical turning point and a
right sweep down to it give the log-derivative mismatch there and the matched
node count S(E), the sum of the two one-sided counts.  S changes only at the
mismatch's poles, so {E : S(E) = n} is the pole-free window holding the n-th
eigenvalue and one zero of the mismatch.  The refinement bisects until both
bracket ends lie in that window, then takes Illinois false-position steps; the
node count of the result is read off the bracketing probes.
Radial problems never touch r = 0: the mesh starts one spacing out and the
first two values are seeded with the regular Frobenius behavior r^(1/2+S)
(plus a short series correction so the seeding error stays below the
scheme's own fourth-order truncation).

Every solve is repeated on a mesh with doubled spacing; the difference,
scaled by 1/15, is reported as a Richardson error estimate.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

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
# Largest mesh scan_spectrum builds on its own: r_max = 25000 at spacing 0.02.
_MAX_DEFAULT_POINTS = 1_250_001
_MAX_ITER = 200
# Integration starts where h^2*f/12 stays below this cap: past it the Numerov
# factor 1 - h^2*f/12 turns negative and the recurrence alternates signs,
# minting spurious nodes.  The regular solution is ~0 that deep in a barrier,
# so skipping the over-stiff points loses nothing.
_BARRIER_CAP = 0.8


@dataclass(frozen=True)
class Grid1D:
    """Uniform mesh with at least 1000 points."""

    x_min: float
    x_max: float
    points: int

    def __post_init__(self):
        if self.points < 1000:
            raise DomainError(f"grid needs at least 1000 points, got {self.points}")
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


@dataclass(frozen=True)
class OracleResult:
    """A numerically determined eigenvalue with its mesh and error estimate."""

    eigenvalue: float
    node_count: int
    grid: Grid1D
    richardson_error_estimate: float


class _Shooting:
    """Discretized shooting problem on the nodes actually integrated."""

    def __init__(self, xs: np.ndarray, vs: np.ndarray, mass: float, hbar: float,
                 frobenius=None):
        self.x = xs
        self.v = vs
        self.h = float(xs[1] - xs[0])
        self.kfac = 2.0 * mass / (hbar * hbar)
        self._w = (self.h * self.h / 12.0) * self.kfac
        self._base = 1.0 - self._w * vs  # c(E) = base + w*E
        # Every probe refills these in place, so a solve allocates no
        # mesh-sized arrays after construction.
        self._c = np.empty_like(self._base)
        self._u = np.empty_like(self._base)
        self._mask = np.empty(vs.shape, dtype=bool)
        # frobenius = (power, delta, ztilde) switches the left seed from the
        # generic barrier form to the regular r^(1/2+S) series at the origin.
        self.frobenius = frobenius

    def _coeffs(self, energy: float, i0: int, i1: int):
        """Numerov factors c on [i0, i1] and the ratio coefficients U = 12/c - 10.

        Both are views of buffers that the next call overwrites.
        """
        c = np.add(self._base[i0:i1 + 1], self._w * energy, out=self._c[i0:i1 + 1])
        u = np.divide(12.0, c, out=self._u[i0:i1 + 1])
        u -= 10.0
        return c, u

    def _bounds(self, energy: float):
        """First and last mesh index the recurrence may visit at this energy.

        Assumes a single-well effective potential, so the representable set
        {i : h^2*f_i/12 <= cap} is one contiguous block.
        """
        cutoff = energy + _BARRIER_CAP / self._w
        inside = np.less_equal(self.v, cutoff, out=self._mask)
        if np.count_nonzero(inside) < 8:
            raise BracketError(
                "the mesh cannot represent this energy: the barrier is too stiff "
                "almost everywhere (reduce the spacing or the box)"
            )
        return int(inside.argmax()), _last_true(inside)

    def _seed_left(self, energy: float, i0: int) -> float:
        """y[i0 + 1] / y[i0] of the solution regular at the left end."""
        if self.frobenius is None:
            f0 = self.kfac * (float(self.v[i0]) - energy)
            return math.exp(min(math.sqrt(max(f0, 0.0)) * self.h, 30.0))
        power, delta, ztilde = self.frobenius
        big_s = power - 0.5
        b = -self.kfac * energy
        a = [1.0, 0.0, 0.0, 0.0, 0.0]
        for k in range(1, 5):
            acc = b * a[k - 2] if k - 2 >= 0 else 0.0
            j = k - 2 - delta
            if 0 <= j < k:
                acc += ztilde * a[j]
            a[k] = acc / (k * (k + 2.0 * big_s))

        def series(r):
            return 1.0 + r * (a[1] + r * (a[2] + r * (a[3] + r * a[4])))

        r0, r1 = float(self.x[i0]), float(self.x[i0 + 1])
        return (r1 / r0) ** power * series(r1) / series(r0)

    def _seed_right(self, energy: float, i1: int) -> float:
        """y[i1 - 1] / y[i1]: a decaying tail in a barrier, else y[i1] = 0."""
        f_end = self.kfac * (float(self.v[i1]) - energy)
        if f_end > 0.0:
            return math.exp(min(math.sqrt(f_end) * self.h, 30.0))
        return math.inf

    def match_index(self, energy: float, i0: int, i1: int) -> int:
        """Outermost classical turning point (the potential minimum if there is none)."""
        allowed = np.less_equal(self.v, energy, out=self._mask)
        last = _last_true(allowed) if allowed.any() else int(np.argmin(self.v))
        return min(max(last, i0 + 2), i1 - 2)

    def forward_nodes(self, energy: float, cap: int | None = None) -> int:
        """Sign changes of the forward solution: the count of mesh eigenvalues below E."""
        i0, i1 = self._bounds(energy)
        c, u = self._coeffs(energy, i0, i1)
        seed = self._seed_left(energy, i0) * float(c[1] / c[0])
        return _sweep(seed, u[1:i1 - i0], cap)[0]

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
        ic = self.match_index(energy, i0, i1)
        c, u = self._coeffs(energy, i0, i1)
        k, n = ic - i0, i1 - i0
        seed = self._seed_left(energy, i0) * float(c[1] / c[0])
        n_left, r_left = _sweep(seed, u[1:k])  # F[ic] / F[ic - 1]
        seed = self._seed_right(energy, i1) * float(c[n - 1] / c[n])
        n_right, q_right = _sweep(seed, u[n - 1:k:-1])  # F[ic] / F[ic + 1]
        # With F = c*y, both one-sided solutions obey c[ic+1] y[ic+1] +
        # c[ic-1] y[ic-1] = (12 - 10 c[ic]) y[ic], which reduces the mismatch
        # to the y[ic-1]/y[ic] ratios: the right one is U[ic] - 1/q_right.
        cm, c0, cp = float(c[k - 1]), float(c[k]), float(c[k + 1])
        gap = float(u[k]) - 1.0 / q_right - 1.0 / r_left
        return n_left + n_right, (1.0 + cm / cp) * (c0 / cm) * gap


def _last_true(mask: np.ndarray) -> int:
    """Index of the last True entry of a boolean array with at least one."""
    return mask.size - 1 - int(mask[::-1].argmax())


def _sweep(ratio: float, coeffs, cap: int | None = None):
    """Johnson's renormalized Numerov recurrence R[i] = U[i] - 1/R[i-1].

    R[i] = F[i+1]/F[i] with F = c*y, so a negative ratio is a node of y.
    Starts from the seed ratio, runs over ``coeffs`` (an array or strided view
    of the U values in sweep order) and returns the number of nodes met
    (stopping past ``cap``) and the last ratio.  Ratios cannot overflow; an exact zero (y
    lands on a mesh point) is stepped over as a tiny positive ratio, so the
    node is counted on the next step.
    """
    nodes = 0
    for u in memoryview(coeffs):  # yields Python floats without a copy
        ratio = u - 1.0 / ratio
        if ratio <= 0.0:
            if ratio == 0.0:
                ratio = 1e-300
            else:
                nodes += 1
                if cap is not None and nodes > cap:
                    break
    return nodes, ratio


def _locate(prob: _Shooting, target: int, bracket, tol_rel: float):
    """Eigenvalue with ``target`` nodes inside ``bracket`` and its node count.

    Every step probes one energy.  It bisects until both ends have the
    matched node count S = target, which pins them inside the pole-free
    window holding the eigenvalue; then it takes Illinois false-position
    steps on the mismatch, kept a quarter tolerance inside the ends, and
    bisects instead when three steps have not halved the bracket.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise BracketError(f"bracket must satisfy lo < hi, got ({lo}, {hi})")
    n_lo = prob.forward_nodes(lo, cap=target + 1)
    if n_lo > target:
        raise BracketError(
            f"node count {n_lo} at the lower bracket end exceeds the target {target}"
        )
    n_hi = prob.forward_nodes(hi, cap=target + 2)
    if n_hi < target + 1:
        raise BracketError(
            f"node count {n_hi} at the upper bracket end does not reach {target + 1}; "
            "the bracket holds no such eigenvalue"
        )
    s_lo = s_hi = None  # S at each end once probed; the mismatch is > 0 at lo, <= 0 at hi
    f_lo = f_hi = 0.0
    recent = [math.inf] * 3  # bracket widths before the last three steps inside the window
    moved = 0  # end the last false-position step replaced: -1 lo, +1 hi
    iters = 2
    while (width := hi - lo) > (tol := tol_rel * max(1.0, abs(lo), abs(hi))):
        if iters >= _MAX_ITER:
            raise ConvergenceError(f"eigenvalue refinement exhausted {_MAX_ITER} iterations")
        iters += 1
        inside = s_lo == s_hi == target
        secant = inside and width <= 0.5 * recent[0]
        if secant:
            energy = lo + width * f_lo / (f_lo - f_hi)
            energy = min(max(energy, lo + 0.25 * tol), hi - 0.25 * tol)
        else:
            energy = 0.5 * (lo + hi)
        recent = recent[1:] + [width] if inside else [math.inf] * 3
        s, f = prob.probe(energy)
        side = -1 if s < target or (s == target and f > 0.0) else 1
        if secant and side == moved:  # Illinois: halve the value at the end that stays
            if side < 0:
                f_hi *= 0.5
            else:
                f_lo *= 0.5
        moved = side if secant else 0
        if side < 0:
            lo, s_lo, f_lo = energy, s, f
        else:
            hi, s_hi, f_hi = energy, s, f
    energy = 0.5 * (lo + hi)
    if s_lo == s_hi == target:
        return energy, target
    return energy, prob.probe(energy)[0]


def _check_solve_inputs(grid: Grid1D, tol_rel: float) -> None:
    if not 0.0 < tol_rel < math.inf:
        raise DomainError(f"tol_rel must be finite and positive, got {tol_rel}")
    if grid.points < 1999:  # the doubled-spacing mesh needs Grid1D's 1000 points
        raise DomainError("a solve needs at least 1999 grid points (it is repeated "
                          f"with doubled spacing), got {grid.points}")


def _solve_dual(build, grid: Grid1D, target: int, bracket, tol_rel: float) -> OracleResult:
    """Locate on the requested mesh and on the doubled-spacing mesh."""
    if target < 0:
        raise DomainError(f"target_nodes must be >= 0, got {target}")
    fine = build(grid)
    e_fine, nodes = _locate(fine, target, bracket, tol_rel)

    coarse = build(grid.halved())
    pad = max(1e-3 * max(1.0, abs(e_fine)), 1e4 * tol_rel * max(1.0, abs(e_fine)))
    try:
        e_coarse = _locate(coarse, target, (e_fine - pad, e_fine + pad), tol_rel)[0]
    except BracketError:
        e_coarse = _locate(coarse, target, bracket, tol_rel)[0]
    estimate = abs(e_fine - e_coarse) / 15.0
    return OracleResult(eigenvalue=e_fine, node_count=nodes, grid=grid,
                        richardson_error_estimate=estimate)


def _line_builder(potential, mass: float, hbar: float):
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
        return _Shooting(xs, vs, mass, hbar)

    return build


def _radial_builder(problem: RadialProblem):
    af = angular_factor(problem.dim, problem.l, problem.beta)  # validates the coupling
    inv_sq = af.S * af.S - 0.25  # beta + L(L+1)
    kfac = 2.0 * problem.mass / (problem.hbar * problem.hbar)
    if problem.delta == -2:
        # Fold an explicit r^-2 power-law piece into the inverse-square strength.
        inv_sq += kfac * problem.z
        s_eff_sq = inv_sq + 0.25
        if s_eff_sq <= 0.0:
            raise CriticalCouplingError(
                "combined inverse-square coupling is at or below the critical value"
            )
        power = 0.5 + math.sqrt(s_eff_sq)
        z_pow, ztilde = 0.0, 0.0
    else:
        power = 0.5 + af.S
        z_pow, ztilde = problem.z, kfac * problem.z

    centrifugal = (problem.hbar ** 2 / (2.0 * problem.mass)) * inv_sq

    def build(grid: Grid1D) -> _Shooting:
        if grid.x_min != 0.0:
            raise DomainError("radial grids start at x_min = 0 (first node one spacing out)")
        rs = grid.positions()[1:]  # r = 0 is a (regular) singular point
        vs = centrifugal / (rs * rs)
        if z_pow != 0.0:
            vs = vs + z_pow * rs ** problem.delta
        return _Shooting(rs, vs, problem.mass, problem.hbar,
                         frobenius=(power, problem.delta, ztilde))

    return build


def solve_1d(potential, grid: Grid1D, target_nodes: int, mass: float, hbar: float,
             bracket, *, tol_rel: float = _DEFAULT_TOL_REL) -> OracleResult:
    """Eigenvalue of a 1-D potential with ``target_nodes`` interior nodes.

    ``bracket`` must contain exactly that eigenvalue; the node counts of the
    forward solution at the bracket ends are checked before any bisection.
    """
    if mass <= 0.0 or hbar <= 0.0:
        raise DomainError("mass and hbar must be positive")
    _check_solve_inputs(grid, tol_rel)
    return _solve_dual(_line_builder(potential, mass, hbar), grid, target_nodes,
                       bracket, tol_rel)


def solve_radial(problem: RadialProblem, grid: Grid1D, target_nodes: int, bracket,
                 *, tol_rel: float = _DEFAULT_TOL_REL) -> OracleResult:
    """Eigenvalue of the radial problem with ``target_nodes`` nodes in (0, r_max).

    The grid is interpreted on (0, x_max]: the first integrated point sits one
    spacing away from the origin and the solution is seeded there with the
    regular branch r^(1/2+S).
    """
    _check_solve_inputs(grid, tol_rel)
    return _solve_dual(_radial_builder(problem), grid, target_nodes, bracket, tol_rel)


def scan_spectrum(target, energy_window, max_states: int, *, grid: Grid1D | None = None,
                  mass: float | None = None, hbar: float | None = None,
                  tol_rel: float = _DEFAULT_TOL_REL) -> list[OracleResult]:
    """All eigenvalues inside ``energy_window``, in ascending order.

    ``target`` is either a :class:`RadialProblem` or a 1-D potential callable
    (then ``grid``, ``mass`` and ``hbar`` are required).  The count inside the
    window is read off the node counts at the window edges; each state is then
    refined individually.  If more than ``max_states`` states live in the
    window only the lowest ``max_states`` are returned and a RuntimeWarning is
    issued.
    """
    lo, hi = float(energy_window[0]), float(energy_window[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise DomainError(f"energy window must be finite with lo < hi, got ({lo}, {hi})")
    if max_states < 1:
        raise DomainError(f"max_states must be >= 1, got {max_states}")

    if isinstance(target, RadialProblem):
        build = _radial_builder(target)
        if grid is None:
            grid = _default_radial_grid(target, hi)
    else:
        if grid is None or mass is None or hbar is None:
            raise DomainError("scanning a callable potential requires grid, mass and hbar")
        build = _line_builder(target, mass, hbar)
    _check_solve_inputs(grid, tol_rel)

    prob = build(grid)
    n_lo = prob.forward_nodes(lo)
    n_hi = prob.forward_nodes(hi)
    inside = n_hi - n_lo
    if inside > max_states:
        warnings.warn(
            f"energy window holds {inside} states but max_states={max_states}; "
            "returning the lowest ones (window too small to honour them all)",
            RuntimeWarning,
            stacklevel=2,
        )
    results = []
    for k in range(n_lo, min(n_hi, n_lo + max_states)):
        results.append(_solve_dual(build, grid, k, (lo, hi), tol_rel))
    return results


def _default_radial_grid(problem: RadialProblem, window_top: float) -> Grid1D:
    """Mesh from the turning radius at the window top out past 30 decay lengths,
    at a spacing of about 0.02; pass an explicit grid for precision work."""
    probe = np.geomspace(1e-4, 1e4, 4000)
    ks = 2.0 * problem.mass / problem.hbar ** 2
    af = angular_factor(problem.dim, problem.l, problem.beta)
    inv_sq = af.S * af.S - 0.25
    vs = (problem.hbar ** 2 / (2.0 * problem.mass)) * inv_sq / probe ** 2
    if problem.delta != -2 and problem.z != 0.0:
        vs = vs + problem.z * probe ** problem.delta
    allowed = probe[vs <= window_top]
    r_turn = float(allowed[-1]) if allowed.size else 10.0
    kappa = math.sqrt(ks * abs(window_top)) if window_top < 0.0 else math.sqrt(ks)
    r_max = max(2.0 * r_turn, r_turn + 30.0 / max(kappa, 1e-3))
    points = max(15001, math.ceil(r_max / 0.02) | 1)  # spacing about 0.02
    if points > _MAX_DEFAULT_POINTS:
        raise DomainError(f"the default radial grid would need {points} points to reach "
                          f"r = {r_max:.6g}; pass grid= explicitly")
    return Grid1D(0.0, r_max, points)


# ---------------------------------------------------------------------------
# Convenience entry points with analytic default brackets and grids.  The
# bisection converges independently of where the bracket came from, so seeding
# it from the closed forms costs nothing in independence.
# ---------------------------------------------------------------------------

def _bracket(energies, n: int):
    """Window around energies[n]: 20% of |E|, capped at 45% of each gap to a neighbour."""
    energy = energies[n]
    pad_dn = pad_up = 0.2 * abs(energy)
    if n + 1 < len(energies):
        pad_up = min(pad_up, 0.45 * (energies[n + 1] - energy))
    if n > 0:
        pad_dn = min(pad_dn, 0.45 * (energy - energies[n - 1]))
    return (energy - pad_dn, energy + pad_up)


def _morse_default_grid(params: MorseParams, energy: float, points: int | None) -> Grid1D:
    depth = max(abs(energy), params.v1 ** 2 / (4.0 * params.v2))
    wall = max(500.0 * depth, 200.0)
    t_wall = (-params.v1 + math.sqrt(params.v1 ** 2 + 4.0 * params.v2 * wall)) / (2.0 * params.v2)
    x_min = -math.log(t_wall) / params.alpha
    disc = params.v1 ** 2 + 4.0 * params.v2 * energy
    t_out = (-params.v1 - math.sqrt(max(disc, 0.0))) / (2.0 * params.v2)
    x_turn = -math.log(max(t_out, 1e-300)) / params.alpha
    kappa = math.sqrt(2.0 * params.mass * abs(energy)) / params.hbar
    x_max = x_turn + 28.0 / kappa
    if points is None:
        points = max(8001, int(math.ceil((x_max - x_min) / 0.004)) | 1)
    return Grid1D(x_min, x_max, points)


def solve_morse(params: MorseParams, n: int, *, points: int | None = None,
                grid: Grid1D | None = None, bracket=None,
                tol_rel: float = _DEFAULT_TOL_REL) -> OracleResult:
    """Oracle eigenvalue for the n-th Morse bound state of ``params``.

    When ``points`` is omitted the mesh density scales with the box, so
    shallow states with long decay tails keep a fine enough spacing.
    """
    states = morse_spectrum(params)
    if n >= len(states) or n < 0:
        raise DomainError(f"state {n} does not exist; the well holds {len(states)} states")
    energy = states[n].energy
    if grid is None:
        grid = _morse_default_grid(params, energy, points)
    if bracket is None:
        bracket = _bracket([st.energy for st in states], n)

    def potential(x):
        t = np.exp(-params.alpha * x)
        return params.v1 * t + params.v2 * t * t

    return solve_1d(potential, grid, n, params.mass, params.hbar, bracket, tol_rel=tol_rel)


def solve_sho(dim: int, l: int, beta: float, omega: float, mass: float, hbar: float,
              n: int, *, points: int = 12001, grid: Grid1D | None = None,
              bracket=None, tol_rel: float = _DEFAULT_TOL_REL) -> OracleResult:
    """Oracle eigenvalue for the singular-oscillator state (n, l)."""
    state = sho_spectrum(dim, l, beta, omega, mass, hbar, n)[n]
    problem = RadialProblem(dim=dim, l=l, beta=beta, delta=2,
                            z=0.5 * mass * omega * omega, mass=mass, hbar=hbar)
    if grid is None:
        length = math.sqrt(hbar / (mass * omega))
        r_max = math.sqrt(2.0 * hbar / (mass * omega) * (state.energy / (hbar * omega) + 45.0))
        r_max = max(r_max, 6.0 * length)
        grid = Grid1D(0.0, r_max, points)
    if bracket is None:
        pad = min(0.2 * state.energy, 0.9 * hbar * omega)
        bracket = (state.energy - pad, state.energy + pad)
    return solve_radial(problem, grid, n, bracket, tol_rel=tol_rel)


def solve_coulomb(dim: int, l: int, beta: float, z: float, mass: float, hbar: float,
                  n: int, *, points: int = 16001, grid: Grid1D | None = None,
                  bracket=None, tol_rel: float = _DEFAULT_TOL_REL) -> OracleResult:
    """Oracle eigenvalue for the singular-Coulomb state (n, l)."""
    states = coulomb_spectrum(dim, l, beta, z, mass, hbar, n + 1)
    state = states[n]
    problem = RadialProblem(dim=dim, l=l, beta=beta, delta=-1, z=z, mass=mass, hbar=hbar)
    if grid is None:
        kappa = math.sqrt(2.0 * mass * abs(state.energy)) / hbar
        r_turn = abs(z) / abs(state.energy)
        grid = Grid1D(0.0, r_turn + 28.0 / kappa, points)
    if bracket is None:
        bracket = _bracket([st.energy for st in states], n)
    return solve_radial(problem, grid, n, bracket, tol_rel=tol_rel)
