"""Independent Numerov shooting eigensolver.

This module is the numerical check on every closed-form eigenvalue in the
package.  It integrates y'' = (2m/hbar^2)(V - E) y with the three-point
Numerov scheme (fourth order in the spacing).  One sweep kernel runs the
recurrence inward from two seed values at either end of the mesh and counts
sign changes.  Eigenvalues are bracketed by the node count of the forward
solution and refined by bisecting the log-derivative mismatch of the two
one-sided solutions at the outermost classical turning point; the matched
eigenfunction's node count is the sum of their counts up to that point.
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

_RESCALE_LIMIT = 1e250
_RESCALE_FACTOR = 1e-250
_DEFAULT_TOL_REL = 1e-10
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
        # frobenius = (power, delta, ztilde) switches the left seed from the
        # generic barrier form to the regular r^(1/2+S) series at the origin.
        self.frobenius = frobenius

    def _coeffs(self, energy: float):
        c = self._base + self._w * energy
        return c.tolist(), (12.0 - 10.0 * c).tolist()

    def _bounds(self, energy: float):
        """First and last mesh index the recurrence may visit at this energy.

        Assumes a single-well effective potential, so the representable set
        {i : h^2*f_i/12 <= cap} is one contiguous block.
        """
        cutoff = energy + _BARRIER_CAP / self._w
        idx = np.nonzero(self.v <= cutoff)[0]
        if idx.size < 8:
            raise BracketError(
                "the mesh cannot represent this energy: the barrier is too stiff "
                "almost everywhere (reduce the spacing or the box)"
            )
        return int(idx[0]), int(idx[-1])

    def _seed_left(self, energy: float, i0: int):
        if self.frobenius is None:
            f0 = self.kfac * (float(self.v[i0]) - energy)
            return 1e-60, 1e-60 * math.exp(min(math.sqrt(max(f0, 0.0)) * self.h, 30.0))
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
            return r ** power * (1.0 + r * (a[1] + r * (a[2] + r * (a[3] + r * a[4]))))

        return series(float(self.x[i0])), series(float(self.x[i0 + 1]))

    def match_index(self, energy: float, i0: int, i1: int) -> int:
        allowed = np.nonzero(self.v <= energy)[0]
        if allowed.size == 0:
            raise BracketError(f"no classically allowed region on the grid at E={energy}")
        return int(min(max(int(allowed[-1]), i0 + 2), i1 - 2))

    def _left(self, energy: float, i0: int, last: int, c, d, cap: int | None = None):
        """Sweep from the seeds at i0, i0 + 1 up to y[last]."""
        yp, yc = self._seed_left(energy, i0)
        return _sweep(yp, yc, c[i0:last - 1], d[i0 + 1:last], c[i0 + 2:last + 1], cap)

    def _right(self, energy: float, i1: int, last: int, c, d):
        """Sweep from the seeds at i1, i1 - 1 down to y[last] (last >= 1)."""
        f_end = self.kfac * (float(self.v[i1]) - energy)
        yp, yc = 0.0, 1e-60
        if f_end > 0.0:
            yp, yc = 1e-60, 1e-60 * math.exp(min(math.sqrt(f_end) * self.h, 30.0))
        return _sweep(yp, yc, c[i1:last + 1:-1], d[i1 - 1:last:-1], c[i1 - 2:last - 1:-1])

    def forward_nodes(self, energy: float, cap: int | None = None) -> int:
        """Sign changes of the forward solution: the count of mesh eigenvalues below E."""
        i0, i1 = self._bounds(energy)
        c, d = self._coeffs(energy)
        return self._left(energy, i0, i1, c, d, cap)[0]

    def mismatch(self, energy: float) -> float:
        """Scaled log-derivative difference of the two one-sided solutions.

        Strictly decreasing in E between its poles; zero exactly at the mesh
        eigenvalue, independently of the finite-difference derivative used.
        """
        i0, i1 = self._bounds(energy)
        ic = self.match_index(energy, i0, i1)
        c, d = self._coeffs(energy)
        _, lm1, l0, lp1 = self._left(energy, i0, ic + 1, c, d)
        _, rp1, r0, rm1 = self._right(energy, i1, ic - 1, c, d)
        if l0 == 0.0:
            l0 = 1e-300
        if r0 == 0.0:
            r0 = 1e-300
        return (lp1 - lm1) / l0 - (rp1 - rm1) / r0

    def assembled_nodes(self, energy: float) -> int:
        """Interior sign changes of the matched two-sided eigenfunction.

        Matching scales the right solution to agree with the left one at ic,
        so the junction adds no sign change: the count is the left count up
        to ic plus the right count down to ic.
        """
        i0, i1 = self._bounds(energy)
        ic = self.match_index(energy, i0, i1)
        c, d = self._coeffs(energy)
        return self._left(energy, i0, ic, c, d)[0] + self._right(energy, i1, ic, c, d)[0]


def _sweep(yp: float, yc: float, c_back, d_here, c_ahead, cap: int | None = None):
    """Numerov recurrence from the seeds (yp, yc) over (c behind, d here, c ahead) triples.

    Returns the sign changes of the new values (stopping past ``cap``) and the
    last three values, oldest first; callers use only signs and ratios, so all
    three are rescaled together when the solution nears overflow.
    """
    nodes = 0
    ym = yp
    for cb, dh, ca in zip(c_back, d_here, c_ahead):
        yn = (dh * yc - cb * yp) / ca
        if yn * yc < 0.0:
            nodes += 1
            if cap is not None and nodes > cap:
                break
        if yn > _RESCALE_LIMIT or yn < -_RESCALE_LIMIT:
            yn *= _RESCALE_FACTOR
            yc *= _RESCALE_FACTOR
            yp *= _RESCALE_FACTOR
        ym, yp, yc = yp, yc, yn
    return nodes, ym, yp, yc


def _locate(prob: _Shooting, target: int, bracket, tol_rel: float) -> float:
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
    iters = 2

    def bisect(lo, hi, rel, above, what):
        """Halve [lo, hi] to rel*max(1, |lo|, |hi|); above(E) means the eigenvalue is below E."""
        nonlocal iters
        while hi - lo > rel * max(1.0, abs(lo), abs(hi)):
            if iters >= _MAX_ITER:
                raise ConvergenceError(f"{what} exhausted {_MAX_ITER} iterations")
            mid = 0.5 * (lo + hi)
            iters += 1
            if above(mid):
                hi = mid
            else:
                lo = mid
        return lo, hi

    def nodes_above(energy):
        return prob.forward_nodes(energy, cap=target + 1) > target

    # Phase 1: bisect on the node count until the window is narrow enough for
    # the mismatch function to be pole-free.
    lo, hi = bisect(lo, hi, max(1e-3, 64.0 * tol_rel), nodes_above, "node bisection")
    window = (lo, hi)
    width = hi - lo

    # Phase 2: straddle the mismatch zero, then bisect its sign.  The
    # matching condition and the node flip locate the same mesh eigenvalue to
    # within the boundary-truncation error, so if straddling fails we fall
    # back to pure node bisection.
    pure_nodes = False
    f_lo = prob.mismatch(lo)
    f_hi = prob.mismatch(hi)
    iters += 2
    shifts = 0
    while not pure_nodes and (f_lo <= 0.0 or not math.isfinite(f_lo)):
        hi, f_hi = lo, f_lo
        lo -= width
        shifts += 1
        iters += 2
        if shifts > 40 or prob.forward_nodes(lo, cap=target + 1) != target:
            pure_nodes = True
            break
        f_lo = prob.mismatch(lo)
    while not pure_nodes and (f_hi >= 0.0 or not math.isfinite(f_hi)):
        lo, f_lo = hi, f_hi
        hi += width
        shifts += 1
        iters += 2
        if shifts > 40 or prob.forward_nodes(hi, cap=target + 2) != target + 1:
            pure_nodes = True
            break
        f_hi = prob.mismatch(hi)

    if pure_nodes:
        lo, hi = bisect(*window, tol_rel, nodes_above, "node bisection")
    else:
        lo, hi = bisect(lo, hi, tol_rel, lambda e: not prob.mismatch(e) > 0.0,
                        "mismatch bisection")
    return 0.5 * (lo + hi)


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
    e_fine = _locate(fine, target, bracket, tol_rel)
    nodes = fine.assembled_nodes(e_fine)

    coarse = build(grid.halved())
    pad = max(1e-3 * max(1.0, abs(e_fine)), 1e4 * tol_rel * max(1.0, abs(e_fine)))
    try:
        e_coarse = _locate(coarse, target, (e_fine - pad, e_fine + pad), tol_rel)
    except BracketError:
        e_coarse = _locate(coarse, target, bracket, tol_rel)
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
    """Rough mesh from the turning radius at the window top; pass an explicit
    grid for precision work."""
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
    r_max = min(max(2.0 * r_turn, r_turn + 30.0 / max(kappa, 1e-3)), 300.0)
    return Grid1D(0.0, r_max, 15001)


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
