"""Independent verification of constructed (E, Psi, V) triples.

Two layers of checks exist beyond the polynomial identity of the root
engine: a pointwise residual of the original radial equation using analytic
log-derivatives, and a finite-difference eigenvalue oracle (symmetric
tridiagonal discretization, Sturm-sequence bisection on counts made by
guarded cyclic reduction) confirming that the constructed energy sits in
the spectrum of the constructed potential.

Verification needs only the FD eigenvalue nearest 2E.  It proves it from
the closed-form Psi sampled on the grid: Sturm counts isolate one
eigenvalue around the sample's Rayleigh quotient, one inverse-iteration
step sharpens the vector, and the Kato-Temple inequality encloses the
eigenvalue within 1e-12 in exact arithmetic; the float returned agrees
with the matrix's eigenvalue to the rounding of the matrix (8 eps 2/h^2),
as bisection's does.  The enclosure is a theorem about the FD matrix
whatever the vector is, so a wrong Psi cannot pass the check by it: the
proof then fails, and bisection refines the eigenvalues that can be
nearest 2E instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from numbers import Integral
from typing import Mapping

import numpy as np

from .bethe import BAE_TOL, IDENT_TOL
from .bethe import Variable, bae_residuals, compute_w_coefficients, verify_polynomial_identity
from .errors import GridInsufficient, InvalidParameter, MissingCoupling
from .families import _POWERS, Case, QESSolution, build_ode
from .wavefunction import (
    _support,
    count_nodes,
    eval_log_psi,
    eval_psi_log_derivatives,
    node_positions,
    norm_quadrature,
)


@dataclass(frozen=True)
class PotentialSpec:
    """Radial-equation coefficients: centrifugal ell, omega, and 2V terms.

    inverse_powers maps k to lambda_k where the equation bracket contains
    2 lambda_k / r^k; ell may be non-integral for families whose angular
    momentum is derived.
    """

    ell: float
    omega: float
    inverse_powers: Mapping[int, float]

    def __post_init__(self):
        object.__setattr__(
            self, "inverse_powers", {int(k): float(v) for k, v in self.inverse_powers.items()}
        )
        if self.inverse_powers:
            top = max(self.inverse_powers)
            if self.inverse_powers[top] <= 0:
                raise InvalidParameter("highest inverse-power coupling must be > 0")

    def _add_two_v(self, out: np.ndarray, r: np.ndarray) -> np.ndarray:
        """out + 2 V(r), each term added onto `out` in turn: bracket() and
        the FD diagonal built from it depend on this order for rounding."""
        for k, lam in self.inverse_powers.items():
            out = out + 2.0 * lam * r ** (-float(k))
        return out

    def bracket(self, r: np.ndarray) -> np.ndarray:
        """ell(ell+1)/r^2 + omega^2 r^2 + 2 V(r)."""
        base = self.ell * (self.ell + 1.0) / (r * r) + self.omega**2 * r * r
        return self._add_two_v(base, r)

    def two_v(self, r: np.ndarray) -> np.ndarray:
        return self._add_two_v(np.zeros_like(r), r)


def _coupling(solution: QESSolution, name: str) -> float:
    if name in solution.derived:
        return float(solution.derived[name])
    if name in solution.problem.free:
        return float(solution.problem.free[name])
    raise MissingCoupling(f"coupling {name!r} is neither free nor derived")


def assemble_potential(solution: QESSolution) -> PotentialSpec:
    """Full coefficient set of the radial equation for this solution: the
    couplings of the family's power table, ell derived where no r^-2
    coupling is, and omega (0 in the coulombic case)."""
    prob = solution.problem
    names = _POWERS[prob.family]
    powers = {k: _coupling(solution, name) for k, name in names.items()}
    ell = float(prob.ell) if 2 in names else _coupling(solution, "ell")
    omega = 0.0 if prob.case is Case.COULOMBIC else _coupling(solution, "omega")
    return PotentialSpec(ell, omega, powers)


def _default_residual_grid(solution: QESSolution) -> np.ndarray:
    roots = solution.roots.as_array()
    if len(roots):
        if solution.roots.variable is Variable.R:
            r_scale = float(np.max(np.abs(roots)))
        else:
            r_scale = math.sqrt(float(np.max(np.abs(roots))))
    else:
        r_scale = 1.0
    r_scale = max(1.0, r_scale)
    return np.geomspace(1e-2 * r_scale, 20.0 * r_scale, 200)


def schrodinger_residual(solution: QESSolution, grid: np.ndarray | None = None) -> float:
    """Max relative residual of the radial equation over the grid (by
    default 200 points from 1e-2 to 20 times the roots' radial scale).

    residual(r) = |-Psi''/Psi + bracket(r) - 2E| /
                  (|2E| + |ell(ell+1)|/r^2 + omega^2 r^2 + |2V(r)|)

    Grid points within 5e-3 (1 + node) of a node are excluded, because
    Psi''/Psi grows like 1/(r - node)^2 there and its evaluation noise
    (eps/delta^2) would swamp a 1e-9 residual bound long before the
    identity actually fails.
    """
    pot = assemble_potential(solution)
    r = _default_residual_grid(solution) if grid is None else np.asarray(grid, float)
    for node in node_positions(solution):
        r = r[np.abs(r - node) > 5e-3 * (1.0 + abs(node))]
    if len(r) == 0:
        raise InvalidParameter("residual grid is empty after node exclusion")
    _, psi2 = eval_psi_log_derivatives(solution, r)
    two_e = 2.0 * solution.energy
    num = np.abs(-psi2 + pot.bracket(r) - two_e)
    den = (
        abs(two_e)
        + np.abs(pot.ell * (pot.ell + 1.0)) / (r * r)
        + pot.omega**2 * r * r
        + np.abs(pot.two_v(r))
        + 1e-300
    )
    return float(np.max(num / den))


# ----------------------------------------------------------------------
# Finite-difference spectral oracle
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FdGrid:
    r_min: float
    r_max: float
    n_points: int

    def __post_init__(self):
        if not (0.0 < self.r_min < self.r_max < math.inf):
            raise InvalidParameter("need 0 < r_min < r_max < inf")
        if not isinstance(self.n_points, Integral):
            raise InvalidParameter(f"n_points must be an integer, got {self.n_points!r}")
        if self.n_points < 2000:
            raise InvalidParameter("n_points >= 2000 required")


def default_fd_grid(solution: QESSolution, n_points: int = 4000) -> FdGrid:
    """Grid bounds from the wavefunction support (amplitude below 1e-13
    of the peak at both ends, `wavefunction._support`, the interval the
    norm integrates on); raises GridInsufficient if no such bounds exist
    within the scan range."""
    support = _support(solution)
    if support is None:
        raise GridInsufficient("wavefunction support exceeds the scan range")
    r_min, r_max = np.exp(support[:2])
    return FdGrid(float(r_min), float(r_max), n_points)


def _ldl_counts(a: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Negative LDL^T pivots of the tridiagonal of each shift k: diagonal
    a[k], squared off-diagonal e[k].  A pivot below pivmin in size becomes
    -pivmin and counts as negative, with pivmin scaled by the largest e[k]
    as LAPACK dstebz does, so that e / pivot cannot overflow."""
    pivmin = np.finfo(float).tiny * np.max(e, axis=1, initial=1.0)
    counts = np.zeros(len(a), dtype=int)
    q = a[:, 0]
    for i in range(1, a.shape[1] + 1):
        q = np.where(np.abs(q) < pivmin, -pivmin, q)
        counts += q < 0.0
        if i < a.shape[1]:
            q = a[:, i] - e[:, i - 1] / q
    return counts


def _ldl_pass(diag: np.ndarray, offdiag_sq: float, shifts: np.ndarray) -> np.ndarray:
    """`_ldl_counts` of the matrices diag - shift with off-diagonal
    offdiag_sq: the same counts, stepping through the grid once for all
    shifts with one row of each at a time."""
    pivmin = np.finfo(float).tiny * max(offdiag_sq, 1.0)
    counts = np.zeros(len(shifts), dtype=int)
    q = diag[0] - shifts
    for i in range(1, len(diag) + 1):
        q = np.where(np.abs(q) < pivmin, -pivmin, q)
        counts += q < 0.0
        if i < len(diag):
            q = (diag[i] - shifts) - offdiag_sq / q
    return counts


# Shifts reduced together: a block's matrices hold at most this many entries,
# so a pass's memory does not grow with its number of shifts.
_BLOCK_ENTRIES = 1 << 14


def _block_counts(diag: np.ndarray, offdiag_sq: float, shifts: np.ndarray):
    """`_sturm_counts` for one block of shifts, and which shifts fail the
    guard at the first level: their counts are left at 0."""
    counts = np.zeros(len(shifts), dtype=int)
    unreduced = np.zeros(len(shifts), dtype=bool)
    rows = np.arange(len(shifts))  # the shifts still being reduced
    a = diag - shifts[:, None]
    e = np.broadcast_to(offdiag_sq, (len(shifts), len(diag) - 1))
    while a.shape[1] > 1:
        # Eliminate the odd rows.  They couple only to even rows, so their
        # pivots are their diagonal entries, and the even rows' Schur
        # complement is tridiagonal again (Haynsworth inertia additivity).
        p = a[:, 1::2]
        s = np.sqrt(e)
        reach = s[:, 0::2].copy()
        reach[:, : s.shape[1] // 2] += s[:, 1::2]
        # A shift keeps reducing only while every eliminated row is at least
        # half diagonally dominant; a smaller pivot would make the count
        # depend on the elimination order in floating point.  The test is
        # per shift, so a count does not depend on the shifts beside it.
        ok = np.all(2.0 * np.abs(p) >= reach, axis=1)
        if not ok.all():
            if a.shape[1] == len(diag):
                unreduced[rows[~ok]] = True
            else:
                counts[rows[~ok]] += _ldl_counts(a[~ok], e[~ok])
            rows, a, e, p = rows[ok], a[ok], e[ok], p[ok]
            if not len(rows):
                return counts, unreduced
        counts[rows] += np.count_nonzero(p < 0.0, axis=1)
        inv = 1.0 / p
        e_left, e_right = e[:, 0::2], e[:, 1::2]  # each odd row's couplings
        k = e_right.shape[1]
        a = a[:, 0::2].copy()
        a[:, : p.shape[1]] -= e_left * inv
        a[:, 1 : k + 1] -= e_right * inv[:, :k]
        e = e_left[:, :k] * e_right * (inv[:, :k] * inv[:, :k])
    counts[rows] += _ldl_counts(a, e)
    return counts, unreduced


def _sturm_counts(diag: np.ndarray, offdiag_sq: float, shifts: np.ndarray) -> np.ndarray:
    """Number of eigenvalues below each shift of the symmetric tridiagonal
    matrix with diagonal `diag` and squared off-diagonal `offdiag_sq`.

    Cyclic reduction (Buzbee, Golub & Nielson 1970) halves the matrix level
    by level and counts the negative pivots it eliminates; once a level
    fails the dominance guard, the LDL^T recurrence counts the rows left.
    The shifts that fail it at the first level (those in mid-spectrum,
    above about 1/h^2 + min V) are counted together, by one LDL^T pass
    over the grid.  Each count depends on its shift alone, not on the other
    shifts.
    """
    shifts = np.atleast_1d(np.asarray(shifts, dtype=float))
    counts = np.zeros(len(shifts), dtype=int)
    unreduced = np.zeros(len(shifts), dtype=bool)
    step = max(1, _BLOCK_ENTRIES // len(diag))
    # In strongly dominant rows the couplings shrink doubly exponentially
    # level by level and may underflow; the rows then decouple to rounding.
    with np.errstate(under="ignore"):
        for start in range(0, len(shifts), step):
            block = slice(start, start + step)
            counts[block], unreduced[block] = _block_counts(diag, offdiag_sq, shifts[block])
        if unreduced.any():
            counts[unreduced] = _ldl_pass(diag, offdiag_sq, shifts[unreduced])
    return counts


# Bisection levels resolved by one Sturm pass: a pass counts the
# 2**_LEVELS - 1 midpoints that bisection would compute over that many
# levels.  A pass's cost grows with its number of shifts, so few levels
# per pass do the least arithmetic.
_LEVELS = 2


def _bisection_tree(lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
    """Per interval, the midpoints bisection computes over its next
    _LEVELS levels, in heap order (node i has children 2i+1 and 2i+2).
    Each is 0.5 * (low + high) of its parent's ends, the float the
    one-level loop would form."""
    a, b = lows[:, None], highs[:, None]
    mids = []
    for _ in range(_LEVELS):
        m = 0.5 * (a + b)
        mids.append(m)
        # The next level's intervals: (a, m) and (m, b), left to right.
        a = np.stack([a, m], axis=-1).reshape(len(lows), -1)
        b = np.stack([m, b], axis=-1).reshape(len(lows), -1)
    return np.concatenate(mids, axis=1)


def _fd_points(grid: FdGrid) -> tuple[np.ndarray, float]:
    """The interior grid points and their spacing h."""
    r = np.linspace(grid.r_min, grid.r_max, grid.n_points + 2)[1:-1]
    return r, (grid.r_max - grid.r_min) / (grid.n_points + 1)


def _fd_problem(potential: PotentialSpec, energy_window: tuple, grid: FdGrid, tol: float):
    """The checked window ends, and the FD matrix: diagonal, squared off-diagonal."""
    lo, hi = float(energy_window[0]), float(energy_window[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
        raise InvalidParameter("energy window must be finite with positive width")
    if not (math.isfinite(tol) and tol > 0.0):
        raise InvalidParameter("tol must be a finite positive number")
    r, h = _fd_points(grid)
    return lo, hi, 2.0 / (h * h) + potential.bracket(r), 1.0 / h**4


def _bisect(diag: np.ndarray, off_sq: float, lo: float, hi: float, tol: float, target=None) -> np.ndarray:
    """The refined eigenvalues in (lo, hi], as the midpoints of their final
    intervals.  With a target, each pass first drops every ordinal whose
    interval lies wholly farther from it than another interval's far end:
    that ordinal's eigenvalue cannot be the nearest."""
    # The first pass also counts lo and hi.  Every ordinal starts on the
    # one tree of (lo, hi).
    tree = _bisection_tree(np.array([lo]), np.array([hi]))
    counts = _sturm_counts(diag, off_sq, np.concatenate([[lo, hi], tree[0]]))
    ordinals = np.arange(counts[0] + 1, counts[1] + 1)
    lows = np.full(len(ordinals), lo)
    highs = np.full(len(ordinals), hi)
    tree_counts = np.broadcast_to(counts[2:], (len(ordinals), len(counts) - 2))
    node = np.zeros_like(ordinals)  # each ordinal's node for its next step
    depth = 0
    while len(ordinals):
        mids = 0.5 * (lows + highs)
        # The one-level loop's stop test, and a stop once no interval can be
        # split in floating point: no later step would move a midpoint.
        if not (np.max(highs - lows) > tol and np.any((lows < mids) & (mids < highs))):
            break
        if depth == _LEVELS:
            if target is not None:
                near = np.maximum(np.maximum(lows - target, target - highs), 0.0)
                far = np.maximum(target - lows, highs - target)
                keep = near <= np.min(far)
                ordinals, lows, highs, mids = ordinals[keep], lows[keep], highs[keep], mids[keep]
            tree = _bisection_tree(lows, highs)
            tree_counts = _sturm_counts(diag, off_sq, tree.ravel()).reshape(tree.shape)
            node = np.zeros_like(ordinals)
            depth = 0
        below = tree_counts[np.arange(len(ordinals)), node] >= ordinals
        highs = np.where(below, mids, highs)
        lows = np.where(below, lows, mids)
        node = 2 * node + 2 - below  # child (low, mid) if below, else (mid, high)
        depth += 1
    return 0.5 * (lows + highs)


def fd_spectrum(
    potential: PotentialSpec,
    energy_window: tuple,
    grid: FdGrid,
    tol: float = 1e-12,
) -> list[float]:
    """All eigenvalues (as 2E) of the discretized operator in the window.

    Standard 3-point second difference on a uniform Dirichlet grid; the
    eigenvalues are isolated and refined by Sturm-sequence bisection until
    every interval is at most `tol` wide, or none can be split further in
    floating point.  One Sturm pass counts the midpoints of two bisection
    levels at once, by guarded cyclic reduction (`_sturm_counts`); the
    result is bit for bit that of one level per pass.  Returns an empty
    list when the window holds none.  Raises InvalidParameter for a window
    that is not finite with positive width, or a `tol` that is not a
    finite positive number.
    """
    lo, hi, diag, off_sq = _fd_problem(potential, energy_window, grid, tol)
    return [float(x) for x in _bisect(diag, off_sq, lo, hi, tol)]


# The width to which verification resolves the FD eigenvalue nearest 2E.
_NEAREST_TOL = 1e-12
# Sturm passes that look for an interval around the Rayleigh quotient
# holding one eigenvalue, its half-width quartered from pass to pass (from
# the window's half-width down to 1/64 of it).
_ISOLATION_PASSES = 4


def _apply(diag: np.ndarray, off: float, x: np.ndarray) -> np.ndarray:
    """T x for the tridiagonal T with diagonal `diag` and off-diagonal `off`."""
    y = diag * x
    y[1:] += off * x[:-1]
    y[:-1] += off * x[1:]
    return y


def _rayleigh(diag: np.ndarray, off: float, x: np.ndarray) -> tuple[float, float]:
    """The Rayleigh quotient rho of x, and ||T x - rho x|| / ||x||."""
    tx = _apply(diag, off, x)
    xx = float(x @ x)
    rho = float(x @ tx) / xx
    return rho, float(np.linalg.norm(tx - rho * x)) / math.sqrt(xx)


def _tridiagonal_solve(a: np.ndarray, c: np.ndarray, f: np.ndarray) -> np.ndarray:
    """x with T x = f, for the symmetric tridiagonal T with diagonal `a`
    and off-diagonal `c`.

    Cyclic reduction eliminates the odd rows level by level while each is
    at least half diagonally dominant (the guard of `_block_counts`), the
    LDL^T recurrence solves the rows left, and back-substitution recovers
    the eliminated rows.  A pivot below the smallest normal float in size
    becomes minus that; the result may then hold infinities.
    """
    levels = []
    while len(a) > 1:
        p, f_odd = a[1::2], f[1::2]
        c_left, c_right = c[0::2], c[1::2]  # each odd row's couplings
        reach = np.abs(c_left)
        reach[: len(c_right)] += np.abs(c_right)
        if not np.all(2.0 * np.abs(p) >= reach):
            break
        levels.append((p, c_left, c_right, f_odd))
        k = len(c_right)
        a, f = a[0::2].copy(), f[0::2].copy()
        a[: len(p)] -= c_left * c_left / p
        f[: len(p)] -= c_left * f_odd / p
        a[1 : k + 1] -= c_right * c_right / p[:k]
        f[1 : k + 1] -= c_right * f_odd[:k] / p[:k]
        c = -c_left[:k] * c_right / p[:k]
    pivmin = np.finfo(float).tiny
    pivots, y = [], []
    q, yi = 1.0, 0.0
    for ai, fi, ci in zip(a.tolist(), f.tolist(), [0.0] + c.tolist()):
        q, yi = ai - ci * ci / q, fi - ci * yi / q
        q = -pivmin if abs(q) < pivmin else q
        pivots.append(q)
        y.append(yi)
    x, after = [], 0.0
    for q, yi, ci in zip(pivots[::-1], y[::-1], (c.tolist() + [0.0])[::-1]):
        after = (yi - ci * after) / q
        x.append(after)
    x = np.array(x[::-1])
    for p, c_left, c_right, f_odd in reversed(levels):
        full = np.empty(len(x) + len(p))
        full[0::2] = x
        odd = f_odd - c_left * x[: len(p)]
        odd[: len(c_right)] -= c_right * x[1 : len(c_right) + 1]
        full[1::2] = odd / p
        x = full
    return x


def _kato_temple(rho: float, eps: float, alpha: float, beta: float) -> tuple[float, float]:
    """Bounds on the one eigenvalue in (alpha, beta) of a symmetric matrix,
    from a vector with Rayleigh quotient rho in (alpha, beta) and residual
    norm eps relative to its own (Kato-Temple)."""
    return rho - eps * eps / (beta - rho), rho + eps * eps / (rho - alpha)


def _isolating_half_width(diag: np.ndarray, off_sq: float, rho: float, half_width: float) -> float | None:
    """A g for which the Sturm counts at rho - g and rho + g show exactly
    one eigenvalue in [rho - g, rho + g): the first of half_width, a
    quarter of it and so on, one pass each; None when a pass finds none
    or `_ISOLATION_PASSES` passes find more than one."""
    g = half_width
    for _ in range(_ISOLATION_PASSES):
        below, above = _sturm_counts(diag, off_sq, np.array([rho - g, rho + g]))
        if above - below == 1:
            return g
        if above == below:
            return None
        g /= 4.0
    return None


def _enclosed_eigenvalue(
    diag: np.ndarray, off_sq: float, lo: float, hi: float, target: float, v: np.ndarray
) -> float | None:
    """The eigenvalue nearest `target`, proven from the trial vector v, or
    None when the proof fails.

    With rho the Rayleigh quotient of v, Sturm counts isolate one
    eigenvalue lam in (rho - g, rho + g).  One inverse-iteration step,
    x = (T - rho I)^-1 v, gives rho1 and eps1 = ||T x - rho1 x|| / ||x||,
    and the Kato-Temple inequality (Temple 1928, Kato 1949; Parlett, The
    Symmetric Eigenvalue Problem, ch. 10; `_kato_temple`) bounds
        rho1 - eps1^2 / (rho + g - rho1) <= lam <= rho1 + eps1^2 / (rho1 - rho + g).
    rho1 is returned when that enclosure lies inside (rho - g, rho + g)
    and the window (lo, hi], is at most `_NEAREST_TOL` wide, and lies
    nearer the target than rho +- g: every other eigenvalue lies outside
    that interval, so lam is the nearest."""
    off = -math.sqrt(off_sq)
    rho, _ = _rayleigh(diag, off, v)
    g = _isolating_half_width(diag, off_sq, rho, 0.5 * (hi - lo))
    if g is None:
        return None
    with np.errstate(all="ignore"):  # a non-finite solution is rejected below
        x = _tridiagonal_solve(diag - rho, np.full(len(diag) - 1, off), v)
        scale = np.max(np.abs(x))
    if not (math.isfinite(scale) and scale > 0.0):
        return None
    rho1, eps1 = _rayleigh(diag, off, x / scale)
    alpha, beta = rho - g, rho + g
    low, high = _kato_temple(rho1, eps1, alpha, beta)
    farthest = max(abs(low - target), abs(high - target))
    isolated = alpha < low and high < beta and lo < low and high <= hi
    nearest = farthest < min(target - alpha, beta - target)
    return rho1 if isolated and nearest and high - low <= _NEAREST_TOL else None


def _nearest_fd_eigenvalue(
    potential: PotentialSpec, energy_window: tuple, grid: FdGrid, target: float, solution: QESSolution
) -> float | None:
    """The eigenvalue of `fd_spectrum(potential, energy_window, grid)`
    nearest `target`, to the rounding of the matrix, or None when the
    window holds none.

    The trial vector is `solution`'s closed-form Psi sampled on the grid.
    When `_enclosed_eigenvalue` proves the eigenvalue from it, that is the
    result: an inverse-iteration Rayleigh quotient within 1e-12 of the
    eigenvalue in exact arithmetic, where bisection gives the midpoint of
    an interval of that width; in floating point each agrees with the
    eigenvalue to the rounding of the matrix.  Otherwise bisection refines only the ordinals that can
    hold it.  Those dropped lie wholly farther from the target, so its
    distance is the same float as the minimum over the full list, as long
    as both stop at the same depth: the stop test reads only the kept
    intervals' widths, which at one depth differ from the dropped ones' by
    rounding alone."""
    lo, hi, diag, off_sq = _fd_problem(potential, energy_window, grid, _NEAREST_TOL)
    log_mag, sign = eval_log_psi(solution, _fd_points(grid)[0])
    peak = np.max(log_mag)
    if math.isfinite(peak):
        found = _enclosed_eigenvalue(diag, off_sq, lo, hi, target, sign * np.exp(log_mag - peak))
        if found is not None:
            return found
    found = _bisect(diag, off_sq, lo, hi, _NEAREST_TOL, target)
    return float(found[np.argmin(np.abs(found - target))]) if len(found) else None


# ----------------------------------------------------------------------
# Verification report
# ----------------------------------------------------------------------


class VerifyLevel(str, Enum):
    FAST = "fast"
    FULL = "full"


@dataclass
class CheckResult:
    name: str
    value: float
    tolerance: float
    passed: bool


@dataclass
class VerificationReport:
    checks: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, value: float, tolerance: float, passed=None):
        ok = bool(value <= tolerance) if passed is None else bool(passed)
        self.checks.append(CheckResult(name, float(value), float(tolerance), ok))

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            out.append(f"{status:4s}  {c.name:24s} {c.value:.6e}  (tol {c.tolerance:g})")
        out.extend(f"note  {n}" for n in self.notes)
        return out


def verify_solution(solution: QESSolution, level: VerifyLevel = VerifyLevel.FAST) -> VerificationReport:
    """Run the verification stack against a solution's stored fields.

    FAST checks the root-system residuals (at most BAE_TOL), the polynomial
    identity (at most IDENT_TOL) and the radial-equation residual (at most
    1e-9).  FULL additionally computes the norm, counts nodes and confirms
    the energy against the finite-difference spectrum at two resolutions.
    """
    level = VerifyLevel(level)
    report = VerificationReport()
    ode, _ = build_ode(
        solution.problem,
        solution.derived.get("omega") if solution.problem.match_ell else None,
    )
    if solution.roots.n:
        bae = float(np.max(np.abs(bae_residuals(ode, solution.roots))))
    else:
        bae = 0.0
    report.add("bae_residual", bae, BAE_TOL)
    w = compute_w_coefficients(ode, solution.roots)
    report.add("identity_residual", verify_polynomial_identity(ode.with_w(w), solution.roots), IDENT_TOL)
    report.add("schrodinger_residual", schrodinger_residual(solution), 1e-9)
    if level is VerifyLevel.FAST:
        return report

    norm = norm_quadrature(solution)
    report.add("norm_finite", norm, math.inf, passed=math.isfinite(norm) and norm > 0)
    nodes = count_nodes(solution)
    report.add("node_count", float(nodes), math.inf, passed=True)
    if nodes != solution.problem.n:
        report.notes.append(
            f"energy ordering: branch labeled n={solution.problem.n} has "
            f"{nodes} node(s) on r > 0"
        )
    two_e = 2.0 * solution.energy
    scale = max(1.0, abs(two_e))
    try:
        coarse = default_fd_grid(solution, 2400)
        fine = FdGrid(coarse.r_min, coarse.r_max, 2 * 2400 + 1)
        delta = max(0.75, 0.02 * abs(two_e))
        window = (two_e - delta, two_e + delta)
        potential = assemble_potential(solution)
        ev_c = _nearest_fd_eigenvalue(potential, window, coarse, two_e, solution)
        ev_f = _nearest_fd_eigenvalue(potential, window, fine, two_e, solution)
        if ev_c is None or ev_f is None:
            report.add("fd_eigenvalue_error", math.inf, 5e-3 * scale, passed=False)
            report.notes.append("fd oracle: window contained no eigenvalue")
        else:
            err_c = abs(ev_c - two_e)
            err_f = abs(ev_f - two_e)
            improving = err_f <= 0.6 * err_c + 1e-9 * scale
            report.add(
                "fd_eigenvalue_error",
                err_f,
                5e-3 * scale,
                passed=(err_f <= 5e-3 * scale) and improving,
            )
            if err_f > 1e-9 * scale:
                order = math.log2(err_c / err_f) if err_f > 0 else float("inf")
                report.notes.append(f"fd oracle convergence order ~ {order:.2f}")
    except GridInsufficient as exc:
        report.add("fd_eigenvalue_error", math.inf, 5e-3 * scale, passed=False)
        report.notes.append(f"fd oracle skipped: {exc}")
    return report
