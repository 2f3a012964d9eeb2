"""Independent verification of constructed (E, Psi, V) triples.

Two layers of checks exist beyond the polynomial identity of the root
engine: a pointwise residual of the original radial equation using analytic
log-derivatives in real arithmetic, one array pass per solve
(`_residual_rows`), and a finite-difference eigenvalue oracle (Sturm
bisection on counts made by guarded cyclic reduction) confirming that the
constructed energy sits in the spectrum of the constructed potential.

Verification proves the FD eigenvalue nearest 2E from the closed-form Psi
sampled on the grid: one inverse-iteration step sharpens the sample, its
Rayleigh quotients and residual size a half-width g around the sample's
quotient rho, one pass of two Sturm counts shows that rho +- g holds one
eigenvalue, and Kato-Temple encloses it within 1e-12 in exact arithmetic
(to the rounding of the matrix, 8 eps 2/h^2, in floats, as bisection
does).  The enclosure is a theorem about the FD matrix whatever the vector
is, so a wrong Psi cannot pass by it: the proof fails, and bisection
refines every eigenvalue in the window instead.
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
from .errors import DenominatorBlowup, GridInsufficient, InvalidParameter, MissingCoupling
from .errors import NonRealCoefficients, NotIntegrable
from .families import _POWERS, Case, QESSolution, _derives_ell, build_ode
from .wavefunction import (
    _column,
    _log_deriv_arrays,
    _norm,
    _positive,
    _root_parts,
    _supports,
    count_nodes,
    eval_log_psi,
    eval_psi_log_derivatives,  # not called here: perfbench/tracing.py times it under this name
    node_positions,
    norm_quadrature,  # not called here: perfbench/tracing.py times it under this name
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

    def bracket(self, r: np.ndarray) -> np.ndarray:
        """ell(ell+1)/r^2 + omega^2 r^2 + 2 V(r)."""
        return _bracket(self.ell, self.omega**2, self.inverse_powers, r)[0]


def _bracket(ell, omega_sq, couplings: Mapping, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bracket ell(ell+1)/r^2 + omega^2 r^2 + 2 V(r), and 2 V(r), on r;
    ell, omega^2 and each lambda_k of `couplings` are floats or columns, one
    value per row of r.  Each 2 lambda_k r^-k is added onto both in turn:
    the FD diagonal built from the bracket depends on this order for rounding."""
    bracket = ell * (ell + 1.0) / (r * r) + omega_sq * r * r
    two_v = np.zeros_like(r)
    for k, lam in couplings.items():
        term = 2.0 * lam * r ** (-float(k))
        bracket, two_v = bracket + term, two_v + term
    return bracket, two_v


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
    ell = _coupling(solution, "ell") if _derives_ell(prob.family) else float(prob.ell)
    omega = 0.0 if prob.case is Case.COULOMBIC else _coupling(solution, "omega")
    return PotentialSpec(ell, omega, powers)


_UNIT_GRID = np.geomspace(1e-2, 20.0, 200)  # the default residual grid at unit radial scale


def _default_residual_grid(solutions: list[QESSolution]) -> np.ndarray:
    """A row per solution (of one solve, so of one variable): 200 points from
    1e-2 to 20 times the radial scale of its roots, at least 1."""
    r_scale = np.max(_root_parts(solutions)[2], axis=0, initial=1.0)  # a column
    return (r_scale if solutions[0].roots.variable is Variable.R else np.sqrt(r_scale)) * _UNIT_GRID


def _residual_rows(solutions: list[QESSolution], grid: np.ndarray | None = None) -> list:
    """`schrodinger_residual` of each solution as the rows of one array pass,
    for the branches of one solve (see `wavefunction._log_deriv_arrays`); a
    row that node exclusion empties gets an InvalidParameter, not a float."""
    pots = [assemble_potential(s) for s in solutions]
    if grid is None:
        r = _default_residual_grid(solutions)
    else:
        r = np.tile(_positive(grid), (len(solutions), 1))
    nodes = [node_positions(s) for s in solutions]
    width = max(map(len, nodes))  # each row's nodes, padded with NaN, node by node
    nodes = np.array([row + [math.nan] * (width - len(row)) for row in nodes]).reshape(len(r), width).T[:, :, None]
    keep = ~np.any(np.abs(r - nodes) <= 5e-3 * (1.0 + np.abs(nodes)), axis=0)
    _, psi2 = _log_deriv_arrays(solutions, r, keep)
    # omega**2 by Python's float power, as PotentialSpec.bracket takes it:
    # numpy's square of a column can differ from it in the last bit.
    ell, omega_sq = _column([p.ell for p in pots]), _column([p.omega**2 for p in pots])
    couplings = {k: _column([p.inverse_powers[k] for p in pots]) for k in pots[0].inverse_powers}
    two_e = _column([2.0 * s.energy for s in solutions])
    bracket, two_v = _bracket(ell, omega_sq, couplings, r)
    with np.errstate(invalid="ignore"):  # the excluded points' values are dropped
        num = np.abs(-psi2 + bracket - two_e)
        den = np.abs(two_e) + np.abs(ell * (ell + 1.0)) / (r * r) + omega_sq * r * r + np.abs(two_v) + 1e-300
        largest = np.where(keep, num / den, -np.inf).max(axis=1, initial=-np.inf)
    empty = "residual grid is empty after node exclusion"
    return [float(x) if kept else InvalidParameter(empty) for x, kept in zip(largest, keep.any(axis=1))]


def schrodinger_residual(solution: QESSolution, grid: np.ndarray | None = None) -> float:
    """Max relative residual of the radial equation over the grid (by
    default 200 points from 1e-2 to 20 times the roots' radial scale).

    residual(r) = |-Psi''/Psi + bracket(r) - 2E| /
                  (|2E| + |ell(ell+1)|/r^2 + omega^2 r^2 + |2V(r)|)

    Grid points within 5e-3 (1 + node) of a node are excluded, because
    Psi''/Psi grows like 1/(r - node)^2 there and its evaluation noise
    (eps/delta^2) would swamp a 1e-9 residual bound long before the
    identity actually fails.  The one-row case of `_residual_rows`, which
    `solve_family` runs on all the branches of a solve at once.
    """
    (residual,) = _residual_rows([solution], grid)
    if isinstance(residual, InvalidParameter):
        raise residual
    return residual


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
    of the peak at both ends, `wavefunction._supports`): the interval the
    norm integrates on.  Raises GridInsufficient if no such bounds exist
    within the scan range."""
    support = _supports([solution])[0]
    if support is None:
        raise GridInsufficient("wavefunction support exceeds the scan range")
    return FdGrid(*support[:2], n_points)


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


def _bisect(diag: np.ndarray, off_sq: float, lo: float, hi: float, tol: float) -> tuple[int, np.ndarray]:
    """The count of eigenvalues below lo, and the refined eigenvalues in
    (lo, hi], as the midpoints of their final intervals: Sturm bisection
    (Barth, Martin & Wilkinson 1967), one level per step, with each
    distinct midpoint of a step counted once by `_negative_pivots`."""
    c = np.full(len(diag) - 1, -math.sqrt(off_sq))
    count_lo, count_hi = (_negative_pivots(diag - x, c) for x in (lo, hi))
    ordinals = np.arange(count_lo + 1, count_hi + 1)
    lows, highs = np.full(len(ordinals), lo), np.full(len(ordinals), hi)
    while len(ordinals):
        mids = 0.5 * (lows + highs)
        # The stop at tol, and a stop once no interval can be split in
        # floating point: no later step would move a midpoint.
        if not (np.max(highs - lows) > tol and np.any((lows < mids) & (mids < highs))):
            break
        shifts, which = np.unique(mids, return_inverse=True)
        counts = np.array([_negative_pivots(diag - s, c) for s in shifts.tolist()])
        below = counts[which] >= ordinals
        highs = np.where(below, mids, highs)
        lows = np.where(below, lows, mids)
    return count_lo, 0.5 * (lows + highs)


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
    floating point (`_bisect`).  Each Sturm count is the number of negative
    pivots of the guarded elimination `_factor`, which the verification
    proof and its inverse-iteration solve share.  Returns an empty list
    when the window holds none.  Raises InvalidParameter for a window that
    is not finite with positive width, or a `tol` that is not a finite
    positive number.
    """
    lo, hi, diag, off_sq = _fd_problem(potential, energy_window, grid, tol)
    return [float(x) for x in _bisect(diag, off_sq, lo, hi, tol)[1]]


# The width to which verification resolves the FD eigenvalue nearest 2E.
_NEAREST_TOL = 1e-12


def _rayleigh(diag: np.ndarray, off: float, x: np.ndarray) -> tuple[float, float]:
    """The Rayleigh quotient rho of x, and ||T x - rho x|| / ||x||, for the
    tridiagonal T with diagonal `diag` and off-diagonal `off`."""
    tx = diag * x
    tx[1:] += off * x[:-1]
    tx[:-1] += off * x[1:]
    xx = float(x @ x)
    rho = float(x @ tx) / xx
    return rho, float(np.linalg.norm(tx - rho * x)) / math.sqrt(xx)


# In strongly dominant rows the couplings of cyclic reduction shrink doubly
# exponentially level by level and may underflow; the rows then decouple to
# rounding.
@np.errstate(under="ignore")
def _factor(a: np.ndarray, c: np.ndarray) -> tuple[list, list, list]:
    """The pivots of the symmetric tridiagonal with diagonal `a` and
    off-diagonal `c`: cyclic-reduction levels (Buzbee, Golub & Nielson
    1970), each (pivots, left and right couplings), while every odd row is
    at least half diagonally dominant (a smaller pivot would make the
    counts depend on the elimination order in floating point), then the
    LDL^T pivots of the rows left and their off-diagonal.  An LDL^T pivot
    below the smallest normal float in size becomes minus that (Kahan's
    pivmin, 1966); the recurrence runs on Python floats, so the next pivot
    may be infinite but nothing raises."""
    levels = []
    while len(a) > 1:
        p, c_left, c_right = a[1::2], c[0::2], c[1::2]  # odd rows' pivots, couplings
        reach = np.abs(c_left)
        reach[: len(c_right)] += np.abs(c_right)
        if not np.all(2.0 * np.abs(p) >= reach):
            break
        levels.append((p, c_left, c_right))
        k = len(c_right)
        a = a[0::2].copy()
        a[: len(p)] -= c_left * c_left / p
        a[1 : k + 1] -= c_right * c_right / p[:k]
        c = -c_left[:k] * c_right / p[:k]
    pivmin = float(np.finfo(float).tiny)
    pivots, q = [], 1.0
    for ai, ci in zip(a.tolist(), [0.0] + c.tolist()):
        q = ai - ci * ci / q
        q = -pivmin if abs(q) < pivmin else q
        pivots.append(q)
    return levels, pivots, c.tolist()


def _negative_pivots(a: np.ndarray, c: np.ndarray) -> int:
    """The eigenvalues below 0 of the tridiagonal `_factor` reduces: its
    negative pivots (Sylvester's law of inertia).  For diag - s, the Sturm
    count at s."""
    levels, pivots, _ = _factor(a, c)
    return sum(int(np.count_nonzero(p < 0.0)) for p, _, _ in levels) + sum(q < 0.0 for q in pivots)


def _tridiagonal_solve(a: np.ndarray, c: np.ndarray, f: np.ndarray) -> np.ndarray:
    """x with T x = f, for the tridiagonal T of `_factor`: f is reduced level
    by level, the rows left are solved by their LDL^T pivots, and back
    substitution recovers the eliminated rows; x may hold infinities."""
    levels, pivots, c = _factor(a, c)
    eliminated = []  # each level's odd rows of f
    for p, c_left, c_right in levels:
        f_odd, k = f[1::2], len(c_right)
        eliminated.append(f_odd)
        f = f[0::2].copy()
        f[: len(p)] -= c_left * f_odd / p
        f[1 : k + 1] -= c_right * f_odd[:k] / p[:k]
    y, yi = [], 0.0
    for fi, ci, q in zip(f.tolist(), [0.0] + c, [1.0] + pivots):
        yi = fi - ci * yi / q
        y.append(yi)
    x, after = [], 0.0
    for q, yi, ci in zip(pivots[::-1], y[::-1], (c + [0.0])[::-1]):
        after = (yi - ci * after) / q
        x.append(after)
    x = np.array(x[::-1])
    for (p, c_left, c_right), f_odd in zip(reversed(levels), reversed(eliminated)):
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


def _enclosed_eigenvalue(
    diag: np.ndarray, off_sq: float, lo: float, hi: float, target: float, v: np.ndarray
) -> tuple[float, int] | None:
    """The eigenvalue nearest `target`, proven from the trial vector v, and
    the count of eigenvalues below it, or None when the proof fails.

    With rho the Rayleigh quotient of v, one inverse-iteration step,
    x = (T - rho I)^-1 v, gives rho1 and eps1 = ||T x - rho1 x|| / ||x||.
    They size the half-width, with no search:
        g = min(half the window, max(4 |rho - target|, 4 |rho1 - rho|, 2 eps1, 4 eps1^2 / _NEAREST_TOL)),
    so rho1 and the target lie in the middle half of (rho - g, rho + g),
    the eigenvalue within eps1 of rho1 lies in it, and (unless the window
    caps g) the enclosure below is at most 2/3 `_NEAREST_TOL` wide.  When
    one pass of two Sturm counts (`_negative_pivots`) shows exactly one
    eigenvalue lam in it, Kato-Temple (Temple 1928, Kato 1949; Parlett,
    The Symmetric Eigenvalue Problem, ch. 10) bounds
        rho1 - eps1^2 / (rho + g - rho1) <= lam <= rho1 + eps1^2 / (rho1 - rho + g).
    rho1 is returned when that enclosure lies inside (rho - g, rho + g)
    and the window (lo, hi], is at most `_NEAREST_TOL` wide, and lies
    nearer the target than rho +- g, so lam is the nearest; the count at
    rho - g is the count below lam."""
    off = -math.sqrt(off_sq)
    c = np.full(len(diag) - 1, off)
    rho, _ = _rayleigh(diag, off, v)
    with np.errstate(all="ignore"):  # a non-finite solution is rejected below
        x = _tridiagonal_solve(diag - rho, c, v)
        scale = np.max(np.abs(x))
    if not (math.isfinite(scale) and scale > 0.0):
        return None
    rho1, eps1 = _rayleigh(diag, off, x / scale)
    sized = (4.0 * abs(rho - target), 4.0 * abs(rho1 - rho), 2.0 * eps1, 4.0 * eps1 * eps1 / _NEAREST_TOL)
    g = min(0.5 * (hi - lo), max(sized))
    alpha, beta = rho - g, rho + g
    if not alpha < rho1 < beta:  # so g > 0, and Kato-Temple divides by neither 0
        return None
    low, high = _kato_temple(rho1, eps1, alpha, beta)
    isolated = alpha < low and high < beta and lo < low and high <= hi
    nearest = max(abs(low - target), abs(high - target)) < min(target - alpha, beta - target)
    if not (isolated and nearest and high - low <= _NEAREST_TOL):
        return None
    below, above = (_negative_pivots(diag - shift, c) for shift in (alpha, beta))
    return (rho1, below) if above - below == 1 else None


def _nearest_fd_eigenvalue(
    diag: np.ndarray, off_sq: float, window: tuple, target: float, log_mag: np.ndarray, sign: np.ndarray
) -> tuple[float, int] | None:
    """The eigenvalue in the window (lo, hi] nearest `target` of the FD
    matrix (diagonal, squared off-diagonal), to the rounding of the matrix,
    and the count of eigenvalues below it; None when the window holds none.
    `_enclosed_eigenvalue` proves it from Psi sampled on the grid (log|Psi|
    and sign, scaled by the peak): rho1 within 1e-12 of it in exact
    arithmetic, as bisection's midpoint is.  Otherwise bisection refines
    every eigenvalue in the window."""
    lo, hi = window
    peak = np.max(log_mag)
    if math.isfinite(peak):
        found = _enclosed_eigenvalue(diag, off_sq, lo, hi, target, sign * np.exp(log_mag - peak))
        if found is not None:
            return found
    below, found = _bisect(diag, off_sq, lo, hi, _NEAREST_TOL)
    if not len(found):
        return None
    i = int(np.argmin(np.abs(found - target)))
    return float(found[i]), below + i


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
        if math.isnan(value):
            self.notes.append(f"{name}: evaluates to NaN")
            value, passed = math.inf, False
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
    1e-9).  Roots that are no valid root set fail with the value inf and a
    note: too close to each other or to a zero of P the first, with power
    sums that are not real the second; so does a value that is NaN (roots
    so far out that P and Q, or the closing formulas, overflow).
    FULL adds, from one support scan, norm_finite (a finite positive
    norm), fd_eigenvalue_error (2E against the nearest eigenvalue of the
    finite-difference spectrum at two resolutions: one grid of
    2 * 2400 + 1 points, and its odd points) and node_count (|k - nodes|,
    at most 0, for k fine-grid eigenvalues below that one and the nodes of
    Psi on r > 0); a support beyond the scan fails all three.
    """
    level = VerifyLevel(level)
    report = VerificationReport()
    ode, _ = build_ode(
        solution.problem,
        solution.derived.get("omega") if solution.problem.match_ell else None,
    )
    try:
        bae = float(np.max(np.abs(bae_residuals(ode, solution.roots)))) if solution.roots.n else 0.0
    except DenominatorBlowup as exc:  # two roots, or a root and a zero of P, too close
        bae = math.inf
        report.notes.append(f"bae_residual: {exc}")
    report.add("bae_residual", bae, BAE_TOL)
    try:
        identity = verify_polynomial_identity(ode, solution.roots, compute_w_coefficients(ode, solution.roots))
    except NonRealCoefficients as exc:
        identity = math.inf
        report.notes.append(f"identity_residual: {exc}")
    report.add("identity_residual", identity, IDENT_TOL)
    report.add("schrodinger_residual", schrodinger_residual(solution), 1e-9)
    if level is VerifyLevel.FAST:
        return report

    support = _supports([solution])[0]  # one scan for the norm and the FD grid
    try:
        norm = _norm(solution, support)
    except NotIntegrable as exc:  # no support, or a norm beyond the largest float
        norm = math.inf
        report.notes.append(f"norm: {exc}")
    report.add("norm_finite", norm, math.inf, passed=math.isfinite(norm) and norm > 0)
    two_e = 2.0 * solution.energy
    scale = max(1.0, abs(two_e))
    delta = max(0.75, 0.02 * abs(two_e))
    window = (two_e - delta, two_e + delta)
    coarse = fine = None  # each (eigenvalue, count below it) when found
    if support is not None:
        # One grid of 2 * 2400 + 1 points: its odd points are those of the
        # 2400-point grid on the same support, bit for bit, and 2h is that
        # grid's h.  So both resolutions read one bracket and one Psi.
        r, h = _fd_points(FdGrid(*support[:2], 2 * 2400 + 1))
        bracket = assemble_potential(solution).bracket(r)
        log_mag, sign = eval_log_psi(solution, r)
        coarse, fine = (
            _nearest_fd_eigenvalue(2.0 / (hk * hk) + bracket[at], 1.0 / hk**4, window, two_e, log_mag[at], sign[at])
            for at, hk in ((slice(1, None, 2), 2.0 * h), (slice(None), h))
        )
    nodes = count_nodes(solution)
    report.add("node_count", abs(fine[1] - nodes) if fine else math.inf, 0.0)
    if nodes != solution.problem.n:
        report.notes.append(f"energy ordering: branch labeled n={solution.problem.n} has {nodes} node(s) on r > 0")
    if coarse is None or fine is None:
        report.add("fd_eigenvalue_error", math.inf, 5e-3 * scale, passed=False)
        missing = "wavefunction support exceeds the scan range" if support is None else "window contained no eigenvalue"
        report.notes.append(f"fd oracle: {missing}")
    else:
        err_c, err_f = abs(coarse[0] - two_e), abs(fine[0] - two_e)
        improving = err_f <= 0.6 * err_c + 1e-9 * scale
        report.add("fd_eigenvalue_error", err_f, 5e-3 * scale, passed=err_f <= 5e-3 * scale and improving)
        if err_f > 1e-9 * scale:
            order = math.log2(err_c / err_f) if err_f > 0 else float("inf")
            report.notes.append(f"fd oracle convergence order ~ {order:.2f}")
    return report
