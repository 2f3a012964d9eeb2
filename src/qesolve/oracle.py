"""Independent verification of constructed (E, Psi, V) triples.

Two layers of checks exist beyond the polynomial identity of the root
engine: a pointwise residual of the original radial equation using analytic
log-derivatives, and a finite-difference eigenvalue oracle (symmetric
tridiagonal discretization, Sturm-sequence bisection) confirming that the
constructed energy sits in the spectrum of the constructed potential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

import numpy as np

from .bethe import BAE_TOL, IDENT_TOL
from .bethe import Variable, bae_residuals, compute_w_coefficients, verify_polynomial_identity
from .errors import GridInsufficient, InvalidParameter, MissingCoupling
from .families import Case, Family, QESSolution, build_ode
from .wavefunction import (
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
    """Full coefficient set of the radial equation for this solution."""
    prob = solution.problem
    fam = prob.family
    if fam is Family.QUARTIC:
        powers = {k: _coupling(solution, n) for k, n in ((1, "a"), (2, "b"), (3, "c"), (4, "d"))}
        omega = prob.free["omega"] if prob.case is Case.HARMONIC else 0.0
        return PotentialSpec(float(prob.ell), omega, powers)
    if fam is Family.SEXTIC:
        powers = {4: prob.free["e"], 6: prob.free["d"]}
        omega = _coupling(solution, "omega") if prob.match_ell else prob.free["omega"]
        return PotentialSpec(_coupling(solution, "ell"), omega, powers)
    if fam is Family.OCTIC:
        names = {1: "a", 2: "b", 3: "c", 4: "d", 5: "e", 6: "f", 7: "g", 8: "h"}
        powers = {k: _coupling(solution, n) for k, n in names.items()}
        omega = prob.free["omega"] if prob.case is Case.HARMONIC else 0.0
        return PotentialSpec(float(prob.ell), omega, powers)
    if fam is Family.DECATIC:
        powers = {
            4: _coupling(solution, "a"),
            6: _coupling(solution, "b_pot"),
            8: prob.free["c"],
            10: prob.free["d"],
        }
        omega = _coupling(solution, "omega") if prob.match_ell else prob.free["omega"]
        return PotentialSpec(_coupling(solution, "ell"), omega, powers)
    raise MissingCoupling(f"unknown family {fam}")


def _default_residual_grid(solution: QESSolution, num: int = 200) -> np.ndarray:
    roots = solution.roots.as_array()
    if len(roots):
        if solution.roots.variable is Variable.R:
            r_scale = float(np.max(np.abs(roots)))
        else:
            r_scale = math.sqrt(float(np.max(np.abs(roots))))
    else:
        r_scale = 1.0
    r_scale = max(1.0, r_scale)
    return np.geomspace(1e-2 * r_scale, 20.0 * r_scale, num)


def schrodinger_residual(
    solution: QESSolution,
    grid: np.ndarray | None = None,
    node_excl: float = 1e-6,
) -> float:
    """Max relative residual of the radial equation over the grid.

    residual(r) = |-Psi''/Psi + bracket(r) - 2E| /
                  (|2E| + |ell(ell+1)|/r^2 + omega^2 r^2 + |2V(r)|)

    Grid points closer than node_excl to a node are excluded; the radius is
    widened to 5e-3 relative to the node position because Psi''/Psi grows
    like 1/(r - node)^2 there and its evaluation noise (eps/delta^2) would
    swamp a 1e-9 residual bound long before the identity actually fails.
    """
    pot = assemble_potential(solution)
    r = _default_residual_grid(solution) if grid is None else np.asarray(grid, float)
    for node in node_positions(solution):
        excl = max(node_excl, 5e-3 * (1.0 + abs(node)))
        r = r[np.abs(r - node) > excl]
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
        if not (0.0 < self.r_min < self.r_max):
            raise InvalidParameter("need 0 < r_min < r_max")
        if self.n_points < 2000:
            raise InvalidParameter("n_points >= 2000 required")


def default_fd_grid(solution: QESSolution, n_points: int = 4000) -> FdGrid:
    """Grid bounds from the wavefunction support (amplitude below 1e-13
    of the peak at both ends); raises GridInsufficient if no such bounds
    exist within a generous scan range."""
    for span in (2.0, 3.0, 4.5, 7.0):
        u = np.linspace(-span * 4.0, span * 4.0, 3001)
        r = np.exp(u)
        with np.errstate(all="ignore"):
            logpsi, _ = eval_log_psi(solution, r)
        logpsi = np.where(np.isfinite(logpsi), logpsi, -np.inf)
        imax = int(np.argmax(logpsi))
        peak = logpsi[imax]
        drop = 30.0  # ln scale, ~ 1e-13 in amplitude
        left = np.nonzero(logpsi[: imax + 1] <= peak - drop)[0]
        right = np.nonzero(logpsi[imax:] <= peak - drop)[0]
        if len(left) and len(right) and 0 < imax < len(u) - 1:
            return FdGrid(float(r[left[-1]]), float(r[imax + right[0]]), n_points)
    raise GridInsufficient("wavefunction support exceeds the scan range")


def _sturm_counts(diag: np.ndarray, offdiag_sq: float, shifts: np.ndarray) -> np.ndarray:
    """Number of eigenvalues below each shift (LDL^T sign counts)."""
    shifts = np.atleast_1d(shifts).astype(float)
    q = diag[0] - shifts
    counts = (q < 0.0).astype(int)
    tiny = 1e-300
    for i in range(1, len(diag)):
        q = np.where(np.abs(q) < tiny, -tiny, q)
        q = diag[i] - shifts - offdiag_sq / q
        counts += q < 0.0
    return counts


# Bisection levels resolved by one Sturm pass: a pass counts the
# 2**_LEVELS - 1 midpoints that bisection would compute over that many
# levels.  A pass over the grid costs about the same for 63 shifts as for 1.
_LEVELS = 6


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
    floating point.  One Sturm pass counts the midpoints of six bisection
    levels at once; the result is bit for bit that of one level per pass.
    Returns an empty list when the window holds none.  Raises
    InvalidParameter for a window that is not finite with positive width,
    or a `tol` that is not a finite positive number.
    """
    lo, hi = float(energy_window[0]), float(energy_window[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
        raise InvalidParameter("energy window must be finite with positive width")
    if not (math.isfinite(tol) and tol > 0.0):
        raise InvalidParameter("tol must be a finite positive number")
    n = grid.n_points
    r = np.linspace(grid.r_min, grid.r_max, n + 2)[1:-1]
    h = (grid.r_max - grid.r_min) / (n + 1)
    diag = 2.0 / (h * h) + potential.bracket(r)
    off_sq = 1.0 / h**4
    # The first pass also counts lo and hi.  Every ordinal starts on the
    # one tree of (lo, hi).
    tree = _bisection_tree(np.array([lo]), np.array([hi]))
    counts = _sturm_counts(diag, off_sq, np.concatenate([[lo, hi], tree[0]]))
    c_lo, c_hi = int(counts[0]), int(counts[1])
    if c_hi == c_lo:
        return []
    ordinals = np.arange(c_lo + 1, c_hi + 1)
    lows = np.full(len(ordinals), lo)
    highs = np.full(len(ordinals), hi)
    tree_counts = np.broadcast_to(counts[2:], (len(ordinals), len(counts) - 2))
    rows = np.arange(len(ordinals))
    node = np.zeros_like(ordinals)  # each ordinal's node for its next step
    depth = 0
    while True:
        mids = 0.5 * (lows + highs)
        # The one-level loop's stop test, and a stop once no interval can be
        # split in floating point: no later step would move a midpoint.
        if not (np.max(highs - lows) > tol and np.any((lows < mids) & (mids < highs))):
            return [float(x) for x in mids]
        if depth == _LEVELS:
            tree = _bisection_tree(lows, highs)
            tree_counts = _sturm_counts(diag, off_sq, tree.ravel()).reshape(tree.shape)
            node = np.zeros_like(ordinals)
            depth = 0
        below = tree_counts[rows, node] >= ordinals
        highs = np.where(below, mids, highs)
        lows = np.where(below, lows, mids)
        node = 2 * node + 2 - below  # child (low, mid) if below, else (mid, high)
        depth += 1


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


def verify_solution(
    solution: QESSolution,
    level: VerifyLevel = VerifyLevel.FAST,
    bae_tol: float = BAE_TOL,
    ident_tol: float = IDENT_TOL,
    res_tol: float = 1e-9,
) -> VerificationReport:
    """Run the verification stack against a solution's stored fields.

    FAST checks the root-system residuals, the polynomial identity and the
    radial-equation residual.  FULL additionally computes the norm, counts
    nodes and confirms the energy against the finite-difference spectrum at
    two resolutions.
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
    report.add("bae_residual", bae, bae_tol)
    w = compute_w_coefficients(ode, solution.roots)
    report.add("identity_residual", verify_polynomial_identity(ode.with_w(w), solution.roots), ident_tol)
    report.add("schrodinger_residual", schrodinger_residual(solution), res_tol)
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
        ev_c = fd_spectrum(potential, window, coarse)
        ev_f = fd_spectrum(potential, window, fine)
        if not ev_c or not ev_f:
            report.add("fd_eigenvalue_error", math.inf, 5e-3 * scale, passed=False)
            report.notes.append("fd oracle: window contained no eigenvalue")
        else:
            err_c = min(abs(v - two_e) for v in ev_c)
            err_f = min(abs(v - two_e) for v in ev_f)
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
