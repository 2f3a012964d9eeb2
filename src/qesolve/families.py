"""Front-ends for the four singular inverse-power potential families.

Each family builds a working polynomial ODE in its natural variable
(r for the inverse quartic and octic, t = r^2 for the inverse sextic,
z = r^2 for the inverse decatic), drives the generic root engine, and maps
roots to the potential couplings, the energy and the closed-form
wavefunction shape.

Exponential shapes used throughout (all rates fixed by the singular tail):

    quartic:  Psi = r^gamma  prod (r - r_i)    exp(-w/2 r^2 + B r - s2d / r)
    sextic:   Psi = r^(3/2+e/s2d) prod (r^2-t_i) exp(-w/2 r^2 - s2d/(2 r^2))
    octic:    Psi = r^beta   prod (r - r_i)    exp(-w/2 r^2 + B r - fh/r
                                                   - g/(2 s2h r^2) - s2h/(3 r^3))
    decatic:  Psi = r^eta    prod (r^2 - z_i)  exp(-w/2 r^2 - c/(2 s2d r^2)
                                                   - s2d/(4 r^4))

with s2d = sqrt(2 d), s2h = sqrt(2 h), fh = (f - g^2/(4h)) / s2h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

import numpy as np

from .bethe import (
    CONJ_TOL,
    PolyODE,
    RootSet,
    SolverConfig,
    Variable,
    _accept_candidate,
    _branch_key,
    _closing_w,
    _ode_matrix,
    _polish,
    _power_sums,
    _root_dependent,
    bae_residuals,
    compute_w_coefficients,
    solve_bae,
    verify_polynomial_identity,
)
from .errors import (
    ConstraintInfeasible,
    InvalidCase,
    InvalidExponent,
    InvalidParameter,
    NoSolutionFound,
)


class Family(str, Enum):
    QUARTIC = "quartic"
    SEXTIC = "sextic"
    OCTIC = "octic"
    DECATIC = "decatic"


class Case(str, Enum):
    HARMONIC = "harmonic"  # B = 0, omega > 0
    COULOMBIC = "coulombic"  # omega = 0, B < 0
    NONE = "none"


_FREE_KEYS = {
    (Family.QUARTIC, Case.HARMONIC): ("omega", "c", "d"),
    (Family.QUARTIC, Case.COULOMBIC): ("a", "c", "d"),
    (Family.SEXTIC, Case.HARMONIC): ("omega", "e", "d"),
    (Family.OCTIC, Case.HARMONIC): ("omega", "e", "f", "g", "h"),
    (Family.OCTIC, Case.COULOMBIC): ("a", "e", "f", "g", "h"),
    (Family.DECATIC, Case.HARMONIC): ("omega", "b", "c", "d"),
}
# Families whose match_ell solve derives omega instead of taking it.
_MATCH_ELL_FAMILIES = (Family.SEXTIC, Family.DECATIC)


@dataclass(frozen=True)
class FamilyProblem:
    """A potential family, case, polynomial degree and free couplings.

    For the sextic and decatic families `ell` is the match target when
    `match_ell` is set; otherwise the effective angular momentum is derived
    and reported as a real number.
    """

    family: Family
    case: Case
    n: int
    ell: float
    free: Mapping[str, float]
    match_ell: bool = False

    def __post_init__(self):
        object.__setattr__(self, "family", Family(self.family))
        case = Case(self.case)
        if case is Case.NONE:
            case = Case.HARMONIC
        object.__setattr__(self, "case", case)
        object.__setattr__(self, "free", dict(self.free))
        if self.n < 0:
            raise InvalidParameter("n >= 0 required")
        key = (self.family, self.case)
        if key not in _FREE_KEYS:
            raise InvalidCase(
                f"{self.family.value} does not support case {self.case.value}"
            )
        expected = set(_FREE_KEYS[key])
        got = set(self.free)
        if self.match_ell and self.family in _MATCH_ELL_FAMILIES:
            expected.discard("omega")
            got.discard("omega")
        if got != expected:
            raise InvalidParameter(
                f"{self.family.value}/{self.case.value} expects couplings "
                f"{sorted(expected)}, got {sorted(set(self.free))}"
            )
        _validate_problem(self)


def _require(cond: bool, constraint: str):
    if not cond:
        raise InvalidParameter(f"constraint violated: {constraint}")


def _validate_problem(problem: FamilyProblem):
    f = problem.free
    top = "h" if problem.family is Family.OCTIC else "d"
    _require(f[top] > 0, f"{top} > 0")
    if problem.case is Case.COULOMBIC:
        _require(f["a"] < 0, "a < 0")
    elif "omega" in f:  # absent only in match-ell mode, which derives it
        _require(f["omega"] > 0, "omega > 0")


@dataclass(frozen=True)
class WaveForm:
    """Closed-form wavefunction shape.

    log Psi(r) = leading_exponent * ln r + sum_p exp_coeffs[p] * r^p
                 + ln prod_i (v(r) - t_i)

    with v(r) = r, r^2 or r^2 according to `variable`.
    """

    leading_exponent: float
    exp_coeffs: Mapping[int, float]
    roots: RootSet
    variable: Variable

    def __post_init__(self):
        coeffs = {int(k): float(v) for k, v in self.exp_coeffs.items() if v != 0.0}
        object.__setattr__(self, "exp_coeffs", coeffs)
        if not self.leading_exponent > 0:
            raise InvalidExponent(
                f"leading exponent {self.leading_exponent} must be positive"
            )
        c2 = coeffs.get(2, 0.0)
        if c2 > 0:
            raise InvalidParameter("coefficient of r^2 must be <= 0")
        if c2 == 0.0 and coeffs.get(1, 0.0) >= 0.0:
            raise InvalidParameter("with no r^2 term the r coefficient must be < 0")
        neg = [p for p in coeffs if p < 0]
        if neg and coeffs[min(neg)] >= 0.0:
            raise InvalidParameter("most negative power must have negative coefficient")


@dataclass(frozen=True)
class QESSolution:
    """One exactly-solvable branch: roots, derived couplings, energy, shape."""

    problem: FamilyProblem
    roots: RootSet
    derived: dict
    energy: float
    waveform: WaveForm
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class BranchFailure:
    """A root branch that was found but rejected while deriving parameters."""

    roots: RootSet | None
    error: str
    detail: str


# ----------------------------------------------------------------------
# Per-family ingredients
# ----------------------------------------------------------------------


def _quartic_rates(problem: FamilyProblem):
    f = problem.free
    s2d = math.sqrt(2.0 * f["d"])
    gamma = 1.0 + f["c"] / s2d
    if gamma <= 0:
        raise InvalidExponent("1 + c/sqrt(2d) must be positive")
    if problem.case is Case.HARMONIC:
        omega, bexp = f["omega"], 0.0
    else:
        omega, bexp = 0.0, f["a"] / (problem.n + gamma)
    return s2d, gamma, omega, bexp


def _sextic_rates(problem: FamilyProblem, omega=None):
    f = problem.free
    s2d = math.sqrt(2.0 * f["d"])
    xi = f["e"] / s2d
    lead = 1.5 + xi
    if lead <= 0:
        raise InvalidExponent("3/2 + e/sqrt(2d) must be positive")
    if omega is None:
        omega = f["omega"]
    return s2d, xi, lead, omega


def _octic_rates(problem: FamilyProblem):
    f = problem.free
    h = f["h"]
    s2h = math.sqrt(2.0 * h)
    fh = (f["f"] - f["g"] ** 2 / (4.0 * h)) / s2h
    beta = 2.0 + f["e"] / s2h - f["g"] * fh / (2.0 * h)
    if beta <= 0:
        raise InvalidExponent("the leading exponent beta must be positive")
    if problem.case is Case.HARMONIC:
        omega, bexp = f["omega"], 0.0
    else:
        omega, bexp = 0.0, f["a"] / (problem.n + beta)
    return s2h, fh, beta, omega, bexp


def _decatic_rates(problem: FamilyProblem, omega=None):
    f = problem.free
    s2d = math.sqrt(2.0 * f["d"])
    kappa = (f["c"] ** 2 / 16.0) * math.sqrt(2.0 / f["d"] ** 3)
    eta = 2.5 + f["b"] / s2d + kappa
    if eta <= 0:
        raise InvalidExponent("the leading exponent eta must be positive")
    if omega is None:
        if "omega" not in f:
            raise InvalidParameter("omega is required unless match_ell is set")
        omega = f["omega"]
    return s2d, kappa, eta, omega


def build_ode(problem: FamilyProblem, omega: float | None = None):
    """Working ODE (p, q only) and the variable its roots live in.

    `omega` overrides the free coupling while the match-ell outer solve is
    running; normal callers leave it None.
    """
    fam = problem.family
    if fam is Family.QUARTIC:
        s2d, gamma, w, bexp = _quartic_rates(problem)
        q = (2.0 * s2d, 2.0 * gamma, 2.0 * bexp, -2.0 * w, 0.0, 0.0)
        return PolyODE((0.0, 0.0, 1.0, 0.0, 0.0), q), Variable.R
    if fam is Family.SEXTIC:
        s2d, xi, _, w = _sextic_rates(problem, omega)
        q = (s2d, 2.0 + xi, -w, 0.0, 0.0, 0.0)
        return PolyODE((0.0, 0.0, 1.0, 0.0, 0.0), q), Variable.T_EQ_R2
    if fam is Family.OCTIC:
        s2h, fh, beta, w, bexp = _octic_rates(problem)
        g = problem.free["g"]
        q = (2.0 * s2h, 2.0 * g / s2h, 2.0 * fh, 2.0 * beta, 2.0 * bexp, -2.0 * w)
        return PolyODE((0.0, 0.0, 0.0, 0.0, 1.0), q), Variable.R
    if fam is Family.DECATIC:
        s2d, _, eta, w = _decatic_rates(problem, omega)
        q = (s2d, problem.free["c"] / s2d, eta + 0.5, -w, 0.0, 0.0)
        return PolyODE((0.0, 0.0, 0.0, 1.0, 0.0), q), Variable.Z_EQ_R2
    raise InvalidCase(f"unknown family {fam}")


def _sums(roots: RootSet):
    arr = roots.as_array()
    if len(arr) == 0:
        return 0.0, 0.0, 0.0, 0.0, 0.0
    return tuple(_power_sums(arr, CONJ_TOL))


def _l_half_sq(problem: FamilyProblem, omega: float, s1: float) -> float:
    """(l+1/2)^2 of a sextic or decatic branch with root sum s1 at omega.

    Negative (infeasible) values are returned as they are.
    """
    n = problem.n
    if problem.family is Family.SEXTIC:
        s2d, xi, _, _ = _sextic_rates(problem, omega)
        return 4.0 * n * (n + 1.0 + xi) + (xi + 1.0) ** 2 - 2.0 * omega * (s2d + 2.0 * s1)
    s2d, _, eta, _ = _decatic_rates(problem, omega)
    return (
        (eta - 0.5) ** 2
        + 4.0 * n * (n + eta - 0.5)
        - 2.0 * omega * (problem.free["c"] / s2d + 2.0 * s1)
    )


def derive_parameters(
    problem: FamilyProblem,
    roots: RootSet,
    omega: float | None = None,
    check_tol: float = 1e-8,
):
    """Map a root branch to (derived couplings, energy, waveform).

    The roots are re-checked against the family root system before any
    constraint is evaluated.
    """
    ode, variable = build_ode(problem, omega)
    if roots.variable is not variable:
        raise InvalidParameter("roots live in the wrong variable for this family")
    if roots.n != problem.n:
        raise InvalidParameter("root count does not match problem degree")
    if roots.n > 0:
        res = float(np.max(np.abs(bae_residuals(ode, roots))))
        if res > check_tol:
            raise InvalidParameter(
                f"roots do not solve the root system (residual {res:.3e})"
            )
    fam, case, n, ell = problem.family, problem.case, problem.n, problem.ell
    s1, s2, s3, s4, pair = _sums(roots)

    if fam is Family.QUARTIC:
        s2d, gamma, w, bexp = _quartic_rates(problem)
        energy = (
            w * (n + 1.5 + problem.free["c"] / s2d)
            if case is Case.HARMONIC
            else -0.5 * bexp * bexp
        )
        a = problem.free["a"] if case is Case.COULOMBIC else -w * (s2d + s1)
        b = 0.5 * (
            gamma * (gamma - 1.0)
            - ell * (ell + 1.0)
            + n * (n - 1.0 + 2.0 * gamma)
            + 2.0 * bexp * (s2d + s1)
            - 2.0 * w * s2
        )
        derived = {"a": a, "b": b} if case is Case.HARMONIC else {"B": bexp, "b": b}
        coeffs = {2: -w / 2.0, 1: bexp, -1: -s2d}
        wave = WaveForm(gamma, coeffs, roots, Variable.R)
        return derived, energy, wave

    if fam is Family.SEXTIC:
        s2d, xi, lead, w = _sextic_rates(problem, omega)
        energy = w * (2.0 * n + 2.0 + xi)
        l2 = _l_half_sq(problem, w, s1)
        if l2 < 0:
            raise ConstraintInfeasible(f"derived (l+1/2)^2 = {l2} < 0")
        derived = {"l_half_sq": l2, "ell": -0.5 + math.sqrt(l2)}
        if problem.match_ell:
            derived["omega"] = w
        coeffs = {2: -w / 2.0, -2: -s2d / 2.0}
        wave = WaveForm(lead, coeffs, roots, Variable.T_EQ_R2)
        return derived, energy, wave

    if fam is Family.OCTIC:
        s2h, fh, beta, w, bexp = _octic_rates(problem)
        g = problem.free["g"]
        energy = w * (n + 0.5 + beta) if case is Case.HARMONIC else -0.5 * bexp * bexp
        a = problem.free["a"] if case is Case.COULOMBIC else -w * (fh + s1)
        b = (
            0.5 * ((beta + ell) * (beta - ell - 1.0) + n * (n + 2.0 * beta - 1.0))
            - g * w / s2h
            - w * s2
            + bexp * (fh + s1)
        )
        c = (
            -w * s3
            + bexp * (g / s2h + s2)
            + (n + beta - 1.0) * (fh + s1)
            - w * s2h
        )
        d = (
            -w * s4
            + bexp * s3
            + (n + beta - 1.0) * s2
            + pair
            + fh * s1
            + g * (2.0 * n + 2.0 * beta - 3.0) / (2.0 * s2h)
            + 0.5 * fh * fh
            + bexp * s2h
        )
        if case is Case.HARMONIC:
            derived = {"a": a, "b": b, "c": c, "d": d}
        else:
            derived = {"B": bexp, "b": b, "c": c, "d": d}
        coeffs = {2: -w / 2.0, 1: bexp, -1: -fh, -2: -g / (2.0 * s2h), -3: -s2h / 3.0}
        wave = WaveForm(beta, coeffs, roots, Variable.R)
        return derived, energy, wave

    if fam is Family.DECATIC:
        s2d, kappa, eta, w = _decatic_rates(problem, omega)
        c = problem.free["c"]
        d = problem.free["d"]
        energy = w * (2.0 * n + eta + 0.5)
        l2 = _l_half_sq(problem, w, s1)
        if l2 < 0:
            raise ConstraintInfeasible(f"derived (l+1/2)^2 = {l2} < 0")
        a = (
            -2.0 * w * s2
            + (4.0 * n + 2.0 * eta - 3.0) * s1
            + 2.0 * n * c / s2d
            + (c / s2d) * (eta - 1.5)
            - w * s2d
        )
        # The r^-6 coupling the constructed wavefunction actually solves
        # (fixed by the eta that kills the z^-1 term of the working ODE).
        b_pot = s2d * (eta - 2.5) + c * c / (4.0 * d)
        derived = {
            "a": a,
            "b_pot": b_pot,
            "l_half_sq": l2,
            "ell": -0.5 + math.sqrt(l2),
        }
        if problem.match_ell:
            derived["omega"] = w
        coeffs = {2: -w / 2.0, -2: -c / (2.0 * s2d), -4: -s2d / 4.0}
        wave = WaveForm(eta, coeffs, roots, Variable.Z_EQ_R2)
        return derived, energy, wave

    raise InvalidCase(f"unknown family {fam}")


# ----------------------------------------------------------------------
# Pipeline
# ----------------------------------------------------------------------


def _branch_solution(
    problem: FamilyProblem,
    roots: RootSet,
    omega: float | None = None,
) -> QESSolution:
    derived, energy, wave = derive_parameters(problem, roots, omega)
    ode, _ = build_ode(problem, omega)
    w = compute_w_coefficients(ode, roots)
    identity = verify_polynomial_identity(ode.with_w(w), roots)
    solution = QESSolution(
        problem,
        roots,
        derived,
        energy,
        wave,
        {
            "bae_residual": roots.bae_residual,
            "separation": roots.separation,
            "identity_residual": identity,
        },
    )
    from . import oracle, wavefunction  # deferred: oracle depends on this module

    solution.diagnostics["schrodinger_residual"] = oracle.schrodinger_residual(solution)
    solution.diagnostics["norm"] = wavefunction.norm_quadrature(solution)
    return solution


def solve_family_detailed(
    problem: FamilyProblem, cfg: SolverConfig = SolverConfig()
) -> tuple[list[QESSolution], list[BranchFailure]]:
    """solve_family plus a record of skipped branches (for scans).

    In match-ell mode (sextic, decatic) the root system is solved at the
    starting omega, and `_match_ell` then takes each branch to the omega at
    which its derived ell is the requested one.
    """
    match = problem.match_ell and problem.family in _MATCH_ELL_FAMILIES
    omega0 = float(problem.free.get("omega", 1.0)) if match else None
    ode, variable = build_ode(problem, omega0)
    try:
        branches = solve_bae(ode, problem.n, cfg, variable)
    except NoSolutionFound as exc:
        return [], [BranchFailure(None, type(exc).__name__, str(exc))]
    matcher = _match_ell(problem, ode, omega0) if match else None
    solutions: list[QESSolution] = []
    failures: list[BranchFailure] = []
    for branch in branches:
        try:
            roots, omega = matcher(branch) if matcher else (branch, None)
            solutions.append(_branch_solution(problem, roots, omega))
        except (ConstraintInfeasible, InvalidExponent, InvalidParameter) as exc:
            failures.append(BranchFailure(branch, type(exc).__name__, str(exc)))
    solutions.sort(key=lambda s: _branch_key(s.roots.roots))
    return solutions, failures


def solve_family(
    problem: FamilyProblem, cfg: SolverConfig = SolverConfig()
) -> list[QESSolution]:
    """One QESSolution per admissible root branch, deterministic for a seed."""
    return solve_family_detailed(problem, cfg)[0]


# ----------------------------------------------------------------------
# Match-ell outer solve (sextic, decatic)
# ----------------------------------------------------------------------

# The omega range searched for a match.
OMEGA_RANGE = (1e-6, 1.0e3)
NO_MATCH = "no omega in (0, 1e3] matches the requested ell on this branch"
MATCH_TOL = 1e-8  # the largest |(l+1/2)^2 - (ell+1/2)^2| a match may leave


def _match_ell(problem: FamilyProblem, ode: PolyODE, omega0: float):
    """The per-branch step of match-ell mode: a function that takes a branch
    of `ode` (the working ODE at omega0) to that branch and the omega at
    which its (l+1/2)^2 hits the requested ell, or raises
    ConstraintInfeasible.  An ODE with w0 as its only root-dependent W
    coefficient (the sextic) is matched through one eigenproblem, any other
    (the decatic) by scanning omega."""
    if _root_dependent(ode) == 1:
        return _pencil_matcher(problem, ode, omega0)
    return lambda branch: _scan_match(problem, branch, omega0)


def _pencil_matches(problem: FamilyProblem):
    """A, L and, per rank, the (omega, c) at which a sextic ODE's
    branch of that rank hits the requested ell, in ascending omega.

    The square matrix at omega is A + omega L (`bethe._ode_matrix`), and a
    branch is its eigenvector c with eigenvalue lam = -w0.  Its (l+1/2)^2
    and lam are both affine in the root sum s1, so the requested ell is
    reached exactly when lam = alpha + beta omega, and the matching omegas
    are the eigenvalues of the pencil (A - alpha I) c = -omega (L - beta I) c;
    L - beta I is triangular with diagonal -beta != 0.  Only real omegas in
    OMEGA_RANGE are kept.  The rank of a match is that of lam among the
    eigenvalues of A + omega L, ascending.
    """
    n, target = problem.n, (problem.ell + 0.5) ** 2
    # At omega = 1 and 2: the square matrix, and lam = -w0 from the closing
    # formulas at the root sum that gives the requested ell.
    mats, line = [], []
    for omega in (1.0, 2.0):
        ode, _ = build_ode(problem, omega)
        mats.append(_ode_matrix(ode, n))
        l0, l1 = (_l_half_sq(problem, omega, s1) for s1 in (0.0, 1.0))
        lam0, lam1 = (-_closing_w(ode, n, s1, 0.0, 0.0, 0.0, 0.0)[0] for s1 in (0.0, 1.0))
        line.append(lam0 + (lam1 - lam0) * (target - l0) / (l1 - l0))
    L = mats[1] - mats[0]
    A = mats[0] - L
    beta = line[1] - line[0]
    alpha = line[0] - beta
    eye = np.eye(n + 1)
    omegas, vecs = np.linalg.eig(-np.linalg.solve(L - beta * eye, A - alpha * eye))
    by_rank: dict[int, list] = {}
    lo, hi = OMEGA_RANGE
    for j in np.argsort(omegas.real):
        om = omegas[j]
        if om.imag == 0.0 and lo <= om.real <= hi:
            om = float(om.real)
            by_rank.setdefault(_rank(A + om * L, alpha + beta * om), []).append((om, vecs[:, j].real))
    return A, L, by_rank


def _pencil_matcher(problem: FamilyProblem, ode: PolyODE, omega0: float):
    """Match each branch of a sextic ODE from `_pencil_matches`.

    For omega > 0 the eigenvalues of A + omega L are real and simple, so
    they never cross: a branch keeps its rank, and takes the matches of
    that rank.  Of several, it takes the largest at or below omega0, else
    the smallest above, as a scan down and then up from omega0 would.  The
    roots come from c and go through the polish and filters of the root
    search.
    """
    n, target = problem.n, (problem.ell + 0.5) ** 2
    A, L, by_rank = _pencil_matches(problem)
    matrix0 = A + omega0 * L

    def at(om: float, start: np.ndarray, branch: RootSet) -> tuple[RootSet, float]:
        """The branch polished from start at om, and its mismatch."""
        roots = branch
        if n:
            ode_at, variable = build_ode(problem, om)
            with np.errstate(all="ignore"):
                accepted = _accept_candidate(ode_at, _polish(ode_at, start))
            if accepted is None:
                raise ConstraintInfeasible("outer solve stalled")
            ordered, res, sep = accepted
            roots = RootSet(n, tuple(complex(z) for z in ordered), variable, res, sep)
        return roots, _l_half_sq(problem, om, _sums(roots)[0]) - target

    def match(branch: RootSet) -> tuple[RootSet, float]:
        found = by_rank.get(_rank(matrix0, -compute_w_coefficients(ode, branch)[0]))
        if not found:
            raise ConstraintInfeasible(NO_MATCH)
        below = [m for m in found if m[0] <= omega0]
        omega, c = below[-1] if below else found[0]
        roots, miss = at(omega, np.roots(c[::-1]).astype(complex), branch)
        # alpha and beta carry the rounding of the closing formulas, which
        # leaves the pencil's omega off by up to ~1e-13 relative: one secant
        # step on the mismatch that the gate below measures removes that.
        h = 1e-6 * omega
        miss_h = at(omega + h, roots.as_array(), branch)[1]
        if miss_h != miss:
            omega -= miss * h / (miss_h - miss)
            roots, miss = at(omega, roots.as_array(), branch)
        if abs(miss) > MATCH_TOL:
            raise ConstraintInfeasible("outer solve stalled")
        return roots, omega

    return match


def _rank(matrix: np.ndarray, lam: float) -> int:
    """Rank of the eigenvalue lam among the (real) eigenvalues of matrix."""
    return int(np.argmin(np.abs(np.sort(np.linalg.eigvals(matrix).real) - lam)))


def _follow(problem: FamilyProblem, roots: RootSet, om_from: float, om_to: float) -> RootSet | None:
    """Carry a branch from om_from to om_to in geometric hops of at most a
    factor e^0.2.  Each hop polishes the previous roots at the new omega and
    accepts them with the root search's own filters; None when a hop is
    rejected or jumps to a different branch."""
    hops = math.ceil(abs(math.log(om_to / om_from)) / 0.2) if problem.n else 0
    for j in range(1, hops + 1):
        ode, variable = build_ode(problem, om_from * (om_to / om_from) ** (j / hops))
        prev = roots.as_array()
        with np.errstate(all="ignore"):
            accepted = _accept_candidate(ode, _polish(ode, prev))
        if accepted is None:
            return None
        ordered, res, sep = accepted
        scale = 1.0 + max(float(np.max(np.abs(ordered))), float(np.max(np.abs(prev))))
        if np.max(np.abs(ordered - prev)) > 0.6 * scale:
            return None
        roots = RootSet(problem.n, tuple(complex(z) for z in ordered), variable, res, sep)
    return roots


def _scan_match(problem: FamilyProblem, branch: RootSet, omega0: float) -> tuple[RootSet, float]:
    """The branch and the omega at which its (l+1/2)^2 hits the requested ell.

    Scans omega down from omega0 by factors of 0.8, then up by 1.25, both
    times following the branch from omega0, until the mismatch changes
    sign; then bisects the bracket to machine width.  Raises
    ConstraintInfeasible when no bracket is found (saying where the branch
    was lost if a scan was cut short) or the bisection stalls.
    """
    target = (problem.ell + 0.5) ** 2
    omega_min, omega_max = OMEGA_RANGE
    roots, omega = branch, omega0

    def mismatch(om: float) -> float | None:
        """Follow the branch from the last omega reached to om."""
        nonlocal roots, omega
        moved = _follow(problem, roots, omega, om)
        if moved is None:
            return None
        roots, omega = moved, om
        return _l_half_sq(problem, om, _sums(moved)[0]) - target

    f0 = mismatch(omega0)
    bracket = (omega0, omega0) if f0 == 0.0 else None
    lost = []  # the scan step that lost the branch, per direction
    for direction in (0.8, 1.25):
        if bracket is not None:
            break
        roots, omega = branch, omega0
        om = om_prev = omega0
        f_prev = f0
        while omega_min <= om * direction <= omega_max:
            om *= direction
            f = mismatch(om)
            if f is None:
                lost.append(f"between omega = {om_prev:.6g} and {om:.6g}")
                break
            if f_prev * f <= 0.0:
                bracket = (min(om_prev, om), max(om_prev, om))
                break
            om_prev, f_prev = om, f
    if bracket is None:
        if lost:
            raise ConstraintInfeasible(f"branch lost {' and '.join(lost)} while scanning for the requested ell")
        raise ConstraintInfeasible(NO_MATCH)
    lo, hi = bracket
    flo = mismatch(lo)  # None when carrying the branch back to lo loses it
    for _ in range(200):
        if flo is None or hi - lo <= 4.0 * math.ulp(max(abs(lo), abs(hi))):
            break
        mid = 0.5 * (lo + hi)
        fm = mismatch(mid)
        if fm is None or fm == 0.0:
            lo = hi = mid
            break
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    omega_star = 0.5 * (lo + hi)
    final = None if flo is None else mismatch(omega_star)
    if final is None or abs(final) > MATCH_TOL:
        raise ConstraintInfeasible("outer solve stalled")
    return roots, omega_star


# ----------------------------------------------------------------------
# Octic reduction limits
# ----------------------------------------------------------------------


class ReductionLimit(str, Enum):
    TO_QUARTIC = "to_quartic"
    TO_SEXTIC = "to_sextic"


@dataclass(frozen=True)
class ReductionReport:
    eps: float
    limit: ReductionLimit
    target: FamilyProblem
    diffs: dict
    matched: int


def _rescaled_octic(problem: FamilyProblem, limit: ReductionLimit, eps: float):
    """Rebuild the octic problem at scale eps keeping the limit invariants.

    The invariants (beta, fh, g/s2h) are constant along the limit path, so
    any point on the path determines the whole curve.
    """
    s2h, fh, beta, omega, _ = _octic_rates(problem)
    gsig = problem.free["g"] / s2h
    sig = eps
    h = 0.5 * sig * sig
    if limit is ReductionLimit.TO_QUARTIC:
        if abs(gsig) > 1e-12:
            raise InvalidParameter("TO_QUARTIC path requires g = 0")
        g = 0.0
        f = fh * sig
    else:
        if abs(fh) > 1e-12:
            raise InvalidParameter("TO_SEXTIC path requires f = g^2/(4h)")
        g = gsig * sig
        f = 0.5 * gsig * gsig
    e = (beta - 2.0 + g * fh / (sig * sig)) * sig  # g*fh/sig^2 is 0 on both paths
    free = {"omega": omega, "e": e, "f": f, "g": g, "h": h}
    if problem.case is Case.COULOMBIC:
        free = {"a": problem.free["a"], "e": e, "f": f, "g": g, "h": h}
    return FamilyProblem(Family.OCTIC, problem.case, problem.n, problem.ell, free)


def _reduction_target(problem: FamilyProblem, limit: ReductionLimit) -> FamilyProblem:
    s2h, fh, beta, omega, _ = _octic_rates(problem)
    if limit is ReductionLimit.TO_QUARTIC:
        if fh <= 0:
            raise InvalidParameter("TO_QUARTIC path requires fh > 0")
        d = 0.5 * fh * fh
        c = (beta - 1.0) * fh
        if problem.case is Case.COULOMBIC:
            free = {"a": problem.free["a"], "c": c, "d": d}
        else:
            free = {"omega": omega, "c": c, "d": d}
        return FamilyProblem(
            Family.QUARTIC, problem.case, problem.n, problem.ell, free
        )
    gsig = problem.free["g"] / s2h
    if gsig <= 0:
        raise InvalidParameter("TO_SEXTIC path requires g > 0")
    if problem.n % 2:
        raise InvalidParameter("TO_SEXTIC comparison needs an even octic degree")
    d_s = 0.5 * gsig * gsig
    e_s = (beta - 1.5) * gsig
    return FamilyProblem(
        Family.SEXTIC,
        Case.HARMONIC,
        problem.n // 2,
        problem.ell,
        {"omega": omega, "e": e_s, "d": d_s},
    )


def _quantities(sol: QESSolution, limit: ReductionLimit, octic_side: bool):
    dv, free = sol.derived, sol.problem.free
    a = dv.get("a", free.get("a"))
    if limit is ReductionLimit.TO_QUARTIC:
        c, d = (dv["c"], dv["d"]) if octic_side else (free["c"], free["d"])
        return dict(
            energy=sol.energy,
            a=a,
            b=dv["b"],
            c=c,
            d=d,
            exponent=sol.waveform.leading_exponent,
        )
    if octic_side:
        ell = sol.problem.ell
        return dict(
            energy=sol.energy,
            a=a,
            c=dv["c"],
            d=dv["d"],
            l_half_sq=ell * (ell + 1.0) + 2.0 * dv["b"] + 0.25,
            exponent=sol.waveform.leading_exponent,
        )
    return dict(
        energy=sol.energy,
        a=0.0,
        c=0.0,
        d=free["e"],
        l_half_sq=dv["l_half_sq"],
        exponent=sol.waveform.leading_exponent,
    )


def reduction_check(
    problem: FamilyProblem,
    limit: ReductionLimit,
    eps: float,
    cfg: SolverConfig = SolverConfig(),
) -> ReductionReport:
    """Compare octic-derived quantities against the quartic/sextic limit.

    The octic problem is rebuilt with the vanishing couplings at magnitude
    eps along the path that keeps (beta, fh, g/sqrt(2h)) fixed; eps = 0 is
    handled as an exact call into the target family (zero differences).
    """
    if problem.family is not Family.OCTIC:
        raise InvalidParameter("reduction_check expects an octic problem")
    limit = ReductionLimit(limit)
    target = _reduction_target(problem, limit)
    target_solutions = solve_family(target, cfg)
    if eps == 0.0:
        keys = _quantities(target_solutions[0], limit, octic_side=False).keys() if target_solutions else ()
        return ReductionReport(
            0.0, limit, target, {k: 0.0 for k in keys}, len(target_solutions)
        )
    octic = _rescaled_octic(problem, limit, eps)
    octic_solutions = solve_family(octic, cfg)
    # Every target branch must be the limit of some octic branch; extra
    # octic branches (roots collapsing with eps) have no counterpart.
    diffs: dict[str, float] = {}
    matched = 0
    for tsol in target_solutions:
        tq = _quantities(tsol, limit, octic_side=False)
        best = None
        for osol in octic_solutions:
            oq = _quantities(osol, limit, octic_side=True)
            score = sum(abs(oq[k] - tq[k]) for k in tq)
            if best is None or score < best[0]:
                best = (score, oq)
        if best is None:
            continue
        matched += 1
        for k in tq:
            diffs[k] = max(diffs.get(k, 0.0), abs(best[1][k] - tq[k]))
    return ReductionReport(eps, limit, target, diffs, matched)
