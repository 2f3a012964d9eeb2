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
from numbers import Integral
from typing import Mapping

import numpy as np

from .bethe import (
    DEDUP_TOL,
    PolyODE,
    RootSet,
    SolverConfig,
    Variable,
    _accept_candidate,
    _branch_key,
    _canonical_order,
    _ode_matrix,
    _polish,
    _residual_batch,
    _root_dependent,
    _separation,
    _two_parameter,
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
    _require(isinstance(problem.n, Integral), "n is an integer")
    _require(math.isfinite(problem.ell), "ell is finite")
    _require(all(math.isfinite(v) for v in f.values()), "couplings are finite")
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


def _omega(problem: FamilyProblem, omega: float | None) -> float:
    """The sextic's or decatic's omega: the override if one is given, else
    the free coupling, which match-ell mode may leave out."""
    if omega is not None:
        return omega
    if "omega" not in problem.free:
        raise InvalidParameter("omega is required unless match_ell is set")
    return problem.free["omega"]


def _sextic_rates(problem: FamilyProblem, omega=None):
    f = problem.free
    s2d = math.sqrt(2.0 * f["d"])
    xi = f["e"] / s2d
    lead = 1.5 + xi
    if lead <= 0:
        raise InvalidExponent("3/2 + e/sqrt(2d) must be positive")
    return s2d, xi, lead, _omega(problem, omega)


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
    return s2d, kappa, eta, _omega(problem, omega)


def build_ode(problem: FamilyProblem, omega: float | None = None):
    """Working ODE (p, q only) and the variable its roots live in.

    `omega` overrides the free coupling while the match-ell solve is
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


def _l_half_sq(ode: PolyODE, w) -> float:
    """(l+1/2)^2 of a sextic or decatic branch whose working ODE, with
    m = `_root_dependent(ode)`, has the W coefficients w:

        (q_m - 1)^2 + 2 q_{m+1} q_{m-1} - 4 w_{m-1},

    which is (xi+1)^2 - 2 omega sqrt(2d) - 4 w0 for the sextic and
    (eta-1/2)^2 - 2 omega c/sqrt(2d) - 4 w1 for the decatic.  Negative
    (infeasible) values are returned as they are.
    """
    m = _root_dependent(ode)
    q = ode.q
    return (q[m] - 1.0) ** 2 + 2.0 * q[m + 1] * q[m - 1] - 4.0 * w[m - 1]


def derive_parameters(
    problem: FamilyProblem,
    roots: RootSet,
    omega: float | None = None,
    check_tol: float = 1e-8,
):
    """Map a root branch to (derived couplings, energy, waveform).

    The roots are re-checked against the family root system before any
    constraint is evaluated.  Each derived coupling is one closing W
    coefficient of the working ODE (`compute_w_coefficients`) times -1/2
    (-2 for the decatic's a), plus terms of the exponential factor alone;
    (l+1/2)^2 is `_l_half_sq`.
    """
    return _derivation(problem, roots, omega, check_tol)[2:]


def _derivation(problem: FamilyProblem, roots: RootSet, omega: float | None, check_tol: float = 1e-8):
    """derive_parameters, preceded by the working ODE and its W coefficients."""
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
    w = compute_w_coefficients(ode, roots)
    fam, case, n, ell = problem.family, problem.case, problem.n, problem.ell

    if fam is Family.QUARTIC:
        s2d, gamma, om, bexp = _quartic_rates(problem)
        b = -0.5 * w[0] + 0.5 * (gamma * (gamma - 1.0) - ell * (ell + 1.0)) + bexp * s2d
        if case is Case.HARMONIC:
            energy = om * (n + 1.5 + problem.free["c"] / s2d)
            derived = {"a": -0.5 * w[1] - om * s2d, "b": b}
        else:
            energy = -0.5 * bexp * bexp
            derived = {"B": bexp, "b": b}
        wave = WaveForm(gamma, {2: -om / 2.0, 1: bexp, -1: -s2d}, roots, Variable.R)
        return ode, w, derived, energy, wave

    if fam is Family.OCTIC:
        s2h, fh, beta, om, bexp = _octic_rates(problem)
        g = problem.free["g"]
        derived = {
            "b": -0.5 * w[2] + 0.5 * (beta + ell) * (beta - ell - 1.0) - g * om / s2h + bexp * fh,
            "c": -0.5 * w[1] + bexp * g / s2h + (beta - 1.0) * fh - om * s2h,
            "d": -0.5 * w[0] + g * (2.0 * beta - 3.0) / (2.0 * s2h) + 0.5 * fh * fh + bexp * s2h,
        }
        if case is Case.HARMONIC:
            energy = om * (n + 0.5 + beta)
            derived = {"a": -0.5 * w[3] - om * fh, **derived}
        else:
            energy = -0.5 * bexp * bexp
            derived = {"B": bexp, **derived}
        coeffs = {2: -om / 2.0, 1: bexp, -1: -fh, -2: -g / (2.0 * s2h), -3: -s2h / 3.0}
        wave = WaveForm(beta, coeffs, roots, Variable.R)
        return ode, w, derived, energy, wave

    l2 = _l_half_sq(ode, w)
    if l2 < 0:
        raise ConstraintInfeasible(f"derived (l+1/2)^2 = {l2} < 0")
    derived = {"l_half_sq": l2, "ell": -0.5 + math.sqrt(l2)}
    if fam is Family.SEXTIC:
        s2d, xi, lead, om = _sextic_rates(problem, omega)
        energy = om * (2.0 * n + 2.0 + xi)
        wave = WaveForm(lead, {2: -om / 2.0, -2: -s2d / 2.0}, roots, Variable.T_EQ_R2)
    else:
        s2d, _, eta, om = _decatic_rates(problem, omega)
        c, d = problem.free["c"], problem.free["d"]
        energy = om * (2.0 * n + eta + 0.5)
        derived = {
            "a": -2.0 * w[0] + (c / s2d) * (eta - 1.5) - om * s2d,
            # The r^-6 coupling the constructed wavefunction actually solves
            # (fixed by the eta that kills the z^-1 term of the working ODE).
            "b_pot": s2d * (eta - 2.5) + c * c / (4.0 * d),
            **derived,
        }
        coeffs = {2: -om / 2.0, -2: -c / (2.0 * s2d), -4: -s2d / 4.0}
        wave = WaveForm(eta, coeffs, roots, Variable.Z_EQ_R2)
    if problem.match_ell:
        derived["omega"] = om
    return ode, w, derived, energy, wave


# ----------------------------------------------------------------------
# Pipeline
# ----------------------------------------------------------------------


def _branch_solution(
    problem: FamilyProblem,
    roots: RootSet,
    omega: float | None = None,
) -> QESSolution:
    ode, w, derived, energy, wave = _derivation(problem, roots, omega)
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

    In match-ell mode (sextic, decatic) the branches are every match of the
    requested ell in OMEGA_RANGE (`_match_ell`); a given omega is not used,
    and neither is `cfg`.
    """
    if problem.match_ell and problem.family in _MATCH_ELL_FAMILIES:
        branches, failures = _match_ell(problem)
    else:
        ode, variable = build_ode(problem)
        try:
            branches = [(roots, None) for roots in solve_bae(ode, problem.n, cfg, variable)]
        except NoSolutionFound as exc:
            return [], [BranchFailure(None, type(exc).__name__, str(exc))]
        failures = []
    solutions: list[QESSolution] = []
    for roots, omega in branches:
        try:
            solutions.append(_branch_solution(problem, roots, omega))
        except (ConstraintInfeasible, InvalidExponent, InvalidParameter) as exc:
            failures.append(BranchFailure(roots, type(exc).__name__, str(exc)))
    solutions.sort(key=lambda s: _branch_key(s.roots.roots))
    return solutions, failures


def solve_family(
    problem: FamilyProblem, cfg: SolverConfig = SolverConfig()
) -> list[QESSolution]:
    """One QESSolution per admissible root branch, deterministic for a seed."""
    return solve_family_detailed(problem, cfg)[0]


# ----------------------------------------------------------------------
# Match-ell solve (sextic, decatic)
# ----------------------------------------------------------------------

# The omega range searched for a match.
OMEGA_RANGE = (1e-6, 1.0e3)
NO_MATCH = "no omega in (0, 1e3] matches the requested ell"
MATCH_TOL = 1e-8  # the largest |(l+1/2)^2 - (ell+1/2)^2| a match may leave


def _match_problem(problem: FamilyProblem) -> tuple[np.ndarray, np.ndarray]:
    """A and L such that S = sum c_k t^k is a branch with the requested
    ell at omega exactly when (A + omega L + w0 T0) c = 0 (the decatic) or
    (A + omega L) c = 0 (the sextic, where w0 is fixed by the ell).

    At omega, the matrix of `bethe._ode_matrix` is affine in omega.  Let
    w = w_{m-1} be the top root-dependent W coefficient (w1 for the decatic,
    w0 for the sextic).  `_l_half_sq` is (l+1/2)^2 at w = 0 less 4 w, so at
    the requested ell w = ((l+1/2)^2 at w = 0 - (ell+1/2)^2) / 4, which is
    affine in omega too.  Adding w T_{m-1} (T_j takes t^k to t^(k+j)) to the
    matrix at omega = 1 and 2 gives A + omega L.
    """
    n, target = problem.n, (problem.ell + 0.5) ** 2
    mats = []
    for omega in (1.0, 2.0):
        ode, _ = build_ode(problem, omega)
        m = _root_dependent(ode)
        top = (_l_half_sq(ode, (0.0,) * 5) - target) / 4.0
        mats.append(_ode_matrix(ode, n) + top * np.eye(n + m, n + 1, 1 - m))
    L = mats[1] - mats[0]
    return mats[0] - L, L


def _match_ell(problem: FamilyProblem) -> tuple[list[tuple[RootSet, float]], list[BranchFailure]]:
    """Every match of the requested ell in OMEGA_RANGE, as (roots, omega)
    pairs in ascending omega, and a BranchFailure for each candidate that
    fails (one NO_MATCH record when there is no candidate).

    The candidates are the real solutions (omega, c) of `_match_problem`
    with omega in OMEGA_RANGE: for the sextic the real eigenvalues of the
    (n+1)x(n+1) pencil A c = -omega L c, for the decatic the real solutions
    (omega, w0) of the (n+2)x(n+1) two-parameter problem (`bethe.
    _two_parameter`).  The roots of S go through the polish and filters of
    the root search at omega.  The closing formulas' rounding leaves omega
    off by up to ~1e-13 relative, so one secant step on the mismatch that
    the MATCH_TOL gate measures follows.  Two candidates that reach the same
    match (within DEDUP_TOL in roots and relative omega) give it once.
    """
    n, target = problem.n, (problem.ell + 0.5) ** 2
    A, L = _match_problem(problem)
    if A.shape[0] == A.shape[1]:
        omegas, vecs = np.linalg.eig(-np.linalg.solve(L, A))
        real = omegas.imag == 0.0
        omegas, coeffs = omegas.real[real], vecs.T[real].real
    else:
        omegas, _, coeffs = _two_parameter(A, L, np.eye(n + 2, n + 1))
    lo, hi = OMEGA_RANGE
    keep = (lo <= omegas) & (omegas <= hi) & (coeffs[:, -1] != 0.0)
    order = np.argsort(omegas[keep])
    candidates = [(float(om), c) for om, c in zip(omegas[keep][order], coeffs[keep][order])]

    def at(om: float, start: np.ndarray) -> tuple[RootSet | None, float]:
        """The roots polished from start at om, None if the filters reject
        them, and their mismatch."""
        ode, variable = build_ode(problem, om)
        roots = RootSet(0, (), variable, 0.0, math.inf)
        if n:
            with np.errstate(all="ignore"):
                accepted = _accept_candidate(ode, _polish(ode, start))
            if accepted is None:
                return None, math.nan
            ordered, res, sep = accepted
            roots = RootSet(n, tuple(complex(z) for z in ordered), variable, res, sep)
        return roots, _l_half_sq(ode, compute_w_coefficients(ode, roots)) - target

    matches: list[tuple[RootSet, float]] = []
    failures: list[BranchFailure] = []
    for candidate_omega, c in candidates:
        start = _canonical_order(np.roots(c[::-1]).astype(complex))
        omega = candidate_omega
        roots, miss = at(omega, start)
        if roots is not None:
            h = 1e-6 * omega
            moved, miss_h = at(omega + h, roots.as_array())
            if moved is None:
                roots = None
            elif miss_h != miss:
                omega = float(omega - miss * h / (miss_h - miss))
                roots, miss = at(omega, roots.as_array())
        if roots is None or not abs(miss) <= MATCH_TOL:
            ode, variable = build_ode(problem, candidate_omega)
            with np.errstate(all="ignore"):
                res = float(np.max(np.abs(_residual_batch(ode, start[None])), initial=0.0))
            rejected = RootSet(n, tuple(complex(z) for z in start), variable, res, _separation(start))
            reason = "the root filters reject it" if roots is None else f"it misses the ell by {miss:.3e}"
            detail = f"the match at omega = {candidate_omega:.9g}: {reason}"
            failures.append(BranchFailure(rejected, "ConstraintInfeasible", detail))
        elif not any(
            abs(omega - om) <= DEDUP_TOL * om and np.max(np.abs(roots.as_array() - r.as_array()), initial=0.0) < DEDUP_TOL
            for r, om in matches
        ):
            matches.append((roots, omega))
    if not candidates:
        failures.append(BranchFailure(None, "ConstraintInfeasible", NO_MATCH))
    return matches, failures


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
