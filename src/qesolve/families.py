"""Front-ends for the four singular inverse-power potential families.

Each family is specified once: by its variable v (r for the inverse quartic
and octic, t = r^2 for the sextic, z = r^2 for the decatic) and by the
Laurent coefficients of chi', the log-derivative of the prefactor in
Psi = exp(chi) S(v) (`_chi`, all rates fixed by the singular tail):

    quartic:  chi' = s2d/r^2 + gamma/r + B - w r
    sextic:   chi' = s2d/r^3 + (3/2 + e/s2d)/r - w r
    octic:    chi' = s2h/r^4 + g/(s2h r^3) + fh/r^2 + beta/r + B - w r
    decatic:  chi' = s2d/r^5 + c/(s2d r^3) + eta/r - w r

with s2d = sqrt(2 d), s2h = sqrt(2 h), fh = (f - g^2/(4h)) / s2h, and B = 0
(harmonic) or w = 0 (coulombic).  One gauge transform (`_gauge`) derives
the working ODE that S solves; the root engine solves it, and the closing
W coefficients of each branch give its derived couplings, energy and
wavefunction shape, power by power in r (`_closing`).  A solution keeps
each fact once: its roots and their variable in its `RootSet`, the shape
of exp(chi) in its `WaveForm`.  In match-ell mode
(sextic, decatic) omega is derived: every match is a real solution of one
eigenproblem linear in omega, polished in its roots and omega together
(`_match_ell`).  This module derives the match condition once (`_border`);
`bethe` builds the eigenproblem's pencil from it and solves it
(`bethe._border_candidates`), as it does the root system's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from numbers import Integral, Real
from typing import Mapping, NamedTuple

import numpy as np

from .bethe import (
    PolyODE,
    RootSet,
    SolverConfig,
    Variable,
    _at,
    _Border,
    _border_candidates,
    _bordered_branches,
    _branch_key,
    _distinct,
    _residual_batch,
    _separations,
    bae_residuals,
    compute_w_coefficients,
    solve_bae,
    verify_polynomial_identity,  # not called here: perfbench/tracing.py times it under this name
)
from .errors import (
    ConstraintInfeasible,
    InvalidCase,
    InvalidExponent,
    InvalidParameter,
    NoSolutionFound,
    NotIntegrable,
)


class Family(str, Enum):
    QUARTIC = "quartic"
    SEXTIC = "sextic"
    OCTIC = "octic"
    DECATIC = "decatic"


class Case(str, Enum):
    HARMONIC = "harmonic"  # B = 0, omega > 0
    COULOMBIC = "coulombic"  # omega = 0, B < 0


_FREE_KEYS = {
    (Family.QUARTIC, Case.HARMONIC): ("omega", "c", "d"),
    (Family.QUARTIC, Case.COULOMBIC): ("a", "c", "d"),
    (Family.SEXTIC, Case.HARMONIC): ("omega", "e", "d"),
    (Family.OCTIC, Case.HARMONIC): ("omega", "e", "f", "g", "h"),
    (Family.OCTIC, Case.COULOMBIC): ("a", "e", "f", "g", "h"),
    (Family.DECATIC, Case.HARMONIC): ("omega", "b", "c", "d"),
}


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
        object.__setattr__(self, "case", Case(self.case))
        object.__setattr__(self, "free", dict(self.free))
        _require(isinstance(self.n, Integral) and not isinstance(self.n, bool), "n is an integer")
        _require(isinstance(self.ell, Real) and not isinstance(self.ell, bool), "ell is a real number")
        _require(isinstance(self.match_ell, bool), "match_ell is true or false")
        if self.n < 0:
            raise InvalidParameter("n >= 0 required")
        key = (self.family, self.case)
        if key not in _FREE_KEYS:
            raise InvalidCase(
                f"{self.family.value} does not support case {self.case.value}"
            )
        expected = set(_FREE_KEYS[key])
        got = set(self.free)
        if self.match_ell and _derives_ell(self.family):
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
    _require(math.isfinite(problem.ell), "ell is finite")
    _require(all(isinstance(v, Real) and not isinstance(v, bool) and math.isfinite(v) for v in f.values()),
             "couplings are finite")
    _, top = max(_POWERS[problem.family].items())  # the top power's coupling
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

    with the roots t_i and variable v(r) = r or r^2 of the solution's RootSet.
    """

    leading_exponent: float
    exp_coeffs: Mapping[int, float]

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
    """A root branch that was found but rejected while deriving its
    parameters or normalizing its wavefunction."""

    roots: RootSet | None
    error: str
    detail: str


# ----------------------------------------------------------------------
# The gauge transform
# ----------------------------------------------------------------------

# The potential's couplings by inverse power, V = sum_k lambda_k / r^k.  The
# decatic's r^-6 coupling is `b_pot`: its input `b` only fixes eta.
_POWERS = {
    Family.QUARTIC: {1: "a", 2: "b", 3: "c", 4: "d"},
    Family.SEXTIC: {4: "e", 6: "d"},
    Family.OCTIC: {1: "a", 2: "b", 3: "c", 4: "d", 5: "e", 6: "f", 7: "g", 8: "h"},
    Family.DECATIC: {4: "a", 6: "b_pot", 8: "c", 10: "d"},
}


def _derives_ell(family: Family) -> bool:
    """A family with no r^-2 coupling (sextic, decatic) derives (l+1/2)^2,
    and in match-ell mode omega, instead of taking them."""
    return 2 not in _POWERS[family]


def _omega(problem: FamilyProblem, omega: float | None) -> float:
    """The harmonic omega: the override if one is given, else the free
    coupling, which match-ell mode may leave out."""
    if omega is not None:
        return omega
    if "omega" not in problem.free:
        raise InvalidParameter("omega is required unless match_ell is set")
    return problem.free["omega"]


def _chi(problem: FamilyProblem) -> tuple[Variable, dict]:
    """The family's variable and the Laurent coefficients {j: [r^j] chi'} of
    its prefactor's log-derivative, but for the r^1 term -omega and the
    coulombic rate B at r^0, which `_gauge` adds."""
    f, fam = problem.free, problem.family
    if fam is Family.OCTIC:
        h = f["h"]
        s2h = math.sqrt(2.0 * h)
        fh = (f["f"] - f["g"] ** 2 / (4.0 * h)) / s2h
        beta = 2.0 + f["e"] / s2h - f["g"] * fh / (2.0 * h)
        return Variable.R, {-4: s2h, -3: f["g"] / s2h, -2: fh, -1: beta}
    s2d = math.sqrt(2.0 * f["d"])
    if fam is Family.QUARTIC:
        return Variable.R, {-2: s2d, -1: 1.0 + f["c"] / s2d}
    if fam is Family.SEXTIC:
        return Variable.T_EQ_R2, {-3: s2d, -1: 1.5 + f["e"] / s2d}
    kappa = (f["c"] ** 2 / 16.0) * math.sqrt(2.0 / f["d"] ** 3)
    return Variable.Z_EQ_R2, {-5: s2d, -3: f["c"] / s2d, -1: 2.5 + f["b"] / s2d + kappa}


class _Gauge(NamedTuple):
    """Psi = exp(chi) S(v) of one problem at one omega, and the working ODE
    P S'' + Q S' + W S = 0 that S solves; k is the least power that clears
    1/r from Q, s = 1, d = 1 for v = r and s = 4, d = 2 for v = r^2."""

    ode: PolyODE
    variable: Variable
    chi: dict  # {j: [r^j] chi'}
    k: int
    s: float
    d: int
    chi2: dict  # {i: [r^i] (chi'' + chi'^2)}


def _gauge(problem: FamilyProblem, omega: float | None = None) -> _Gauge:
    """The gauge transform of the problem at omega (Turbiner, *Commun. Math.
    Phys.* 118, 1988): for v = r, P = r^k and Q = 2 r^k chi'; for
    v = z = r^2, P = z^(k+1) and Q = z^k (r chi' + 1/2)."""
    variable, chi = _chi(problem)
    if not chi[-1] > 0:
        raise InvalidExponent(f"the leading exponent {chi[-1]} must be positive")
    if problem.case is Case.COULOMBIC:
        chi[0] = problem.free["a"] / (problem.n + chi[-1])  # B
    else:
        chi[1] = -_omega(problem, omega)
    if variable is Variable.R:
        k, s, d = -min(chi), 1.0, 1
        p, q = {k: 1.0}, {j + k: 2.0 * c for j, c in chi.items()}
    else:
        k, s, d = (-min(chi) - 1) // 2, 4.0, 2
        p, q = {k + 1: 1.0}, {(j + 1) // 2 + k: c for j, c in chi.items()}
        q[k] += 0.5
    ode = PolyODE([p.get(j, 0.0) for j in range(5)], [q.get(j, 0.0) for j in range(6)])
    chi2: dict = {}
    for j, c in chi.items():
        chi2[j - 1] = chi2.get(j - 1, 0.0) + j * c
        for i, b in chi.items():
            chi2[i + j] = chi2.get(i + j, 0.0) + b * c
    return _Gauge(ode, variable, chi, k, s, d, chi2)


def _closing(g: _Gauge, w) -> dict:
    """{i: [r^i] (bracket - 2E)} at the W coefficients w, for every power i
    that L = chi'' + chi'^2 (`_Gauge.chi2`) or w reach.  The radial equation
    makes it L_i - s w_{k + i/d}: 2 lambda_i at r^-i (plus l(l+1) at r^-2),
    -2E at r^0, omega^2 at r^2, and 0 elsewhere."""
    out = dict(g.chi2)
    for j, wj in enumerate(w):
        i = (j - g.k) * g.d
        out[i] = out.get(i, 0.0) - g.s * wj
    return out


def _ell_miss(g: _Gauge, w, target: float) -> float:
    """The derived (l+1/2)^2 = t_-2 + 1/4 (`_closing` at the W
    coefficients w) less the requested `target`."""
    return _closing(g, w)[-2] + 0.25 - target


def build_ode(problem: FamilyProblem, omega: float | None = None):
    """Working ODE (p, q only) and the variable its roots live in.

    `omega` overrides the free coupling while the match-ell solve is
    running; normal callers leave it None.
    """
    g = _gauge(problem, omega)
    return g.ode, g.variable


def derive_parameters(problem: FamilyProblem, roots: RootSet, omega: float | None = None):
    """Map a root branch to (derived couplings, energy, waveform).

    The roots are re-checked against the family root system (residual at
    most 1e-8) before any constraint is evaluated.  With t = `_closing` at
    the branch's W coefficients (`compute_w_coefficients`), each derived
    coupling is lambda_j = t_-j / 2 (less l(l+1)/2 at j = 2), the energy is
    -t_0 / 2, and a family without an r^-2 coupling (sextic, decatic)
    derives (l+1/2)^2 = t_-2 + 1/4.
    """
    g = _gauge(problem, omega)
    if roots.variable is not g.variable:
        raise InvalidParameter("roots live in the wrong variable for this family")
    if roots.n != problem.n:
        raise InvalidParameter("root count does not match problem degree")
    if roots.n > 0:
        res = float(np.max(np.abs(bae_residuals(g.ode, roots))))
        if res > 1e-8:
            raise InvalidParameter(f"roots do not solve the root system (residual {res:.3e})")
    return _derivation(problem, g, compute_w_coefficients(g.ode, roots))


def _derivation(problem: FamilyProblem, g: _Gauge, w) -> tuple:
    """derive_parameters at the gauge g and the W coefficients w, unchecked."""
    t = _closing(g, w)
    ell, powers = problem.ell, _POWERS[problem.family]
    derived = {"B": g.chi[0]} if problem.case is Case.COULOMBIC else {}
    for power, name in powers.items():
        if name not in problem.free:
            derived[name] = 0.5 * (t[-power] - (ell * (ell + 1.0) if power == 2 else 0.0))
    if _derives_ell(problem.family):
        l2 = t[-2] + 0.25
        if l2 < 0:
            raise ConstraintInfeasible(f"derived (l+1/2)^2 = {l2} < 0")
        derived.update(l_half_sq=l2, ell=-0.5 + math.sqrt(l2))
        if problem.match_ell:
            derived["omega"] = -g.chi[1]
    coeffs = {j + 1: c / (j + 1) for j, c in sorted(g.chi.items(), reverse=True) if j != -1}
    return derived, -0.5 * t[0], WaveForm(g.chi[-1], coeffs)


# ----------------------------------------------------------------------
# Pipeline
# ----------------------------------------------------------------------


# The errors that reject one branch of a solve, not the solve.
_BRANCH_ERRORS = (ConstraintInfeasible, InvalidExponent, InvalidParameter, NotIntegrable)


def _branch_solutions(problem: FamilyProblem, branches: list[tuple[RootSet, _Gauge]]) -> list:
    """The solution, or BranchFailure, of each branch that `solve_bae` or
    `_match_ell` accepted at the gauge g, in branch order.  Acceptance
    computed the W coefficients and identity residual that each carries; the
    radial residuals and the norms' supports are one array pass each
    (`oracle._residual_rows`, `wavefunction._supports`)."""
    from . import oracle, wavefunction  # deferred: oracle depends on this module

    out: list = []
    for roots, g in branches:
        try:
            derived, energy, wave = _derivation(problem, g, roots.w)
            checks = ("bae_residual", "separation", "identity_residual")
            out.append(QESSolution(problem, roots, derived, energy, wave, {k: getattr(roots, k) for k in checks}))
        except _BRANCH_ERRORS as exc:
            out.append(BranchFailure(roots, type(exc).__name__, str(exc)))
    rows = [i for i, s in enumerate(out) if isinstance(s, QESSolution)]
    solved = [out[i] for i in rows]
    for i, residual, support in zip(rows, oracle._residual_rows(solved) if rows else [], wavefunction._supports(solved)):
        try:
            if isinstance(residual, InvalidParameter):
                raise residual
            out[i].diagnostics.update(schrodinger_residual=residual, norm=wavefunction._norm(out[i], support))
        except _BRANCH_ERRORS as exc:
            out[i] = BranchFailure(out[i].roots, type(exc).__name__, str(exc))
    return out


def solve_family_detailed(
    problem: FamilyProblem, cfg: SolverConfig = SolverConfig()
) -> tuple[list[QESSolution], list[BranchFailure]]:
    """solve_family plus a record of skipped branches (for scans).

    In match-ell mode (sextic, decatic) the branches are every match of the
    requested ell in OMEGA_RANGE (`_match_ell`); a given omega is not used.
    NoSolutionFound gives no solution and its one record.  No mode uses
    `cfg`: it is still taken, and ignored, because the benchmark workloads
    pass one (see `SolverConfig`).
    """
    try:
        if problem.match_ell and _derives_ell(problem.family):
            branches, failures = _match_ell(problem)
        else:
            g = _gauge(problem)
            branches, failures = [(roots, g) for roots in solve_bae(g.ode, problem.n, variable=g.variable)], []
    except NoSolutionFound as exc:
        return [], [BranchFailure(None, type(exc).__name__, str(exc))]
    results = _branch_solutions(problem, branches)
    solutions = sorted((s for s in results if isinstance(s, QESSolution)), key=lambda s: _branch_key(s.roots.roots))
    return solutions, failures + [f for f in results if isinstance(f, BranchFailure)]


def solve_family(
    problem: FamilyProblem, cfg: SolverConfig = SolverConfig()
) -> list[QESSolution]:
    """One QESSolution per admissible root branch, deterministic.  `cfg` is
    taken, and ignored, because the benchmark workloads pass one (see
    `SolverConfig`)."""
    return solve_family_detailed(problem, cfg)[0]


# ----------------------------------------------------------------------
# Match-ell solve (sextic, decatic)
# ----------------------------------------------------------------------

# The omega range searched for a match.
OMEGA_RANGE = (1e-6, 1.0e3)
NO_MATCH = "no omega in (0, 1e3] matches the requested ell"
MATCH_TOL = 1e-8  # the largest |(l+1/2)^2 - (ell+1/2)^2| a match may leave


def _border(problem: FamilyProblem) -> tuple[_Border, Variable]:
    """The match condition as a `bethe._Border`, and the variable: Q is
    affine in omega (Q0 at omega = 0, dQ = Q(1) - Q(0)), and so is the
    derived (l+1/2)^2 = L_-2 - s w_{k-1} + 1/4 (`_closing`), so at the
    requested ell the top root-dependent W coefficient is
    w_{k-1} = (L_-2 + 1/4 - (ell+1/2)^2) / s, affine in omega too."""
    target = (problem.ell + 0.5) ** 2
    g0, g1 = _gauge(problem, 0.0), _gauge(problem, 1.0)
    top0, top1 = (_ell_miss(g, (0.0,) * 5, target) / g.s for g in (g0, g1))
    return _Border(g0.ode, tuple(np.subtract(g1.ode.q, g0.ode.q)), g0.k - 1, top0, top1 - top0), g0.variable


def _match_ell(problem: FamilyProblem) -> tuple[list[tuple[RootSet, _Gauge]], list[BranchFailure]]:
    """Every match of the requested ell in OMEGA_RANGE, as (roots, gauge at
    its omega) pairs in ascending omega, and a BranchFailure for each candidate that
    fails (one NO_MATCH record when there is no candidate).

    The candidates, and their start roots, are the real solutions in
    OMEGA_RANGE of the pencil that `bethe._border_candidates` builds from
    the match condition of `_border`.  The closing formulas' rounding
    leaves omega off by up to ~1e-13 relative (and the roots of an
    ill-conditioned candidate further), so every candidate is polished in
    its roots and omega together and filtered, one
    `bethe._bordered_branches` batch per solve.  A match is kept when it
    misses the ell by at most MATCH_TOL, at the W that acceptance
    computed.  Two candidates that reach the same match (within DEDUP_TOL
    in roots and relative omega, `bethe._distinct`) give it once.
    """
    n, target = problem.n, (problem.ell + 0.5) ** 2
    border, variable = _border(problem)
    omegas, starts = _border_candidates(border, n, OMEGA_RANGE)
    if not len(omegas):
        return [], [BranchFailure(None, "ConstraintInfeasible", NO_MATCH)]
    branches, finals = _bordered_branches(border, starts, omegas, variable)

    matches: list[tuple[RootSet, float, _Gauge]] = []
    failures: list[BranchFailure] = []
    for start, roots, omega, candidate_omega in zip(starts, branches, finals.tolist(), omegas.tolist()):
        if roots is not None:
            g = _gauge(problem, omega)
            miss = _ell_miss(g, roots.w, target)
        if roots is None or not abs(miss) <= MATCH_TOL:
            with np.errstate(all="ignore"):
                res = np.max(np.abs(_residual_batch(_at(border, np.array([candidate_omega])), start[None])), initial=0)
            sep = _separations(start[None])[0]
            rejected = RootSet(n, tuple(complex(z) for z in start), variable, float(res), float(sep))
            reason = "the root filters reject it" if roots is None else f"it misses the ell by {miss:.3e}"
            detail = f"the match at omega = {candidate_omega:.9g}: {reason}"
            failures.append(BranchFailure(rejected, "ConstraintInfeasible", detail))
        else:
            matches.append((roots, omega, g))
    kept = _distinct(np.array([r.roots for r, _, _ in matches], dtype=complex).reshape(len(matches), n),
                     np.array([om for _, om, _ in matches]))
    return [(matches[i][0], matches[i][2]) for i in kept], failures


# ----------------------------------------------------------------------
# Octic reduction limits
# ----------------------------------------------------------------------


class ReductionLimit(str, Enum):
    TO_QUARTIC = "to_quartic"
    TO_SEXTIC = "to_sextic"


@dataclass(frozen=True)
class ReductionReport:
    """`diffs` holds, for the energy, the leading exponent and each Laurent
    coefficient of the radial bracket (`r^-1` .. `r^-8`, see
    `_radial_terms`), in that order, the largest |octic - target| over the
    matched branches."""

    eps: float
    limit: ReductionLimit
    target: FamilyProblem
    diffs: dict
    matched: int


def _limit_path(problem: FamilyProblem, limit: ReductionLimit, eps: float):
    """The limit's target problem, and the octic at eps on the path that
    keeps chi_-3 = g/s2h, chi_-2 = fh and beta = chi_-1 of `_gauge` fixed
    (None at eps = 0).  With s2h = eps the path is

        e = (beta - 2) eps + chi_-3 chi_-2,   f = chi_-2 eps + chi_-3^2 / 2,
        g = chi_-3 eps,                       h = eps^2 / 2.

    TO_QUARTIC needs chi_-3 = 0 and tends to chi' = chi_-2/r^2 + beta/r;
    TO_SEXTIC needs chi_-2 = 0 and tends to chi' = chi_-3/r^3 + beta/r in
    t = r^2, at half the degree."""
    chi, free, n = _gauge(problem).chi, problem.free, problem.n
    g3, fh, beta = chi[-3], chi[-2], chi[-1]
    rate = {k: free[k] for k in ("omega", "a") if k in free}
    if limit is ReductionLimit.TO_QUARTIC:
        if abs(g3) > 1e-12:
            raise InvalidParameter("TO_QUARTIC path requires g = 0")
        if fh <= 0:
            raise InvalidParameter("TO_QUARTIC path requires fh > 0")
        couplings = {**rate, "c": (beta - 1.0) * fh, "d": 0.5 * fh * fh}
        target = FamilyProblem(Family.QUARTIC, problem.case, n, problem.ell, couplings)
    else:
        if abs(fh) > 1e-12:
            raise InvalidParameter("TO_SEXTIC path requires f = g^2/(4h)")
        if g3 <= 0:
            raise InvalidParameter("TO_SEXTIC path requires g > 0")
        if n % 2:
            raise InvalidParameter("TO_SEXTIC comparison needs an even octic degree")
        couplings = {**rate, "e": (beta - 1.5) * g3, "d": 0.5 * g3 * g3}
        target = FamilyProblem(Family.SEXTIC, problem.case, n // 2, problem.ell, couplings)
    if eps == 0.0:
        return target, None
    e, f = (beta - 2.0) * eps + g3 * fh, fh * eps + 0.5 * g3 * g3
    path = {"e": e, "f": f, "g": g3 * eps, "h": 0.5 * eps * eps}
    return target, FamilyProblem(Family.OCTIC, problem.case, n, problem.ell, {**rate, **path})


def _radial_terms(solution: QESSolution) -> dict:
    """The energy, the leading exponent and the Laurent coefficients [r^-k]
    of the solution's radial bracket (`oracle.PotentialSpec.bracket`):
    2 lambda_k, plus ell(ell+1) at k = 2, for the octic's k = 1..8."""
    from . import oracle  # deferred: oracle depends on this module

    pot = oracle.assemble_potential(solution)
    bracket = {k: 2.0 * pot.inverse_powers.get(k, 0.0) for k in _POWERS[Family.OCTIC]}
    bracket[2] += pot.ell * (pot.ell + 1.0)
    terms = {"energy": solution.energy, "exponent": solution.waveform.leading_exponent}
    return terms | {f"r^-{k}": c for k, c in bracket.items()}


def reduction_check(problem: FamilyProblem, limit: ReductionLimit, eps: float) -> ReductionReport:
    """Compare the octic's radial equation, power by power, with that of
    its quartic or sextic limit.

    The octic is rebuilt at eps on the path of `_limit_path`.  Each target
    branch is matched to the octic branch whose `_radial_terms` differ
    from its own least in sum (extra octic branches, roots collapsing with
    eps, have no counterpart); eps = 0 compares the target with itself
    (zero differences).  eps is finite and eps >= 0 (s2h = eps on the path).
    """
    if problem.family is not Family.OCTIC:
        raise InvalidParameter("reduction_check expects an octic problem")
    if not (math.isfinite(eps) and eps >= 0.0):
        raise InvalidParameter(f"reduction_check needs a finite eps >= 0, got {eps!r}")
    limit = ReductionLimit(limit)
    target, octic = _limit_path(problem, limit, eps)
    targets = [_radial_terms(s) for s in solve_family(target)]
    octics = targets if octic is None else [_radial_terms(s) for s in solve_family(octic)]
    diffs: dict = {}
    for t in targets if octics else ():
        best = min(({k: abs(o[k] - v) for k, v in t.items()} for o in octics), key=lambda gap: sum(gap.values()))
        diffs = {k: max(diffs.get(k, 0.0), gap) for k, gap in best.items()}
    return ReductionReport(eps, limit, target, diffs, len(targets) if octics else 0)
