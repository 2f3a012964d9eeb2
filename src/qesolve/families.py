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
wavefunction shape, power by power in r (`_closing`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from numbers import Integral, Real
from typing import Mapping, NamedTuple

import numpy as np

from .bethe import (
    DEDUP_TOL,
    PolyODE,
    RootSet,
    SolverConfig,
    Variable,
    _branch_key,
    _branches,
    _multiparameter,
    _ode_matrix,
    _residual_batch,
    _separation,
    _starts,
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
        object.__setattr__(self, "case", Case(self.case))
        object.__setattr__(self, "free", dict(self.free))
        _require(isinstance(self.n, Integral) and not isinstance(self.n, bool), "n is an integer")
        _require(isinstance(self.ell, Real), "ell is a real number")
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
    _require(math.isfinite(problem.ell), "ell is finite")
    _require(all(isinstance(v, Real) and math.isfinite(v) for v in f.values()), "couplings are finite")
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
    return _Gauge(ode, variable, chi, k, s, d)


def _closing(g: _Gauge, w) -> dict:
    """{i: [r^i] (bracket - 2E)} at the W coefficients w, for every power i
    that L = chi'' + chi'^2 or w reach.  The radial equation makes it
    L_i - s w_{k + i/d}: 2 lambda_i at r^-i (plus l(l+1) at r^-2), -2E at
    r^0, omega^2 at r^2, and 0 elsewhere."""
    out: dict = {}
    for j, c in g.chi.items():
        out[j - 1] = out.get(j - 1, 0.0) + j * c
        for i, b in g.chi.items():
            out[i + j] = out.get(i + j, 0.0) + b * c
    for j, wj in enumerate(w):
        i = (j - g.k) * g.d
        out[i] = out.get(i, 0.0) - g.s * wj
    return out


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
    return _derivation(problem, g, roots, compute_w_coefficients(g.ode, roots))


def _derivation(problem: FamilyProblem, g: _Gauge, roots: RootSet, w) -> tuple:
    """derive_parameters at the gauge g and the W coefficients w, unchecked."""
    t = _closing(g, w)
    ell, powers = problem.ell, _POWERS[problem.family]
    derived = {"B": g.chi[0]} if problem.case is Case.COULOMBIC else {}
    for power, name in powers.items():
        if name not in problem.free:
            derived[name] = 0.5 * (t[-power] - (ell * (ell + 1.0) if power == 2 else 0.0))
    if 2 not in powers:
        l2 = t[-2] + 0.25
        if l2 < 0:
            raise ConstraintInfeasible(f"derived (l+1/2)^2 = {l2} < 0")
        derived.update(l_half_sq=l2, ell=-0.5 + math.sqrt(l2))
        if problem.match_ell:
            derived["omega"] = -g.chi[1]
    coeffs = {j + 1: c / (j + 1) for j, c in sorted(g.chi.items(), reverse=True) if j != -1}
    wave = WaveForm(g.chi[-1], coeffs, roots, g.variable)
    return derived, -0.5 * t[0], wave


# ----------------------------------------------------------------------
# Pipeline
# ----------------------------------------------------------------------


def _branch_solution(
    problem: FamilyProblem,
    roots: RootSet,
    omega: float | None = None,
) -> QESSolution:
    """The solution of a branch that `solve_bae` or `_match_ell` accepted at
    omega: its acceptance checked the roots and computed the W coefficients
    and identity residual that it carries, so neither is redone here."""
    derived, energy, wave = _derivation(problem, _gauge(problem, omega), roots, roots.w)
    solution = QESSolution(
        problem,
        roots,
        derived,
        energy,
        wave,
        {
            "bae_residual": roots.bae_residual,
            "separation": roots.separation,
            "identity_residual": roots.identity_residual,
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
    requested ell in OMEGA_RANGE (`_match_ell`); a given omega is not used.
    No mode uses `cfg`: it is still taken, and ignored, because the
    benchmark workloads pass one (see `SolverConfig`).
    """
    if problem.match_ell and problem.family in _MATCH_ELL_FAMILIES:
        branches, failures = _match_ell(problem)
    else:
        ode, variable = build_ode(problem)
        try:
            branches = [(roots, None) for roots in solve_bae(ode, problem.n, variable=variable)]
        except NoSolutionFound as exc:
            return [], [BranchFailure(None, type(exc).__name__, str(exc))]
        failures = []
    solutions: list[QESSolution] = []
    for roots, omega in branches:
        try:
            solutions.append(_branch_solution(problem, roots, omega))
        except (ConstraintInfeasible, InvalidExponent, InvalidParameter, NotIntegrable) as exc:
            failures.append(BranchFailure(roots, type(exc).__name__, str(exc)))
    solutions.sort(key=lambda s: _branch_key(s.roots.roots))
    return solutions, failures


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


def _match_problem(problem: FamilyProblem) -> tuple[np.ndarray, np.ndarray]:
    """A and L such that S = sum c_k t^k is a branch with the requested
    ell at omega exactly when (A + omega L + w0 T0) c = 0 (the decatic) or
    (A + omega L) c = 0 (the sextic, where w0 is fixed by the ell).

    At omega, the matrix of `bethe._ode_matrix` is affine in omega.  The
    derived (l+1/2)^2 = L_-2 - s w_{k-1} + 1/4 (`_closing`), so at the
    requested ell the top root-dependent W coefficient is
    w_{k-1} = (L_-2 + 1/4 - (ell+1/2)^2) / s, which is affine in omega too.
    Adding w_{k-1} T_{k-1} (T_j takes t^i to t^(i+j)) to the matrix at
    omega = 1 and 2 gives A + omega L.
    """
    n, target = problem.n, (problem.ell + 0.5) ** 2
    mats = []
    for omega in (1.0, 2.0):
        g = _gauge(problem, omega)
        top = (_closing(g, (0.0,) * 5)[-2] + 0.25 - target) / g.s
        mats.append(_ode_matrix(g.ode, n) + top * np.eye(n + g.k, n + 1, 1 - g.k))
    L = mats[1] - mats[0]
    return mats[0] - L, L


def _match_ell(problem: FamilyProblem) -> tuple[list[tuple[RootSet, float]], list[BranchFailure]]:
    """Every match of the requested ell in OMEGA_RANGE, as (roots, omega)
    pairs in ascending omega, and a BranchFailure for each candidate that
    fails (one NO_MATCH record when there is no candidate).

    The candidates are the real solutions (omega, c) of `_match_problem`
    with omega in OMEGA_RANGE, from `bethe._multiparameter`: with m = 1 for
    the sextic, whose (n+1)x(n+1) pencil is A c = -omega L c, and with
    m = 2 for the decatic, whose (n+2)x(n+1) problem is in (omega, w0).
    The candidates' roots come from one stacked eigensolve
    (`bethe._starts`), and each goes through `bethe._branches` at omega as
    a batch of one row: the polish and filters of `solve_bae`.  The closing
    formulas' rounding leaves omega off by up to ~1e-13 relative, so one
    secant step on the mismatch (at the W that acceptance computed) that
    the MATCH_TOL gate measures follows.  Two candidates that reach
    the same match (within DEDUP_TOL in roots and relative omega) give it
    once.
    """
    n, target = problem.n, (problem.ell + 0.5) ** 2
    A, L = _match_problem(problem)
    Bs = [L] if A.shape[0] == A.shape[1] else [L, np.eye(n + 2, n + 1)]
    coeffs = _multiparameter(A, Bs)
    # The parameters of each c, omega (and w0 for the decatic): the
    # least-squares solution of sum_j w_j B_j c = -A c, for all rows at once.
    w = np.linalg.pinv(np.stack([coeffs @ B.T for B in Bs], axis=-1)) @ (coeffs @ -A.T)[..., None]
    omegas = w[:, 0, 0]
    lo, hi = OMEGA_RANGE
    keep = (lo <= omegas) & (omegas <= hi)
    order = np.argsort(omegas[keep])
    candidates = list(zip(omegas[keep][order].tolist(), _starts(coeffs[keep][order])))

    def at(om: float, start: np.ndarray) -> tuple[RootSet | None, float]:
        """The branch polished from start at om, None if the filters reject
        it, and its mismatch at the W its acceptance computed."""
        g = _gauge(problem, om)
        roots = _branches(g.ode, start[None, :], g.variable)[0]
        if roots is None:
            return None, math.nan
        return roots, _closing(g, roots.w)[-2] + 0.25 - target

    matches: list[tuple[RootSet, float]] = []
    failures: list[BranchFailure] = []
    for candidate_omega, start in candidates:
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
    chi = _gauge(problem).chi
    gsig, fh, beta, omega = chi[-3], chi[-2], chi[-1], problem.free.get("omega", 0.0)
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
    chi = _gauge(problem).chi
    gsig, fh, beta, omega = chi[-3], chi[-2], chi[-1], problem.free.get("omega", 0.0)
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


def reduction_check(problem: FamilyProblem, limit: ReductionLimit, eps: float) -> ReductionReport:
    """Compare octic-derived quantities against the quartic/sextic limit.

    The octic problem is rebuilt with the vanishing couplings at magnitude
    eps along the path that keeps (beta, fh, g/sqrt(2h)) fixed; eps = 0 is
    handled as an exact call into the target family (zero differences).
    """
    if problem.family is not Family.OCTIC:
        raise InvalidParameter("reduction_check expects an octic problem")
    limit = ReductionLimit(limit)
    target = _reduction_target(problem, limit)
    target_solutions = solve_family(target)
    if eps == 0.0:
        keys = _quantities(target_solutions[0], limit, octic_side=False).keys() if target_solutions else ()
        return ReductionReport(
            0.0, limit, target, {k: 0.0 for k in keys}, len(target_solutions)
        )
    octic = _rescaled_octic(problem, limit, eps)
    octic_solutions = solve_family(octic)
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
