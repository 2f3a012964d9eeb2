"""The working ODEs, derived couplings and (l+1/2)^2 written out by hand.

`working_ode` is the P and Q of each family as `families.build_ode` wrote
them before it derived them from the prefactor's log-derivative.

These are the expansions that `families.derive_parameters` used before it
read each coupling off one W coefficient of the working ODE, kept as an
independent test reference: `derived_couplings` and `l_half_sq` take the
roots' power sums s1..s4 and the pair sum, and the potential's couplings,
and use none of `qesolve`'s formulas.  `match_problem` is the
interpolation that built the match-ell problem before `(l+1/2)^2` had one
implementation: it evaluates the top root-dependent W coefficient
(`bethe._closing_w`) and `l_half_sq` at s1 = 0 and 1 and solves for the
s1 of the requested ell.
"""

import math

import numpy as np

from qesolve import Case, Family, FamilyProblem, RootSet
from qesolve.bethe import _closing_w, _ode_matrix, _root_dependent
from qesolve.families import build_ode


def working_ode(problem: FamilyProblem, omega: float | None = None) -> tuple[tuple, tuple]:
    """P and Q (ascending) of the family's working ODE."""
    f, fam = problem.free, problem.family
    coulombic = problem.case is Case.COULOMBIC
    if fam is Family.QUARTIC:
        s2d = math.sqrt(2.0 * f["d"])
        gamma = 1.0 + f["c"] / s2d
        w, bexp = (0.0, f["a"] / (problem.n + gamma)) if coulombic else (f["omega"], 0.0)
        return (0.0, 0.0, 1.0, 0.0, 0.0), (2.0 * s2d, 2.0 * gamma, 2.0 * bexp, -2.0 * w, 0.0, 0.0)
    if fam is Family.SEXTIC:
        s2d = math.sqrt(2.0 * f["d"])
        return (0.0, 0.0, 1.0, 0.0, 0.0), (s2d, 2.0 + f["e"] / s2d, -_omega(problem, omega), 0.0, 0.0, 0.0)
    if fam is Family.OCTIC:
        h, g = f["h"], f["g"]
        s2h = math.sqrt(2.0 * h)
        fh = (f["f"] - g**2 / (4.0 * h)) / s2h
        beta = 2.0 + f["e"] / s2h - g * fh / (2.0 * h)
        w, bexp = (0.0, f["a"] / (problem.n + beta)) if coulombic else (f["omega"], 0.0)
        return (0.0, 0.0, 0.0, 0.0, 1.0), (2.0 * s2h, 2.0 * g / s2h, 2.0 * fh, 2.0 * beta, 2.0 * bexp, -2.0 * w)
    s2d = math.sqrt(2.0 * f["d"])
    eta = 2.5 + f["b"] / s2d + (f["c"] ** 2 / 16.0) * math.sqrt(2.0 / f["d"] ** 3)
    return (0.0, 0.0, 0.0, 1.0, 0.0), (s2d, f["c"] / s2d, eta + 0.5, -_omega(problem, omega), 0.0, 0.0)


def power_sums(roots: RootSet) -> tuple[float, float, float, float, float]:
    """s1, s2, s3, s4 and the pair sum sum_{i<j} t_i t_j, real parts."""
    arr = roots.as_array()
    s1, s2, s3, s4 = (float(np.sum(arr**k).real) for k in (1, 2, 3, 4))
    return s1, s2, s3, s4, (s1 * s1 - s2) / 2.0


def _omega(problem: FamilyProblem, omega: float | None) -> float:
    return problem.free["omega"] if omega is None else omega


def l_half_sq(problem: FamilyProblem, omega: float, s1: float) -> float:
    """(l+1/2)^2 of a sextic or decatic branch with root sum s1 at omega."""
    f, n = problem.free, problem.n
    s2d = math.sqrt(2.0 * f["d"])
    if problem.family is Family.SEXTIC:
        xi = f["e"] / s2d
        return 4.0 * n * (n + 1.0 + xi) + (xi + 1.0) ** 2 - 2.0 * omega * (s2d + 2.0 * s1)
    eta = 2.5 + f["b"] / s2d + (f["c"] ** 2 / 16.0) * math.sqrt(2.0 / f["d"] ** 3)
    return (eta - 0.5) ** 2 + 4.0 * n * (n + eta - 0.5) - 2.0 * omega * (f["c"] / s2d + 2.0 * s1)


def derived_couplings(problem: FamilyProblem, roots: RootSet, omega: float | None = None) -> dict:
    """The couplings `derive_parameters` returns for these roots."""
    f, n, ell = problem.free, problem.n, problem.ell
    harmonic = problem.case is Case.HARMONIC
    s1, s2, s3, s4, pair = power_sums(roots)
    if problem.family is Family.QUARTIC:
        s2d = math.sqrt(2.0 * f["d"])
        gamma = 1.0 + f["c"] / s2d
        w, bexp = (f["omega"], 0.0) if harmonic else (0.0, f["a"] / (n + gamma))
        b = 0.5 * (
            gamma * (gamma - 1.0)
            - ell * (ell + 1.0)
            + n * (n - 1.0 + 2.0 * gamma)
            + 2.0 * bexp * (s2d + s1)
            - 2.0 * w * s2
        )
        return {"a": -w * (s2d + s1), "b": b} if harmonic else {"B": bexp, "b": b}
    if problem.family is Family.OCTIC:
        h, g = f["h"], f["g"]
        s2h = math.sqrt(2.0 * h)
        fh = (f["f"] - g**2 / (4.0 * h)) / s2h
        beta = 2.0 + f["e"] / s2h - g * fh / (2.0 * h)
        w, bexp = (f["omega"], 0.0) if harmonic else (0.0, f["a"] / (n + beta))
        b = (
            0.5 * ((beta + ell) * (beta - ell - 1.0) + n * (n + 2.0 * beta - 1.0))
            - g * w / s2h
            - w * s2
            + bexp * (fh + s1)
        )
        c = -w * s3 + bexp * (g / s2h + s2) + (n + beta - 1.0) * (fh + s1) - w * s2h
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
        first = {"a": -w * (fh + s1)} if harmonic else {"B": bexp}
        return {**first, "b": b, "c": c, "d": d}
    w = _omega(problem, omega)
    l2 = l_half_sq(problem, w, s1)
    derived = {"l_half_sq": l2, "ell": -0.5 + math.sqrt(l2)}
    if problem.family is Family.DECATIC:
        c, d = f["c"], f["d"]
        s2d = math.sqrt(2.0 * d)
        eta = 2.5 + f["b"] / s2d + (c**2 / 16.0) * math.sqrt(2.0 / d**3)
        derived["a"] = (
            -2.0 * w * s2
            + (4.0 * n + 2.0 * eta - 3.0) * s1
            + 2.0 * n * c / s2d
            + (c / s2d) * (eta - 1.5)
            - w * s2d
        )
        derived["b_pot"] = s2d * (eta - 2.5) + c * c / (4.0 * d)
    if problem.match_ell:
        derived["omega"] = w
    return derived


def match_problem(problem: FamilyProblem) -> tuple[np.ndarray, np.ndarray]:
    """A and L of the match-ell problem (A + omega L [+ w0 T0]) c = 0,
    with the top root-dependent W coefficient interpolated in s1."""
    n, target = problem.n, (problem.ell + 0.5) ** 2
    mats, top = [], []
    for omega in (1.0, 2.0):
        ode, _ = build_ode(problem, omega)
        mats.append(_ode_matrix(ode, n))
        m = _root_dependent(ode)
        l0, l1 = (l_half_sq(problem, omega, s1) for s1 in (0.0, 1.0))
        w0, w1 = (_closing_w(ode.p, ode.q, n, s1, 0.0, 0.0, 0.0, 0.0)[m - 1] for s1 in (0.0, 1.0))
        top.append(w0 + (w1 - w0) * (target - l0) / (l1 - l0))
    L = mats[1] - mats[0]
    A = mats[0] - L
    slope = top[1] - top[0]
    shift = np.eye(n + m, n + 1, 1 - m)
    return A + (top[0] - slope) * shift, L + slope * shift
