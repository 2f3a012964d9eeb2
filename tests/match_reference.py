"""The three-round secant loop that the bordered polish of
`qesolve.families._match_ell` replaced, kept as a test reference.

`match_ell` takes the candidates that `_match_ell` takes and runs each
through `bethe._branches` as a batch of one row, three times in turn: at
its omega, at the secant's probe omega + h and at the secant's omega.  The
failure records and the dedup walk are the ones of `_match_ell`.  The tests
check that the bordered polish finds the same matches and failures, to
rounding level.  `bethe._branches` and the `families` helpers are looked
up at each call, so a test that hooks the filters or the closing formulas
hooks both.
"""

import math

import numpy as np

from qesolve import bethe, families
from qesolve.bethe import DEDUP_TOL, RootSet, _residual_batch, _separations
from qesolve.families import MATCH_TOL, NO_MATCH, OMEGA_RANGE, BranchFailure, FamilyProblem


def candidates(problem: FamilyProblem) -> list[tuple[float, np.ndarray]]:
    """(omega, start roots) of each candidate in range, in ascending omega."""
    omegas, starts = bethe._border_candidates(families._border(problem)[0], problem.n, OMEGA_RANGE)
    return list(zip(omegas.tolist(), starts))


def match_ell(problem: FamilyProblem) -> tuple[list, list[BranchFailure]]:
    """What `_match_ell` returns, one candidate and one row at a time."""
    n, target = problem.n, (problem.ell + 0.5) ** 2
    found = candidates(problem)

    def at(om: float, start: np.ndarray):
        g = families._gauge(problem, om)
        roots = bethe._branches(g.ode, start[None, :], g.variable)[0]
        if roots is None:
            return None, math.nan, g
        return roots, families._closing(g, roots.w)[-2] + 0.25 - target, g

    matches, failures = [], []
    for candidate_omega, start in found:
        omega = candidate_omega
        roots, miss, g = at(omega, start)
        if roots is not None:
            h = 1e-6 * omega
            moved, miss_h, _ = at(omega + h, roots.as_array())
            if moved is None:
                roots = None
            elif miss_h != miss:
                omega = float(omega - miss * h / (miss_h - miss))
                roots, miss, g = at(omega, roots.as_array())
        if roots is None or not abs(miss) <= MATCH_TOL:
            g0 = families._gauge(problem, candidate_omega)
            with np.errstate(all="ignore"):
                res = float(np.max(np.abs(_residual_batch(g0.ode, start[None])), initial=0.0))
            rejected = RootSet(n, tuple(complex(z) for z in start), g0.variable, res, float(_separations(start[None])[0]))
            reason = "the root filters reject it" if roots is None else f"it misses the ell by {miss:.3e}"
            detail = f"the match at omega = {candidate_omega:.9g}: {reason}"
            failures.append(BranchFailure(rejected, "ConstraintInfeasible", detail))
        elif not any(
            abs(omega - om) <= DEDUP_TOL * om and np.max(np.abs(roots.as_array() - r.as_array()), initial=0.0) < DEDUP_TOL
            for r, om, _ in matches
        ):
            matches.append((roots, omega, g))
    if not found:
        failures.append(BranchFailure(None, "ConstraintInfeasible", NO_MATCH))
    return [(roots, g) for roots, _, g in matches], failures
