"""The match-ell scan that the enumeration replaced, kept as a test reference.

`_follow` and `_scan_match` are the scan, bisection and hops that matched
the decatic's ell before every match came from one two-parameter problem.
`scan_matches` runs them on each branch at a starting omega, and the tests
check that every match the scan finds is among those `solve_family`
returns.
"""

import math

import numpy as np

from qesolve import ConstraintInfeasible, RootSet, solve_bae
from qesolve.bethe import _branches
from qesolve.families import MATCH_TOL, NO_MATCH, OMEGA_RANGE, FamilyProblem, build_ode

from coupling_reference import l_half_sq, power_sums


def scan_matches(problem: FamilyProblem, omega0: float = 1.0) -> list[tuple[RootSet, float]]:
    """(roots, omega) of every branch at omega0 that the scan matches."""
    ode, variable = build_ode(problem, omega0)
    found = []
    for branch in solve_bae(ode, problem.n, variable=variable):
        try:
            found.append(_scan_match(problem, branch, omega0))
        except ConstraintInfeasible:
            pass
    return found


def _follow(problem: FamilyProblem, roots: RootSet, om_from: float, om_to: float) -> RootSet | None:
    """Carry a branch from om_from to om_to in geometric hops of at most a
    factor e^0.2.  Each hop polishes the previous roots at the new omega and
    accepts them with the root search's own filters; None when a hop is
    rejected or jumps to a different branch."""
    hops = math.ceil(abs(math.log(om_to / om_from)) / 0.2) if problem.n else 0
    for j in range(1, hops + 1):
        ode, variable = build_ode(problem, om_from * (om_to / om_from) ** (j / hops))
        prev = roots.as_array()
        accepted = _branches(ode, prev[None, :], variable)[0]
        if accepted is None:
            return None
        ordered = accepted.as_array()
        scale = 1.0 + max(float(np.max(np.abs(ordered))), float(np.max(np.abs(prev))))
        if np.max(np.abs(ordered - prev)) > 0.6 * scale:
            return None
        roots = accepted
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
        return l_half_sq(problem, om, power_sums(moved)[0]) - target

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
