"""The one-branch radial residual that the one-pass residual of
`qesolve.oracle` replaced, kept as a test reference.

`schrodinger_residual` takes one solution at a time: its own grid, node
exclusion by filtering, the analytic Psi''/Psi on the kept points, and the
bracket and |2V| each summed term by term.  The tests check that
`oracle._residual_rows`, which takes every branch of a solve as the rows of
one array pass, gives each row the same float.
"""

import math

import numpy as np

from qesolve.bethe import Variable
from qesolve.errors import InvalidParameter, NodeSingularity
from qesolve.families import QESSolution
from qesolve.oracle import assemble_potential
from qesolve.wavefunction import node_positions


def default_grid(solution: QESSolution) -> np.ndarray:
    """200 points from 1e-2 to 20 times the roots' radial scale (at least 1)."""
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


def psi2(solution: QESSolution, r: np.ndarray) -> np.ndarray:
    """Psi''/Psi on r, from the analytic derivative of the closed form."""
    wf = solution.waveform
    if solution.roots.variable is Variable.R:
        v, dv, ddv = r, np.ones_like(r), np.zeros_like(r)
    else:
        v, dv, ddv = r * r, 2.0 * r, np.full_like(r, 2.0)
    roots = solution.roots.as_array()
    gamma = wf.leading_exponent
    d1 = gamma / r
    d2 = -gamma / (r * r)
    for p, cp in wf.exp_coeffs.items():
        fp = float(p)
        d1 = d1 + cp * fp * r ** (fp - 1.0)
        d2 = d2 + cp * fp * (fp - 1.0) * r ** (fp - 2.0)
    if len(roots):
        diff = v[:, None] - roots[None, :]
        if np.any(np.abs(diff) <= 1e-12 * (1.0 + np.abs(roots)[None, :])):
            raise NodeSingularity("evaluation point coincides with a node")
        inv = 1.0 / diff
        d1 = d1 + (dv[:, None] * inv).sum(axis=1).real
        d2 = d2 + (ddv[:, None] * inv - (dv[:, None] * inv) ** 2).sum(axis=1).real
    psi1 = np.real(d1)
    return psi1 * psi1 + np.real(d2)


def schrodinger_residual(solution: QESSolution, grid: np.ndarray | None = None) -> float:
    """Max over the grid, less the points within 5e-3 (1 + node) of a node, of
    |-Psi''/Psi + bracket(r) - 2E| / (|2E| + |ell(ell+1)|/r^2 + omega^2 r^2 + |2V(r)|)."""
    pot = assemble_potential(solution)
    r = default_grid(solution) if grid is None else np.asarray(grid, float)
    for node in node_positions(solution):
        r = r[np.abs(r - node) > 5e-3 * (1.0 + abs(node))]
    if len(r) == 0:
        raise InvalidParameter("residual grid is empty after node exclusion")
    bracket = pot.ell * (pot.ell + 1.0) / (r * r) + pot.omega**2 * r * r
    two_v = np.zeros_like(r)
    for k, lam in pot.inverse_powers.items():
        bracket = bracket + 2.0 * lam * r ** (-float(k))
        two_v = two_v + 2.0 * lam * r ** (-float(k))
    two_e = 2.0 * solution.energy
    num = np.abs(-psi2(solution, r) + bracket - two_e)
    den = (
        abs(two_e)
        + np.abs(pot.ell * (pot.ell + 1.0)) / (r * r)
        + pot.omega**2 * r * r
        + np.abs(two_v)
        + 1e-300
    )
    return float(np.max(num / den))
