"""Correctness checks made apart from qesolve.

Nothing here calls the solver, the oracles or the document layer.  The
wavefunction shape, the closed-form energy, the radial-equation residual,
the sextic tridiagonal matrix and the finite-difference matrix are built
from the equations of each family, with numpy (and scipy for the FD
eigenvalues) only.  The inputs are the program's outputs: roots, derived
couplings and energies, which these checks accept or reject.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

RESIDUAL_TOL = 1e-8  # relative radial residual of every returned branch
ENERGY_RTOL = 1e-12  # closed-form energy against the reported one
ELL_TOL = 1e-8  # matched ell against the requested integer
LADDER_ULPS = 8  # harmonic energy spacing step*omega, in ulps of E
ROOT_RTOL = 1e-6  # sextic branch roots against the matrix eigenvectors


@dataclass(frozen=True)
class Shape:
    """log Psi = lead ln r + sum_p coeffs[p] r^p + sum_i ln(r^vpow - t_i),
    solving -Psi'' + [ell(ell+1)/r^2 + omega^2 r^2 + sum_k 2 lam_k / r^k] Psi
    = 2 E Psi with lam_k = powers[k]."""

    lead: float
    coeffs: dict
    vpow: int
    ell: float
    omega: float
    powers: dict
    energy: float  # closed form, from the inputs alone


def shape_of(family: str, case: str, n: int, ell: float, free: dict, derived: dict,
             match_ell: bool = False) -> Shape:
    """Closed-form shape, potential and energy of one branch.

    `derived` supplies the couplings the program claims (a, b, ... and the
    matched omega or effective ell); the exponents and the energy follow from
    the free couplings by the family's asymptotic matching.
    """
    if family == "quartic":
        s2d = math.sqrt(2.0 * free["d"])
        gamma = 1.0 + free["c"] / s2d
        if case == "harmonic":
            omega, bexp, a = free["omega"], 0.0, derived["a"]
            energy = omega * (n + gamma + 0.5)
        else:
            omega, a = 0.0, free["a"]
            bexp = a / (n + gamma)
            energy = -0.5 * bexp * bexp
        return Shape(gamma, {2: -omega / 2.0, 1: bexp, -1: -s2d}, 1, float(ell), omega,
                     {1: a, 2: derived["b"], 3: free["c"], 4: free["d"]}, energy)
    if family == "sextic":
        s2d = math.sqrt(2.0 * free["d"])
        xi = free["e"] / s2d
        omega = derived["omega"] if match_ell else free["omega"]
        return Shape(1.5 + xi, {2: -omega / 2.0, -2: -s2d / 2.0}, 2, derived["ell"], omega,
                     {4: free["e"], 6: free["d"]}, omega * (2.0 * n + 2.0 + xi))
    if family == "octic":
        h, g = free["h"], free["g"]
        s2h = math.sqrt(2.0 * h)
        fh = (free["f"] - g * g / (4.0 * h)) / s2h
        beta = 2.0 + free["e"] / s2h - g * fh / (2.0 * h)
        if case == "harmonic":
            omega, bexp, a = free["omega"], 0.0, derived["a"]
            energy = omega * (n + beta + 0.5)
        else:
            omega, a = 0.0, free["a"]
            bexp = a / (n + beta)
            energy = -0.5 * bexp * bexp
        coeffs = {2: -omega / 2.0, 1: bexp, -1: -fh, -2: -g / (2.0 * s2h), -3: -s2h / 3.0}
        powers = {1: a, 2: derived["b"], 3: derived["c"], 4: derived["d"],
                  5: free["e"], 6: free["f"], 7: g, 8: h}
        return Shape(beta, coeffs, 1, float(ell), omega, powers, energy)
    if family == "decatic":
        c, d = free["c"], free["d"]
        s2d = math.sqrt(2.0 * d)
        eta = 2.5 + free["b"] / s2d + (c * c / 16.0) * math.sqrt(2.0 / d**3)
        omega = derived["omega"] if match_ell else free["omega"]
        coeffs = {2: -omega / 2.0, -2: -c / (2.0 * s2d), -4: -s2d / 4.0}
        powers = {4: derived["a"], 6: derived["b_pot"], 8: c, 10: d}
        return Shape(eta, coeffs, 2, derived["ell"], omega, powers,
                     omega * (2.0 * n + eta + 0.5))
    raise ValueError(f"unknown family {family!r}")


def _bracket_terms(shape: Shape, r: np.ndarray) -> list:
    terms = [shape.ell * (shape.ell + 1.0) / (r * r), shape.omega**2 * r * r]
    terms += [2.0 * lam * r ** (-float(k)) for k, lam in shape.powers.items()]
    return terms


def radial_residual(shape: Shape, roots, energy: float, num: int = 96) -> float:
    """Max over a log grid of |-Psi''/Psi + bracket - 2E|, relative to the sum
    of the magnitudes of every term that enters it (so cancellation near the
    origin and near nodes is measured against the terms that cancel)."""
    roots = np.asarray(roots, dtype=complex)
    scale = 1.0
    if roots.size:
        scale = max(1.0, float(np.max(np.abs(roots))) ** (1.0 / shape.vpow))
    r = np.geomspace(0.03, 12.0, num) * scale
    p = shape.vpow
    if roots.size:
        v = r**p
        keep = np.min(np.abs(v[:, None] - roots[None, :]), axis=1) > 1e-9 * (1.0 + np.max(np.abs(roots)))
        r = r[keep]
    d1 = [shape.lead / r]
    d2 = [-shape.lead / (r * r)]
    for k, ck in shape.coeffs.items():
        if ck != 0.0:
            d1.append(ck * k * r ** (k - 1.0))
            d2.append(ck * k * (k - 1.0) * r ** (k - 2.0))
    if roots.size:
        v, dv, ddv = r**p, p * r ** (p - 1.0), p * (p - 1.0) * r ** (p - 2.0)
        inv = 1.0 / (v[:, None] - roots[None, :])
        d1 += list((dv[:, None] * inv).T)
        d2 += list((ddv[:, None] * inv - (dv[:, None] * inv) ** 2).T)
    first = np.sum(d1, axis=0)
    psi2 = (first * first + np.sum(d2, axis=0)).real
    bracket = _bracket_terms(shape, r)
    two_e = 2.0 * energy
    num_ = np.abs(-psi2 + np.sum(bracket, axis=0) - two_e)
    den = (np.sum(np.abs(d1), axis=0) ** 2 + np.sum(np.abs(d2), axis=0)
           + np.sum(np.abs(bracket), axis=0) + abs(two_e))
    return float(np.max(num_ / den))


def branch_problems(label, shape: Shape, roots, energy: float) -> list[str]:
    """Residual and closed-form-energy check of one returned branch."""
    out = []
    res = radial_residual(shape, roots, energy)
    if not res <= RESIDUAL_TOL:
        out.append(f"{label}: radial residual {res:.3e} > {RESIDUAL_TOL:g}")
    if not abs(energy - shape.energy) <= ENERGY_RTOL * max(1.0, abs(energy)):
        out.append(f"{label}: energy {energy!r} != closed form {shape.energy!r}")
    return out


def ladder_problems(label, step: float, omega: float, lower: list, upper: list) -> list[str]:
    """Harmonic energies of consecutive degrees differ by exactly step*omega."""
    out = []
    for e_lo in lower:
        for e_hi in upper:
            ulp = math.ulp(max(abs(e_hi), 1.0))
            if abs((e_hi - e_lo) - step * omega) > LADDER_ULPS * ulp:
                out.append(f"{label}: spacing {e_hi - e_lo!r} != {step}*omega = {step * omega!r}")
    return out


def sextic_matrix_branches(free: dict, n: int) -> list[np.ndarray]:
    """Root sets of the sextic's degree-n polynomial solutions.

    With S = sum_k c_k t^k, the operator t^2 S'' + (q0 + q1 t + q2 t^2) S'
    + (w0 - n q2 t) S acts on degree-n polynomials as a tridiagonal matrix M
    with M c = -w0 c:  M[k,k] = k(k-1) + q1 k,  M[k,k+1] = q0 (k+1),
    M[k+1,k] = q2 (k-n).  The off-diagonal products q0 q2 (k+1)(k-n) are
    positive for omega > 0, so M is similar to a symmetric Jacobi matrix with
    n+1 simple real eigenvalues: exactly n+1 real branches.
    """
    s2d = math.sqrt(2.0 * free["d"])
    q0, q1, q2 = s2d, 2.0 + free["e"] / s2d, -free["omega"]
    if n == 0:
        return [np.zeros(0)]
    k = np.arange(n + 1, dtype=float)
    upper = q0 * (k[:-1] + 1.0)
    lower = q2 * (k[:-1] - n)
    # D M D^-1 is symmetric for d_{k+1} = d_k sqrt(upper_k / lower_k).
    dscale = np.concatenate([[1.0], np.cumprod(np.sqrt(upper / lower))])
    sym = np.diag(k * (k - 1.0) + q1 * k) + np.diag(np.sqrt(upper * lower), 1) + np.diag(np.sqrt(upper * lower), -1)
    vals, vecs = np.linalg.eigh(sym)
    if np.min(np.diff(vals)) <= 1e-9 * max(1.0, float(np.max(np.abs(vals)))):
        raise ArithmeticError("sextic matrix has a repeated eigenvalue")
    branches = []
    for j in range(n + 1):
        c = vecs[:, j] / dscale
        branches.append(np.sort_complex(np.roots(c[::-1])))
    return branches


def match_sextic_branches(free: dict, n: int, returned: list) -> tuple[int, list[str]]:
    """(expected count, problems): every returned root set must be one of the
    matrix branches, each at most once."""
    expected = sextic_matrix_branches(free, n)
    unused = list(range(len(expected)))
    out = []
    for roots in returned:
        got = np.sort_complex(np.asarray(roots, dtype=complex))
        hit = None
        for j in unused:
            ref = expected[j]
            if len(ref) == len(got) and np.all(np.abs(got - ref) <= ROOT_RTOL * (1.0 + np.abs(ref))):
                hit = j
                break
        if hit is None:
            out.append(f"sextic n={n}: branch {got} is not an eigenvector of the tridiagonal matrix")
        else:
            unused.remove(hit)
    return len(expected), out


def fd_eigen_error(shape: Shape, energy: float, r_min: float, r_max: float, n_points: int) -> float:
    """|lambda - 2E| for the eigenvalue nearest 2E of the 3-point Dirichlet
    discretisation on the grid, by LAPACK bisection (scipy)."""
    from scipy.linalg import eigvalsh_tridiagonal

    r = np.linspace(r_min, r_max, n_points + 2)[1:-1]
    h = (r_max - r_min) / (n_points + 1)
    diag = 2.0 / (h * h) + np.sum(_bracket_terms(shape, r), axis=0)
    off = np.full(n_points - 1, -1.0 / (h * h))
    two_e = 2.0 * energy
    delta = max(0.75, 0.02 * abs(two_e))
    vals = eigvalsh_tridiagonal(diag, off, select="v", select_range=(two_e - delta, two_e + delta))
    if len(vals) == 0:
        return math.inf
    return float(np.min(np.abs(vals - two_e)))
