"""Closed-form wavefunction evaluation, nodes and normalization.

All evaluation is done in log-magnitude/sign form so arbitrarily steep
exponential factors never overflow.  Derivatives are analytic; no finite
differences are used outside the test oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bethe import Variable
from .errors import (
    InvalidParameter,
    NodeSingularity,
    NotIntegrable,
    UnsupportedKind,
)
from .besselk import besselk
from .families import QESSolution
from .quadrature import integrate_adaptive

_NODE_GUARD = 1e-12


def _variable_terms(variable: Variable, r: np.ndarray):
    """v(r), v'(r), v''(r) for the polynomial-factor variable."""
    if variable is Variable.R:
        return r, np.ones_like(r), np.zeros_like(r)
    return r * r, 2.0 * r, np.full_like(r, 2.0)


def _split_roots(roots: np.ndarray, conj_tol: float = 1e-10):
    scale = 1.0 + np.abs(roots) if len(roots) else np.ones(0)
    real_mask = np.abs(roots.imag) <= conj_tol * scale
    return roots[real_mask].real, roots[~real_mask]


def _log_psi_arrays(solution: QESSolution, r: np.ndarray):
    wf = solution.waveform
    v, _, _ = _variable_terms(wf.variable, r)
    log_mag = wf.leading_exponent * np.log(r)
    for p, cp in wf.exp_coeffs.items():
        log_mag = log_mag + cp * r ** float(p)
    sign = np.ones_like(r)
    real_roots, complex_roots = _split_roots(solution.roots.as_array())
    with np.errstate(divide="ignore"):
        for t in real_roots:
            diff = v - t
            log_mag = log_mag + np.log(np.abs(diff))
            sign = sign * np.sign(diff)
        for t in complex_roots:
            log_mag = log_mag + np.log(np.abs(v - t))
    return log_mag, sign


def eval_log_psi(solution: QESSolution, r):
    """log|Psi(r)| and sign (+1, -1, or 0 exactly at a node).

    Works for scalar or array r; r must be positive.
    """
    arr = np.asarray(r, dtype=float)
    if np.any(arr <= 0.0):
        raise InvalidParameter("r > 0 required")
    log_mag, sign = _log_psi_arrays(solution, np.atleast_1d(arr))
    if arr.ndim == 0:
        return float(log_mag[0]), float(sign[0])
    return log_mag, sign


def _log_deriv_arrays(solution: QESSolution, r: np.ndarray):
    wf = solution.waveform
    v, dv, ddv = _variable_terms(wf.variable, r)
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
        small = np.abs(diff) <= _NODE_GUARD * (1.0 + np.abs(roots)[None, :])
        if np.any(small):
            raise NodeSingularity("evaluation point coincides with a node")
        inv = 1.0 / diff
        d1 = d1 + (dv[:, None] * inv).sum(axis=1).real
        d2 = d2 + (ddv[:, None] * inv - (dv[:, None] * inv) ** 2).sum(axis=1).real
    psi1 = np.real(d1)
    psi2 = psi1 * psi1 + np.real(d2)
    return psi1, psi2


def eval_psi_log_derivatives(solution: QESSolution, r):
    """(Psi'/Psi, Psi''/Psi) from the analytic derivative of the closed form."""
    arr = np.asarray(r, dtype=float)
    if np.any(arr <= 0.0):
        raise InvalidParameter("r > 0 required")
    psi1, psi2 = _log_deriv_arrays(solution, np.atleast_1d(arr))
    if arr.ndim == 0:
        return float(psi1[0]), float(psi2[0])
    return psi1, psi2


def node_positions(solution: QESSolution) -> list[float]:
    """Positive-r zeros of the polynomial factor, ascending."""
    real_roots, _ = _split_roots(solution.roots.as_array())
    if solution.roots.variable is Variable.R:
        nodes = [float(t) for t in real_roots if t > 0.0]
    else:
        nodes = [math.sqrt(float(t)) for t in real_roots if t > 0.0]
    return sorted(nodes)


def count_nodes(solution: QESSolution) -> int:
    """Number of wavefunction nodes on r > 0."""
    return len(node_positions(solution))


# ----------------------------------------------------------------------
# Normalization
# ----------------------------------------------------------------------


def _log_integrand(solution: QESSolution):
    def phi(u: np.ndarray) -> np.ndarray:
        r = np.exp(u)
        log_mag, _ = _log_psi_arrays(solution, r)
        return 2.0 * log_mag + u

    return phi


def norm_quadrature(solution: QESSolution, rel_tol: float = 1e-10) -> float:
    """Integral of |Psi|^2 over (0, inf) by adaptive quadrature.

    Substitutes r = exp(u) and integrates where the log-integrand is within
    60 of its maximum; the integrand vanishes super-exponentially past the
    cut on both sides.
    """
    phi = _log_integrand(solution)
    lo, hi = -12.0, 12.0
    for _ in range(8):
        u = np.linspace(lo, hi, 1201)
        with np.errstate(invalid="ignore"):
            vals = phi(u)
        vals = np.where(np.isfinite(vals), vals, -np.inf)
        imax = int(np.argmax(vals))
        vmax = vals[imax]
        interior = 0 < imax < len(u) - 1
        left_done = np.any(vals[: imax + 1] < vmax - 60.0)
        right_done = np.any(vals[imax:] < vmax - 60.0)
        if interior and left_done and right_done:
            break
        lo, hi = lo * 2.0, hi * 2.0
    else:
        raise NotIntegrable("could not bracket the support of |Psi|^2")
    left = u[: imax + 1][vals[: imax + 1] < vmax - 60.0]
    right = u[imax:][vals[imax:] < vmax - 60.0]
    ua = float(left[-1]) if len(left) else lo
    ub = float(right[0]) if len(right) else hi

    def integrand(uu: np.ndarray) -> np.ndarray:
        return np.exp(phi(uu) - vmax)

    value, _ = integrate_adaptive(integrand, ua, ub, rel_tol=rel_tol)
    return float(math.exp(vmax) * value)


class IntegralKind(str, Enum):
    GAUSS_INV1 = "gauss_inv1"  # exp(-mu1 r^2 - mu2 / r)
    EXP_INV1 = "exp_inv1"  # exp(-mu1 r   - mu2 / r)
    GAUSS_INV2 = "gauss_inv2"  # exp(-mu1 r^2 - mu2 / r^2)


@dataclass(frozen=True)
class NormIntegralSpec:
    """int_0^inf r^nu exp(-mu1 r^k1 - mu2 / r^k2) dr, shape set by `kind`."""

    nu: float
    mu1: float
    mu2: float
    kind: IntegralKind

    def __post_init__(self):
        object.__setattr__(self, "kind", IntegralKind(self.kind))
        if not (self.nu > 0 and self.mu1 > 0 and self.mu2 > 0):
            raise InvalidParameter("nu, mu1, mu2 must all be positive")


def norm_closed_form(spec: NormIntegralSpec) -> float:
    """Bessel-K closed forms for the two supported integral kinds.

    EXP_INV1:   2 (mu2/mu1)^((nu+1)/2) K_{nu+1}(2 sqrt(mu1 mu2))
    GAUSS_INV2:   (mu2/mu1)^((nu+1)/4) K_{(nu+1)/2}(2 sqrt(mu1 mu2))

    GAUSS_INV1 has no elementary closed form here; use norm_quadrature.
    """
    x = 2.0 * math.sqrt(spec.mu1 * spec.mu2)
    ratio = spec.mu2 / spec.mu1
    if spec.kind is IntegralKind.EXP_INV1:
        return 2.0 * ratio ** ((spec.nu + 1.0) / 2.0) * besselk(spec.nu + 1.0, x)
    if spec.kind is IntegralKind.GAUSS_INV2:
        return ratio ** ((spec.nu + 1.0) / 4.0) * besselk((spec.nu + 1.0) / 2.0, x)
    raise UnsupportedKind("GAUSS_INV1 is only available through norm_quadrature")
