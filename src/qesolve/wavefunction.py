"""Closed-form wavefunction evaluation, nodes, support and normalization.

All evaluation is done in log-magnitude/sign form so arbitrarily steep
exponential factors never overflow.  Derivatives are analytic; no finite
differences are used outside the test oracles.  One scan of log|Psi| in
u = ln r finds the support (`_support`) that both the norm and the FD
grid (`oracle.default_fd_grid`) use, and the norm integrates |Psi|^2 on
it by the trapezoidal rule in u.
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

_NODE_GUARD = 1e-12


def _variable_terms(variable: Variable, r: np.ndarray):
    """v(r), v'(r), v''(r) for the polynomial-factor variable."""
    if variable is Variable.R:
        return r, np.ones_like(r), np.zeros_like(r)
    return r * r, 2.0 * r, np.full_like(r, 2.0)


def _split_roots(roots: np.ndarray):
    """The real roots (|Im t| <= 1e-10 (1 + |t|)), as floats, and the rest."""
    scale = 1.0 + np.abs(roots) if len(roots) else np.ones(0)
    real_mask = np.abs(roots.imag) <= 1e-10 * scale
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
# Support and normalization
# ----------------------------------------------------------------------


def _support(solution: QESSolution) -> tuple[float, float, float] | None:
    """The u = ln r interval (u_lo, u_hi) outside which log|Psi| has fallen
    30 below its peak (amplitude ~1e-13), and that peak; None if no scan of
    u in [-4 span, 4 span] for span = 2, 3, 4.5, 7 brackets it."""
    for span in (2.0, 3.0, 4.5, 7.0):
        u = np.linspace(-span * 4.0, span * 4.0, 3001)
        with np.errstate(all="ignore"):
            log_mag, _ = _log_psi_arrays(solution, np.exp(u))
        log_mag = np.where(np.isfinite(log_mag), log_mag, -np.inf)
        imax = int(np.argmax(log_mag))
        peak = log_mag[imax]
        left = np.nonzero(log_mag[: imax + 1] <= peak - 30.0)[0]
        right = np.nonzero(log_mag[imax:] <= peak - 30.0)[0]
        if len(left) and len(right) and 0 < imax < len(u) - 1:
            return float(u[left[-1]]), float(u[imax + right[0]]), float(peak)
    return None


# Intervals at which the trapezoidal rule starts, and past which it gives up.
_FIRST_INTERVALS, _MAX_INTERVALS = 64, 1 << 14


def integrate_adaptive(f, a: float, b: float, rel_tol: float = 1e-10) -> float:
    """Trapezoidal rule for int_a^b f, doubling the intervals from 64 (and
    evaluating only the new midpoints) until two levels agree to rel_tol.

    `f` must accept a numpy array of abscissae.  The rule converges
    exponentially for an integrand analytic in a strip around [a, b] that
    is negligible at both ends (Trefethen & Weideman, SIAM Review 56,
    2014), as |Psi|^2 is in u = ln r on the interval of `_support`.
    Raises NotIntegrable when the levels still disagree at 2^14 intervals.
    """
    n = _FIRST_INTERVALS
    h = (b - a) / n
    y = f(np.linspace(a, b, n + 1))
    total = float(h * (np.sum(y) - 0.5 * (y[0] + y[-1])))
    while n < _MAX_INTERVALS:
        previous, total = total, float(0.5 * (total + h * np.sum(f(a + h * (np.arange(n) + 0.5)))))
        n, h = 2 * n, 0.5 * h
        if abs(total - previous) <= rel_tol * abs(total):
            return total
    raise NotIntegrable(f"the trapezoidal rule did not converge on {n} intervals")


def norm_quadrature(solution: QESSolution, rel_tol: float = 1e-10) -> float:
    """Integral of |Psi|^2 over (0, inf) by the trapezoidal rule in u = ln r.

    Integrates |Psi|^2 r du on the support `_support` finds, the interval
    `oracle.default_fd_grid` also uses; the integrand falls double
    exponentially past it on both sides.  Raises NotIntegrable when no
    support is found or the rule does not converge to rel_tol.
    """
    support = _support(solution)
    if support is None:
        raise NotIntegrable("could not bracket the support of |Psi|^2")
    ua, ub, peak = support
    # 2 peak + ub bounds 2 log|Psi| + u on [ua, ub], so nothing overflows.
    shift = 2.0 * peak + ub

    def integrand(u: np.ndarray) -> np.ndarray:
        log_mag, _ = _log_psi_arrays(solution, np.exp(u))
        return np.exp(2.0 * log_mag + u - shift)

    return math.exp(shift) * integrate_adaptive(integrand, ua, ub, rel_tol=rel_tol)


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
