"""Closed-form wavefunction evaluation, nodes, support and normalization.

All evaluation is done in log-magnitude/sign form so arbitrarily steep
exponential factors never overflow.  Derivatives are analytic; no finite
differences are used outside the test oracles.  One scan of log|Psi| in
u = ln r, on a grid computed once per process, finds the support
(`_support`) that both the norm and the FD grid (`oracle.default_fd_grid`)
use, and the norm is the trapezoidal sum of the scan's own samples of
|Psi|^2 in u on it, checked against the sum over every other sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

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
# (point, root) pairs whose terms are formed at once: `_log_deriv_arrays`
# takes its rows in blocks of about this many, so that its memory does not
# grow with the number of branches of a solve.
_PAIRS = 1 << 12


def _split_roots(roots: np.ndarray):
    """The real roots (|Im t| <= 1e-10 (1 + |t|)), as floats, and the rest."""
    scale = 1.0 + np.abs(roots) if len(roots) else np.ones(0)
    real_mask = np.abs(roots.imag) <= 1e-10 * scale
    return roots[real_mask].real, roots[~real_mask]


def _log_psi_arrays(solution: QESSolution, r: np.ndarray, log_r=None, power=None):
    """log|Psi| and its sign on r, from log_r = ln r and power(p) = r^p if given."""
    wf = solution.waveform
    if power is None:
        log_r, power = np.log(r), lambda p: r ** float(p)
    v = r if wf.variable is Variable.R else power(2)  # r ** 2.0 is r * r
    log_mag = wf.leading_exponent * log_r
    for p, cp in wf.exp_coeffs.items():
        log_mag = log_mag + cp * power(p)
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


def _at(arrays, r):
    """The pair `arrays` gives on the positive r, a scalar or an array."""
    arr = np.asarray(r, dtype=float)
    if np.any(arr <= 0.0):
        raise InvalidParameter("r > 0 required")
    a, b = arrays(np.atleast_1d(arr))
    return (float(a[0]), float(b[0])) if arr.ndim == 0 else (a, b)


def eval_log_psi(solution: QESSolution, r):
    """log|Psi(r)| and sign (+1, -1, or 0 exactly at a node).

    Works for scalar or array r; r must be positive.
    """
    return _at(lambda x: _log_psi_arrays(solution, x), r)


def _column(values) -> np.ndarray:
    """One float per row, as a column that broadcasts along the rows."""
    return np.array(values, dtype=float)[:, None]


def _log_deriv_arrays(solutions: list[QESSolution], r: np.ndarray, keep: np.ndarray | None = None):
    """(Psi'/Psi, Psi''/Psi) of solutions[i] on the row r[i], for rows that
    share the variable, degree and powers of exp_coeffs, as the branches of
    one solve do.  Raises NodeSingularity for a point on a root, unless
    `keep` drops the point: a dropped point's values may be non-finite."""
    wfs = [s.waveform for s in solutions]
    if wfs[0].variable is Variable.R:
        v, dv, ddv = r, np.ones_like(r), np.zeros_like(r)
    else:
        v, dv, ddv = r * r, 2.0 * r, np.full_like(r, 2.0)
    gamma = _column([wf.leading_exponent for wf in wfs])
    d1 = gamma / r
    d2 = -gamma / (r * r)
    for p in wfs[0].exp_coeffs:
        cp, fp = _column([wf.exp_coeffs[p] for wf in wfs]), float(p)
        d1 = d1 + cp * fp * r ** (fp - 1.0)
        d2 = d2 + cp * fp * (fp - 1.0) * r ** (fp - 2.0)
    roots = np.array([s.roots.as_array() for s in solutions], dtype=complex)
    if roots.size:
        step = max(1, _PAIRS // max(1, r.shape[1] * roots.shape[1]))
        for b in (slice(i, i + step) for i in range(0, len(r), step)):
            diff = v[b, :, None] - roots[b, None, :]
            small = np.abs(diff) <= _NODE_GUARD * (1.0 + np.abs(roots[b])[:, None, :])
            if np.any(small if keep is None else small & keep[b, :, None]):
                raise NodeSingularity("evaluation point coincides with a node")
            with np.errstate(divide="ignore", invalid="ignore"):
                inv = 1.0 / diff
                dv_inv = dv[b, :, None] * inv
                d1[b] += dv_inv.sum(axis=-1).real
                d2[b] += (ddv[b, :, None] * inv - dv_inv**2).sum(axis=-1).real
    return d1, d1 * d1 + d2


def eval_psi_log_derivatives(solution: QESSolution, r):
    """(Psi'/Psi, Psi''/Psi) from the analytic derivative of the closed form."""
    return _at(lambda x: [d[0] for d in _log_deriv_arrays([solution], x[None, :])], r)


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


@lru_cache(maxsize=4)  # one entry per span
def _scan_grid(span: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """u, r = e^u and ln r of the support scan over |u| <= 4 span, read-only."""
    u = np.linspace(-span * 4.0, span * 4.0, 3001)
    r = np.exp(u)
    grid = u, r, np.log(r)
    for a in grid:
        a.flags.writeable = False
    return grid


@lru_cache(maxsize=32)  # holds the 24 of the families: p = -4..2 (not 0) at each span
def _scan_power(span: float, p: int) -> np.ndarray:
    """r^p on the scan over |u| <= 4 span, read-only."""
    rp = _scan_grid(span)[1] ** float(p)
    rp.flags.writeable = False
    return rp


def _support(solution: QESSolution) -> tuple | None:
    """(u_lo, u_hi, peak, u, log_mag): the u = ln r interval outside which
    log|Psi| has fallen 30 below its peak (amplitude ~1e-13), that peak, and
    the scan's samples of u and log|Psi| from u_lo to u_hi; None if no scan
    of u in [-4 span, 4 span] for span = 2, 3, 4.5, 7 brackets it."""
    for span in (2.0, 3.0, 4.5, 7.0):
        u, r, log_r = _scan_grid(span)
        with np.errstate(all="ignore"):
            log_mag, _ = _log_psi_arrays(solution, r, log_r, lambda p: _scan_power(span, p))
        log_mag = np.where(np.isfinite(log_mag), log_mag, -np.inf)
        imax = int(np.argmax(log_mag))
        peak = log_mag[imax]
        left = np.nonzero(log_mag[: imax + 1] <= peak - 30.0)[0]
        right = np.nonzero(log_mag[imax:] <= peak - 30.0)[0]
        if len(left) and len(right) and 0 < imax < len(u) - 1:
            lo, hi = left[-1], imax + right[0]
            return float(u[lo]), float(u[hi]), float(peak), u[lo : hi + 1], log_mag[lo : hi + 1]
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


def _norm(solution: QESSolution, support: tuple | None, rel_tol: float = 1e-10) -> float:
    """norm_quadrature on the support `_support` found."""
    if support is None:
        raise NotIntegrable("could not bracket the support of |Psi|^2")
    ua, ub, peak, u, log_mag = support
    # 2 peak + ub bounds 2 log|Psi| + u on [ua, ub], so nothing overflows.
    shift = 2.0 * peak + ub
    y, h = np.exp(2.0 * log_mag + u - shift), (ub - ua) / (len(u) - 1)
    total = float(h * (np.sum(y) - 0.5 * (y[0] + y[-1])))
    # Every other sample; for an odd count of intervals this stops one
    # sample short of ub, where |Psi|^2 is ~1e-26 of its peak.
    coarse = 2.0 * h * (np.sum(y[::2]) - 0.5 * (y[0] + y[::2][-1]))
    if not abs(total - coarse) <= rel_tol * abs(total):

        def integrand(uu: np.ndarray) -> np.ndarray:
            log_mag, _ = _log_psi_arrays(solution, np.exp(uu))
            return np.exp(2.0 * log_mag + uu - shift)

        total = integrate_adaptive(integrand, ua, ub, rel_tol=rel_tol)
    try:
        norm = math.exp(shift) * total
    except OverflowError:
        norm = math.inf
    if math.isinf(norm):
        raise NotIntegrable(f"the norm, e^{shift + math.log(total):.6g}, exceeds the largest float")
    return norm


def norm_quadrature(solution: QESSolution, rel_tol: float = 1e-10) -> float:
    """Integral of |Psi|^2 over (0, inf) by the trapezoidal rule in u = ln r.

    Integrates |Psi|^2 r du on the support `_support` finds, the interval
    `oracle.default_fd_grid` also uses; the integrand falls double
    exponentially past it on both sides.  The trapezoidal sum of the scan's
    own samples is the norm when it agrees to rel_tol with the sum over
    every other sample; otherwise `integrate_adaptive` integrates afresh.
    Raises NotIntegrable when no support is found, the rule does not
    converge to rel_tol, or the norm exceeds the largest float.
    """
    return _norm(solution, _support(solution), rel_tol)


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
