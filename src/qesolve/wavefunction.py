"""Closed-form wavefunction evaluation, nodes, support, normalization and K_nu.

Evaluation is in log-magnitude/sign form, so steep exponential factors
never overflow, and in real arithmetic, the branches of one solve the rows
of one array pass; derivatives are analytic.  One 751-point scan of
log|Psi| in u = ln r, on a grid computed once per process, finds the support
(`_supports`): the interval that the norm integrates and the FD grid
(`oracle.default_fd_grid`) spans.  The norm is the trapezoidal sum of the
scan's own samples of |Psi|^2 in u on it, checked against the sum over every
other sample.  The Bessel-K closed forms of `norm_closed_form` take K_nu
from `besselk`, which integrates it by the same trapezoidal rule
(`integrate_adaptive`).
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
from .families import QESSolution

_NODE_GUARD = 1e-12
# (point, root) pairs whose terms are formed at once: `_log_deriv_arrays`
# takes its rows in blocks of about this many (64 KiB of floats a term), so
# that its memory does not grow with the number of branches of a solve.
_PAIRS = 1 << 13


def _real(t):
    """Whether a root t, or each root of an array, is real: |Im t| <= 1e-10 (1 + |t|)."""
    return abs(t.imag) <= 1e-10 * (1.0 + abs(t))


def _root_parts(solutions: list[QESSolution]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Re t and Im t of each solution's roots (of one degree), Im t = 0 for
    a real root (`_real`), and |t|: each of shape (degree, rows, 1)."""
    roots = np.array([s.roots.roots for s in solutions], dtype=complex).reshape(len(solutions), -1).T[:, :, None]
    return roots.real, np.where(_real(roots), 0.0, roots.imag), np.abs(roots)


def _log_psi_rows(solutions: list[QESSolution], r: np.ndarray, log_r=None, power=None, signed=True):
    """log|Psi| of each solution (of one solve, see `_log_deriv_arrays`) on
    the points r, a row each, from log_r = ln r and power(p) = r^p if given,
    and its sign (+1, -1, or 0 exactly at a node) if `signed`.  A root
    t = a + ib adds log sqrt((v - a)^2 + b^2): for a real root (b = 0) that
    is log|v - a| exactly, as sqrt(x^2) = |x| in floats, and it gives the sign."""
    wfs = [s.waveform for s in solutions]
    if power is None:
        log_r, power = np.log(r), lambda p: r ** float(p)
    v = r if solutions[0].roots.variable is Variable.R else power(2)  # r ** 2.0 is r * r
    log_mag = _column([wf.leading_exponent for wf in wfs]) * log_r
    for p in wfs[0].exp_coeffs:
        log_mag = log_mag + _column([wf.exp_coeffs[p] for wf in wfs]) * power(p)
    sign = np.ones_like(log_mag) if signed else None
    for a, b in zip(*_root_parts(solutions)[:2]):
        diff, real = v - a, not b.any()
        with np.errstate(divide="ignore"):  # log 0 = -inf exactly at a node
            log_mag = log_mag + np.log(np.abs(diff) if real else np.sqrt(diff * diff + b * b))
        sign = sign * (np.sign(diff) if real else np.where(b == 0.0, np.sign(diff), 1.0)) if signed else None
    return log_mag, sign


def _positive(r) -> np.ndarray:
    """r as floats; raises InvalidParameter unless every point is finite and positive."""
    arr = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(arr) & (arr > 0.0)):
        raise InvalidParameter("finite r > 0 required")
    return arr


def _at(arrays, r):
    """The pair `arrays` gives on the finite positive r, a scalar or an array."""
    arr = _positive(r)
    a, b = arrays(arr.reshape(-1))
    return (float(a[0]), float(b[0])) if arr.ndim == 0 else (a.reshape(arr.shape), b.reshape(arr.shape))


def eval_log_psi(solution: QESSolution, r):
    """log|Psi(r)| and sign (+1, -1, or 0 exactly at a node).

    Works for scalar or array r; r must be finite and positive.
    """
    return _at(lambda x: [a[0] for a in _log_psi_rows([solution], x)], r)


def _column(values) -> np.ndarray:
    """One float per row, as a column that broadcasts along the rows."""
    return np.array(values, dtype=float)[:, None]


def _log_deriv_arrays(solutions: list[QESSolution], r: np.ndarray, keep: np.ndarray | None = None):
    """(Psi'/Psi, Psi''/Psi) of solutions[i] on the row r[i], for rows that
    share the variable, degree and powers of exp_coeffs, as the branches of
    one solve do.  A root t = a + ib adds Re 1/(v - t) = (v - a)/q and
    Re 1/(v - t)^2 = ((v - a)^2 - b^2)/q^2, q = (v - a)^2 + b^2.  Raises
    NodeSingularity for a point on a root unless `keep` drops it (a dropped
    point's values may be non-finite)."""
    wfs = [s.waveform for s in solutions]
    if solutions[0].roots.variable is Variable.R:
        v, dv, ddv = r, np.ones_like(r), np.zeros_like(r)
    else:
        v, dv, ddv = r * r, 2.0 * r, np.full_like(r, 2.0)
    gamma = _column([wf.leading_exponent for wf in wfs])
    d1 = gamma / r
    d2 = -gamma / (r * r)
    for p in wfs[0].exp_coeffs:
        term = _column([wf.exp_coeffs[p] for wf in wfs]) * float(p) * r ** (p - 2.0)  # c p r^(p-2)
        d1 = d1 + term * r
        d2 = d2 + (p - 1.0) * term
    a, b, size = _root_parts(solutions)
    step = max(1, _PAIRS // max(1, r.shape[1] * len(a)))
    for k in (slice(i, i + step) for i in range(0, len(r), step)):
        diff, b2 = v[k] - a[:, k], b[:, k] * b[:, k]
        q = diff * diff + b2
        if ((np.sqrt(q) <= _NODE_GUARD * (1.0 + size[:, k])) & (True if keep is None else keep[k])).any():
            raise NodeSingularity("evaluation point coincides with a node")
        with np.errstate(divide="ignore", invalid="ignore"):
            re = diff / q
            s1, s2 = re.sum(axis=0), (re * re - b2 / (q * q) if b2.any() else re * re).sum(axis=0)
            d1[k] += dv[k] * s1
            d2[k] += ddv[k] * s1 - dv[k] * dv[k] * s2
    return d1, d1 * d1 + d2


def eval_psi_log_derivatives(solution: QESSolution, r):
    """(Psi'/Psi, Psi''/Psi) from the analytic derivative of the closed form."""
    return _at(lambda x: [d[0] for d in _log_deriv_arrays([solution], x[None, :])], r)


def node_positions(solution: QESSolution) -> list[float]:
    """Positive-r zeros of the polynomial factor, ascending."""
    real = [t.real for t in solution.roots.roots if _real(t) and t.real > 0.0]
    return sorted(real if solution.roots.variable is Variable.R else map(math.sqrt, real))


def count_nodes(solution: QESSolution) -> int:
    """Number of wavefunction nodes on r > 0."""
    return len(node_positions(solution))


# ----------------------------------------------------------------------
# Support and normalization
# ----------------------------------------------------------------------


@lru_cache(maxsize=4)  # one entry per span
def _scan_grid(span: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """u, r = e^u and ln r of the 751-point scan over |u| <= 4 span, read-only."""
    u = np.linspace(-span * 4.0, span * 4.0, 751)
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


def _supports(solutions: list[QESSolution]) -> list[tuple | None]:
    """Per solution (of one solve, see `_log_deriv_arrays`), from one scan of
    them all for span = 2, 3, 4.5, 7 in turn: (r_lo, r_hi, peak, u, log_mag),
    the ends in r of the u = ln r interval where log|Psi| is within 30 of its
    peak (amplitude ~1e-13), the peak, and the samples of u and log|Psi| on
    it; None if no span has both ends and the peak inside the scan."""
    out, left = [None] * len(solutions), list(range(len(solutions)))
    for span in (2.0, 3.0, 4.5, 7.0):
        if not left:
            break
        u, r, log_r = _scan_grid(span)
        with np.errstate(all="ignore"):
            log_mag, _ = _log_psi_rows([solutions[i] for i in left], r, log_r, lambda p: _scan_power(span, p), False)
        log_mag, index = np.where(np.isfinite(log_mag), log_mag, -np.inf), np.arange(len(u))
        top, peak = log_mag.argmax(axis=1), log_mag.max(axis=1)
        below = log_mag <= peak[:, None] - 30.0
        lo = np.where(below & (index <= top[:, None]), index, -1).max(axis=1)
        hi = np.where(below & (index >= top[:, None]), index, len(u)).min(axis=1)
        found = (lo >= 0) & (hi < len(u)) & (0 < top) & (top < len(u) - 1)
        for j, a, b in zip(np.flatnonzero(found).tolist(), lo[found].tolist(), hi[found].tolist()):
            out[left[j]] = (float(r[a]), float(r[b]), float(peak[j]), u[a : b + 1], log_mag[j, a : b + 1])
        left = [i for i, f in zip(left, found.tolist()) if not f]
    return out


# Intervals at which the trapezoidal rule starts, and past which it gives up.
_FIRST_INTERVALS, _MAX_INTERVALS = 64, 1 << 14


def integrate_adaptive(f, a: float, b: float, rel_tol: float = 1e-10) -> float:
    """Trapezoidal rule for int_a^b f, doubling the intervals from 64 (and
    evaluating only the new midpoints) until two levels agree to rel_tol.

    `f` must accept a numpy array of abscissae.  The rule converges
    exponentially for an integrand analytic in a strip around [a, b] that
    is negligible at both ends (Trefethen & Weideman, SIAM Review 56,
    2014).  Both integrands here are entire: |Psi|^2 r in u = ln r is
    negligible at both ends of the interval of `_supports`, and besselk's
    exp(-x cosh t) cosh(nu t) is negligible at t = T and even in t, so the
    rule on [0, T] is half the rule on [-T, T].
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
    """norm_quadrature on the support `_supports` found."""
    if support is None:
        raise NotIntegrable("could not bracket the support of |Psi|^2")
    peak, u, log_mag = support[2:]
    ua, ub = float(u[0]), float(u[-1])
    # 2 peak + ub bounds 2 log|Psi| + u on [ua, ub], so nothing overflows.
    shift = 2.0 * peak + ub
    y, h = np.exp(2.0 * log_mag + u - shift), (ub - ua) / (len(u) - 1)
    total = float(h * (y.sum() - 0.5 * (y[0] + y[-1])))
    # Every other sample; for an odd count of intervals this stops one
    # sample short of ub, where |Psi|^2 is ~1e-26 of its peak.
    coarse = 2.0 * h * (y[::2].sum() - 0.5 * (y[0] + y[::2][-1]))
    if not abs(total - coarse) <= rel_tol * abs(total):

        def integrand(uu: np.ndarray) -> np.ndarray:
            log_mag, _ = _log_psi_rows([solution], np.exp(uu), signed=False)
            return np.exp(2.0 * log_mag[0] + uu - shift)

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

    Integrates |Psi|^2 r du on the support `_supports` finds, the interval
    `oracle.default_fd_grid` also uses; the integrand falls double
    exponentially past it on both sides.  The trapezoidal sum of the scan's
    own samples is the norm when it agrees to rel_tol with the sum over
    every other sample; otherwise `integrate_adaptive` integrates afresh.
    Raises NotIntegrable when no support is found, the rule does not
    converge to rel_tol, or the norm exceeds the largest float.
    """
    return _norm(solution, _supports([solution])[0], rel_tol)


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


def besselk(nu: float, x: float) -> float:
    """K_nu(x) for real order and x > 0 (K is even in the order): the integral
    int_0^inf exp(-x cosh t) cosh(nu t) dt by `integrate_adaptive` on [0, T],
    scaled by the peak of its log, at sinh t = nu/x, and cut at the T where
    the log is 40 below it.  The levels agree to 1e-13, or to the rounding
    of the exponents, eps nu T, when that is larger: besselk(1.51e5, 1e5) is
    within 5.5e-12 of K (one ulp of the order moves K by 3.5e-11 there).
    Returns inf beyond the largest float and 0.0 below the smallest; raises
    ValueError unless nu, x are finite and x > 0.
    """
    if not (math.isfinite(nu) and math.isfinite(x) and x > 0.0):
        raise ValueError("besselk requires a finite order and a finite x > 0")
    nu, x = abs(float(nu)), float(x)
    # The peak of nu t - x (cosh t - 1), at top = asinh(nu/x), bounds log(e^x exp(-x cosh t) cosh(nu t));
    # both are written so as not to overflow, and need not be exact: one float scales integrand and result.
    top = math.log(nu + math.hypot(nu, x)) - math.log(x)
    peak = nu * top - (math.hypot(nu, x) - x)
    # Past either end of the floats: above, nu > x and K >= e^(peak - x - 1) / sqrt(16 nu);
    # below, K <= T e^(peak - x) with T < 1500.
    if not -760.0 < peak - x < 1100.0:
        return 0.0 if peak < x else math.inf
    # T solves 2 x sinh^2(T/2) = nu T - peak + 40; the iteration rises to it from the peak.
    end, last = top, -1.0
    while end - last > 1e-9 * end:
        end, last = 2.0 * math.asinh(math.sqrt(nu * end - peak + 40.0) / math.sqrt(2.0 * x)), end

    def integrand(t: np.ndarray) -> np.ndarray:
        s = np.sinh(0.5 * t)  # x (cosh t - 1) = 2 x s s: no cancellation near t = 0, no overflow of s s
        return np.exp(nu * t - 2.0 * x * s * s - peak) * 0.5 * (1.0 + np.exp(-2.0 * nu * t))

    # The exponents reach nu T, and their rounding, ~eps nu T relative, keeps two
    # levels apart by about that (at 1e-14, exponents of ~1e4 round apart).
    total = integrate_adaptive(integrand, 0.0, end, rel_tol=max(1e-13, np.finfo(float).eps * nu * end))
    try:
        # Two factors: the rounding of peak - x near -600 would cost ~6e-14 relative.
        scale = math.exp(peak) * math.exp(-x) if max(peak, x) < 708.0 else math.exp(peak - x)
    except OverflowError:
        return math.inf
    return scale * total


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
