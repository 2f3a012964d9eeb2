"""Adaptive Gauss-Kronrod quadrature on finite intervals.

The 7/15 nodes and weights are the classical QUADPACK values; the adaptive
driver bisects the interval with the largest error estimate until the
accumulated estimate meets the target.

Kept as a test reference, with the two support scans that the package's
one scan (`qesolve.wavefunction._support`) replaced: `norm_quadrature`
normalised by adaptive GK15 on its own 1,201-point scan of the log
integrand, and `default_fd_grid` cut the FD grid's bounds from a 3,001-point
scan of log|Psi|.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from qesolve.errors import GridInsufficient, NotIntegrable
from qesolve.families import QESSolution
from qesolve.oracle import FdGrid
from qesolve.wavefunction import eval_log_psi

# Kronrod abscissae (positive half), Kronrod weights, embedded Gauss weights.
_XGK = np.array(
    [
        0.991455371120813,
        0.949107912342759,
        0.864864423359769,
        0.741531185599394,
        0.586087235467691,
        0.405845151377397,
        0.207784955007898,
        0.0,
    ]
)
_WGK = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
    ]
)
_WG = np.array(
    [
        0.129484966168870,
        0.279705391489277,
        0.381830050505119,
        0.417959183673469,
    ]
)

_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])  # 15 ascending nodes
_WK = np.concatenate([_WGK[:-1], _WGK[::-1]])
_WGAUSS = np.zeros(15)
# Gauss points are every second Kronrod point (indices 1,3,...,13).
_WGAUSS[1:14:2] = np.concatenate([_WG[:-1], _WG[::-1]])


def gauss_kronrod_15(f, a: float, b: float):
    """One 15-point Kronrod panel; returns (integral, error estimate)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = mid + half * _NODES
    y = np.asarray(f(x), dtype=float)
    resk = half * float(np.dot(_WK, y))
    resg = half * float(np.dot(_WGAUSS, y))
    mean = resk / (b - a)
    resasc = half * float(np.dot(_WK, np.abs(y - mean)))
    err = abs(resk - resg)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return resk, err


def integrate_adaptive(
    f,
    a: float,
    b: float,
    rel_tol: float = 1e-10,
    abs_tol: float = 1e-300,
    max_intervals: int = 4000,
):
    """Adaptive bisection driven by per-interval error estimates.

    `f` must accept a numpy array of abscissae.  Returns (value, error
    estimate); raises ValueError when the interval budget is exhausted
    before the tolerance is met.
    """
    if not b > a:
        raise ValueError("integration requires b > a")
    val, err = gauss_kronrod_15(f, a, b)
    heap = [(-err, a, b, val, err)]
    total_val, total_err = val, err
    count = 1
    while total_err > max(abs_tol, rel_tol * abs(total_val)):
        if count >= max_intervals:
            raise ValueError(
                f"quadrature did not converge: estimate {total_err:.3e} "
                f"on {count} intervals"
            )
        _, lo, hi, v_old, e_old = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        v1, e1 = gauss_kronrod_15(f, lo, mid)
        v2, e2 = gauss_kronrod_15(f, mid, hi)
        total_val += v1 + v2 - v_old
        total_err += e1 + e2 - e_old
        heapq.heappush(heap, (-e1, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, mid, hi, v2, e2))
        count += 1
        if total_err < 1e-305:
            break
    return total_val, total_err


def _log_integrand(solution: QESSolution):
    def phi(u: np.ndarray) -> np.ndarray:
        r = np.exp(u)
        log_mag, _ = eval_log_psi(solution, r)
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


def default_fd_grid(solution: QESSolution, n_points: int = 4000) -> FdGrid:
    """Grid bounds from the wavefunction support (amplitude below 1e-13
    of the peak at both ends); raises GridInsufficient if no such bounds
    exist within a generous scan range."""
    for span in (2.0, 3.0, 4.5, 7.0):
        u = np.linspace(-span * 4.0, span * 4.0, 3001)
        r = np.exp(u)
        with np.errstate(all="ignore"):
            logpsi, _ = eval_log_psi(solution, r)
        logpsi = np.where(np.isfinite(logpsi), logpsi, -np.inf)
        imax = int(np.argmax(logpsi))
        peak = logpsi[imax]
        drop = 30.0  # ln scale, ~ 1e-13 in amplitude
        left = np.nonzero(logpsi[: imax + 1] <= peak - drop)[0]
        right = np.nonzero(logpsi[imax:] <= peak - drop)[0]
        if len(left) and len(right) and 0 < imax < len(u) - 1:
            return FdGrid(float(r[left[-1]]), float(r[imax + right[0]]), n_points)
    raise GridInsufficient("wavefunction support exceeds the scan range")
