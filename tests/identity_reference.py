"""Independent forms of what `bethe._operator` computes, to check it
against: the polynomial identity expanded by coefficient convolution
(`identity`, with S built one factor at a time by `poly_from_roots`), and
the matrix of `bethe._ode_matrix` built cell by cell by fancy indexing
(`ode_matrix`).
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.polynomial import polyder

from qesolve.bethe import IMAG_TOL, _closing_w, _root_dependent
from qesolve.errors import NonRealCoefficients


def poly_from_roots(roots):
    """Monic polynomial prod_i (t - t_i), ascending complex coefficients."""
    coeffs = np.array([1.0 + 0.0j])
    for t in roots:
        coeffs = np.convolve(coeffs, np.array([-t, 1.0 + 0.0j]))
    return coeffs


def _add(*polys):
    out = np.zeros(max(len(p) for p in polys))
    for p in polys:
        out[: len(p)] += p
    return out


def identity(p, q, w, roots) -> float:
    """The scaled max coefficient of P S'' + Q S' + W S, expanded by
    convolution: `verify_polynomial_identity` for the coefficients of P, Q
    and W.  Raises NonRealCoefficients when S has complex coefficients."""
    s = poly_from_roots(np.asarray(roots, dtype=complex))
    scale_s = max(1.0, float(np.max(np.abs(s))))
    if float(np.max(np.abs(s.imag))) > IMAG_TOL * scale_s:
        raise NonRealCoefficients("polynomial factor has complex coefficients")
    s = s.real
    s1 = np.asarray(polyder(s))
    s2 = np.asarray(polyder(s1))
    total = _add(np.convolve(p, s2), np.convolve(q, s1), np.convolve(w, s))
    scale = max(1.0, *(abs(c) for c in (*p, *q, *w)), scale_s)
    return float(np.max(np.abs(total))) / scale


def ode_matrix(ode, n: int) -> np.ndarray:
    """`bethe._ode_matrix`, built as a band whose row d + 2 holds the
    coefficient of t^d and whose column k is the image of t^k; each term
    lands on its own cells, P's before Q's before W's."""
    m = _root_dependent(ode)
    w = _closing_w(ode.p, ode.q, n, 0.0, 0.0, 0.0, 0.0, 0.0)
    k = np.arange(n + 1)
    band = np.zeros((n + 7, n + 1))
    band[k + np.arange(5)[:, None], k] += np.array(ode.p)[:, None] * k * (k - 1.0)
    band[k + np.arange(6)[:, None] + 1, k] += np.array(ode.q)[:, None] * k
    band[k + np.arange(m, 5)[:, None] + 2, k] += np.array(w[m:])[:, None]
    return band[2 : n + m + 2]
