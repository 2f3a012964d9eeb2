"""Small helpers for polynomials stored as ascending coefficient arrays."""

from __future__ import annotations

import numpy as np


def polyval(coeffs, t):
    """Evaluate sum_k coeffs[k] * t**k by Horner's rule (complex-safe)."""
    t = np.asarray(t)
    acc = np.zeros_like(t, dtype=complex if np.iscomplexobj(t) else float)
    for c in reversed(tuple(coeffs)):
        acc = acc * t + c
    return acc


def polyder(coeffs):
    """Coefficients of the derivative, ascending order."""
    return tuple(k * c for k, c in enumerate(coeffs))[1:] or (0.0,)
