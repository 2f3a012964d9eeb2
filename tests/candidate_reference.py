"""The one-row candidate step that the batched one replaced in
`qesolve.bethe`, kept as a test reference.

`polish` and `accept_candidate` take one root set at a time: the undamped
Newton polish, which stops at the first step it cannot take, and the
pairing, distinctness, denominator, residual and identity filters, which
return the first rejection as None.  `branch` chains them as the candidate
loop of `solve_bae` did.  The tests check that the batched step
(`bethe._polish`, `bethe._accept`) gives every row the same floats.
"""

import math

import numpy as np
from numpy.polynomial.polynomial import polyval

from qesolve.bethe import (
    BAE_TOL,
    CONJ_TOL,
    DENOM_TOL,
    IDENT_TOL,
    SEP_TOL,
    PolyODE,
    RootSet,
    Variable,
    _at_rounding_level,
    _canonical_order,
    _jacobian_batch,
    _residual_batch,
    compute_w_coefficients,
    verify_polynomial_identity,
)
from qesolve.errors import NonRealCoefficients


def separation(roots: np.ndarray) -> float:
    """Smallest distance between two roots (inf for fewer than two)."""
    n = len(roots)
    if n < 2:
        return math.inf
    diff = roots[:, None] - roots[None, :]
    return float(np.min(np.abs(diff[~np.eye(n, dtype=bool)])))


def polish(ode: PolyODE, roots: np.ndarray) -> tuple[np.ndarray, int]:
    """Undamped Newton on one row until the step is at rounding level; stops
    early where a step cannot be taken.  Returns the roots and the number
    of steps taken."""
    T, steps = roots[None, :], 0
    for _ in range(8):
        R = _residual_batch(ode, T)
        if not np.all(np.isfinite(R)):
            break
        try:
            step = np.linalg.solve(_jacobian_batch(ode, T), R[..., None])[..., 0]
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(step)):
            break
        T, steps = T - step, steps + 1
        if _at_rounding_level(T, step)[0]:
            break
    return T[0], steps


def accept_candidate(ode: PolyODE, roots: np.ndarray):
    """(ordered roots, residual, separation, W, identity residual) of the
    paired, canonically ordered roots, or None at the first filter that
    rejects them."""
    partner = np.argmin(np.abs(roots[:, None] - np.conj(roots)), axis=1)
    mirror = np.conj(roots[partner])
    if np.any(partner[partner] != np.arange(len(roots))) or np.max(np.abs(roots - mirror)) > CONJ_TOL:
        return None
    ordered = _canonical_order(0.5 * (roots + mirror))
    sep = separation(ordered)
    if sep <= SEP_TOL or np.min(np.abs(polyval(ordered, ode.p, tensor=False))) < DENOM_TOL:
        return None
    res = float(np.max(np.abs(_residual_batch(ode, ordered[None, :]))))
    if res >= BAE_TOL:
        return None
    try:
        w = compute_w_coefficients(ode, ordered)
        identity = verify_polynomial_identity(ode, ordered, w)
    except NonRealCoefficients:
        return None
    if identity >= IDENT_TOL:
        return None
    return ordered, res, sep, w, identity


def branch(ode: PolyODE, start: np.ndarray, variable: Variable) -> RootSet | None:
    """The branch polished from the roots start, or None when the filters
    reject it."""
    with np.errstate(all="ignore"):
        accepted = accept_candidate(ode, polish(ode, start)[0])
    if accepted is None:
        return None
    ordered, res, sep, w, identity = accepted
    return RootSet(len(ordered), tuple(complex(z) for z in ordered), variable, res, sep, w, identity)
