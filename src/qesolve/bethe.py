"""Generic functional-Bethe-ansatz engine.

Works on second-order ODEs  P(t) S'' + Q(t) S' + W(t) S = 0  with polynomial
coefficients of degree at most (4, 5, 4).  A degree-n polynomial
S(t) = prod_i (t - t_i) with distinct roots solves the equation exactly when
the roots satisfy the residue conditions

    sum_{j != i} 2 / (t_i - t_j) + Q(t_i) / P(t_i) = 0,    i = 1..n,

and W is assembled from the root power sums.  The module enumerates all
solutions, whichever W coefficients w0 .. w_(m-1) depend on the roots, as
null vectors of the ODE's (n+m)x(n+1) matrix on polynomials of degree n at
the real solutions of one m-parameter eigenproblem (`_multiparameter`, for
m = 1 to 4).  The module builds both pencils that it solves: the root
system's from the ODE (`solve_bae`), and the match-ell problem's from the
`_Border` that `families._border` derives, Q affine in a parameter omega
and a condition on W (`_border_pencil`, `_border_candidates`).  The
candidates of one solve are taken in one batch: their roots from one
stacked companion-matrix eigensolve (`_starts`), a Newton polish of every
row at once (`_polish`), and array filters followed by the polynomial
identity, evaluated for every row at once as the band product of
P D^2 + Q D + W on S's coefficients (`_accept`); `_operator` is the one
implementation of that product, and `_ode_matrix` applies it to the unit
basis.  Each accepted branch carries the W coefficients and identity
residual of that verification (`RootSet.w`): a `PolyODE` is P and Q only,
and `verify_polynomial_identity` takes W as an argument.  The match-ell
solve of `families` polishes its candidates in their roots and omega
together, with the Newton system bordered by the border's condition
(`_bordered_branches`).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from numbers import Integral
from typing import NamedTuple

import numpy as np
from numpy.polynomial.polynomial import polyval

from .errors import DenominatorBlowup, InvalidParameter, NonRealCoefficients, NoSolutionFound


class Variable(str, Enum):
    """Which radial variable the polynomial roots live in."""

    R = "r"
    T_EQ_R2 = "t=r^2"
    Z_EQ_R2 = "z=r^2"


@dataclass(frozen=True)
class PolyODE:
    """Coefficient arrays (ascending) of P and Q; W is the solution's
    (`compute_w_coefficients`)."""

    p: tuple
    q: tuple

    def __post_init__(self):
        object.__setattr__(self, "p", _pad(self.p, 5, "p"))
        object.__setattr__(self, "q", _pad(self.q, 6, "q"))
        if not any(c != 0.0 for c in self.p):
            raise ValueError("P(t) must not be identically zero")


def _pad(coeffs, length, name):
    coeffs = tuple(float(c) for c in coeffs)
    if len(coeffs) > length:
        raise ValueError(f"{name} accepts at most {length} coefficients")
    return coeffs + (0.0,) * (length - len(coeffs))


@dataclass(frozen=True)
class RootSet:
    """A distinct, conjugate-closed solution of the root system.

    On a branch that `solve_bae` returns, `w` and `identity_residual` hold
    what its acceptance computed for the ODE solved: the W coefficients
    (w0..w4, `compute_w_coefficients`) and the scaled residual of the
    polynomial identity at them (`verify_polynomial_identity`).  Elsewhere
    they default to None.  Neither takes part in comparison or repr.
    """

    n: int
    roots: tuple
    variable: Variable
    bae_residual: float
    separation: float
    w: tuple | None = field(default=None, compare=False, repr=False)
    identity_residual: float | None = field(default=None, compare=False, repr=False)

    def as_array(self) -> np.ndarray:
        return np.array(self.roots, dtype=complex)


# The acceptance gates of a root set, and the distance (max norm, canonical
# order) below which two are one branch.
BAE_TOL = 1e-10
IDENT_TOL = 1e-10
SEP_TOL = 1e-8
CONJ_TOL = 1e-8
DENOM_TOL = 1e-12
DEDUP_TOL = 1e-6
# The polish stops once its step is at rounding level:
# |step| <= ROUNDING_STEP * (1 + |x|), max norms.
ROUNDING_STEP = 1e-15
# The largest imaginary part, relative to the largest coefficient, that the
# polynomial identity lets S have.
IMAG_TOL = 1e-8


@dataclass(frozen=True)
class SolverConfig:
    """Accepted and validated for compatibility, but without effect: every
    solve enumerates its branches (see solve_bae), so no root search reads
    a seed or a start count.  It stays only because `solve_family` and
    `solve_family_detailed` still take one: the benchmark workloads pass
    it and the Newton reference of the tests reads its fields."""

    seed: int = 0
    starts: int = 200

    def __post_init__(self):
        if not isinstance(self.seed, Integral) or isinstance(self.seed, bool) or self.seed < 0:
            raise InvalidParameter(f"seed must be a non-negative integer, got {self.seed!r}")
        if not isinstance(self.starts, Integral) or isinstance(self.starts, bool) or self.starts < 1:
            raise InvalidParameter(f"starts must be a positive integer, got {self.starts!r}")


def _canonical_order(roots: np.ndarray) -> np.ndarray:
    """The roots sorted by real part, then imaginary part: along the last
    axis, so each row of a stack on its own."""
    return np.take_along_axis(roots, np.lexsort((roots.imag, roots.real), axis=-1), axis=-1)


def _branch_key(roots) -> tuple:
    """Canonical sort key of a branch: root real parts, then imaginary parts."""
    return tuple(z.real for z in roots) + tuple(z.imag for z in roots)


def _roots_of(roots) -> np.ndarray:
    return np.asarray(roots.roots if isinstance(roots, RootSet) else roots, dtype=complex)


def _closing_w(p, q, n: int, s1, s2, s3, s4, pair):
    """Closing formulas: W coefficients (w0..w4) from the coefficients of P
    and Q and the root power sums.

    Works elementwise, so the sums, and the coefficients of P and Q, may be
    floats or per-row arrays; w4 does not depend on the sums.
    """
    p0, p1, p2, p3, p4 = p
    q0, q1, q2, q3, q4, q5 = q
    w4 = -n * q5
    w3 = -q5 * s1 - n * q4
    w2 = -q5 * s2 - q4 * s1 - n * (n - 1) * p4 - n * q3
    w1 = (
        -q5 * s3
        - q4 * s2
        - (2.0 * (n - 1) * p4 + q3) * s1
        - n * (n - 1) * p3
        - n * q2
    )
    w0 = (
        -q5 * s4
        - q4 * s3
        - (q3 + 2.0 * (n - 1) * p4) * s2
        - 2.0 * p4 * pair
        - (2.0 * (n - 1) * p3 + q2) * s1
        - n * (n - 1) * p2
        - n * q1
    )
    return (w0, w1, w2, w3, w4)


def compute_w_coefficients(ode: PolyODE, roots):
    """W coefficients (w0..w4) that admit S(t) = prod (t - t_i) as solution.

    Evaluates the closing formulas on the root power sums (`_closing_rows`,
    one row); every term either carries a factor n or a root sum, so n = 0
    returns all zeros.  Raises NonRealCoefficients when a power sum's
    imaginary part exceeds CONJ_TOL.
    """
    w, real = _closing_rows(ode, _canonical_order(_roots_of(roots))[None, :])
    if not real[0]:
        raise NonRealCoefficients(f"a power sum has imaginary part above {CONJ_TOL}")
    return tuple(w[:, 0, 0])


def _closing_rows(ode: PolyODE | _Columns, ordered: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The W coefficients of each row of roots in canonical order, as
    (5, rows, 1) columns, at the ODE of every row (a PolyODE or `_Columns`),
    and whether the row's power sums s1..s4 and pair sum are real: each
    imaginary part within CONJ_TOL.  Each sum runs along its row in
    canonical order, which makes it exactly permutation invariant."""
    n, w = ordered.shape[1], np.zeros((5, len(ordered), 1))
    if not n:
        return w, np.ones(len(ordered), dtype=bool)
    s1, s2, s3, s4 = np.array([ordered**k for k in (1, 2, 3, 4)]).sum(axis=2, keepdims=True)
    sums = np.array([s1, s2, s3, s4, (s1 * s1 - s2) / 2.0])
    real = ~(np.abs(sums.imag) > CONJ_TOL * np.maximum(1.0, np.abs(sums))).any(axis=(0, 2))
    for j, c in enumerate(_closing_w(ode.p, ode.q, n, *sums.real)):
        w[j] = c
    return w, real


def _separations(T: np.ndarray) -> np.ndarray:
    """Smallest distance between two roots of each row (inf for fewer than
    two)."""
    n = T.shape[1]
    if n < 2:
        return np.full(len(T), math.inf)
    diff = np.abs(T[:, :, None] - T[:, None, :])
    diff[:, np.arange(n), np.arange(n)] = math.inf
    return np.min(diff, axis=(1, 2))


def _separation(roots: np.ndarray) -> float:
    """Smallest distance between two roots (inf for fewer than two)."""
    return float(_separations(roots[None, :])[0])


def bae_residuals(ode: PolyODE, roots) -> np.ndarray:
    """Residuals sum_{j!=i} 2/(t_i - t_j) + Q(t_i)/P(t_i), one per root.

    All residuals vanish exactly when the roots solve the root system.
    Complex roots give complex residuals; callers usually take the max norm.
    Raises DenominatorBlowup when |P| at a root is below DENOM_TOL or two
    roots are within SEP_TOL, the distinctness rule of `_accept`.
    """
    arr = _roots_of(roots)
    if len(arr) == 0:
        return np.zeros(0, dtype=complex)
    if np.min(np.abs(polyval(arr, ode.p, tensor=False))) < DENOM_TOL:
        raise DenominatorBlowup("a root coincides with a zero of P(t)")
    if _separation(arr) <= SEP_TOL:
        raise DenominatorBlowup("roots are closer than SEP_TOL")
    return _residual_batch(ode, arr[None, :])[0]


def verify_polynomial_identity(ode: PolyODE, roots, w) -> float:
    """Scaled max coefficient of P S'' + Q S' + W S at W = w (w0..w4, from
    `compute_w_coefficients`; `_identity_rows`, one row): the band product
    of the ODE on S's coefficients, at rounding level for a valid solution.
    Raises NonRealCoefficients when S has complex coefficients.
    """
    identity, real = _identity_rows(_columns(ode), _column(_pad(w, 5, "w")), _roots_of(roots)[None, :])
    if not real[0]:
        raise NonRealCoefficients("polynomial factor has complex coefficients")
    return float(identity[0])


def _identity_rows(ode: _Columns, w: np.ndarray, roots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of roots, at P, Q and W as in `_operator`: the max
    coefficient of P S'' + Q S' + W S for S = prod (t - t_i), over the
    largest of 1 and every coefficient of P, Q, W and S, and whether S is
    real (imaginary parts within IMAG_TOL of its largest coefficient).  S
    comes from a stacked Vieta recurrence."""
    n = roots.shape[1]
    s = np.zeros((len(roots), n + 1), dtype=complex)
    s[:, n] = 1.0
    for j in range(n):  # times (t - t_j): S's degree-j coefficients sit at s[n - j:]
        s[:, n - j - 1 : n] -= roots[:, j : j + 1] * s[:, n - j :]
    scale = np.maximum(np.abs(s).max(axis=1), 1.0)
    real = ~(np.abs(s.imag).max(axis=1) > IMAG_TOL * scale)
    for c in (ode.p, ode.q, w):
        scale = np.maximum(scale, np.abs(c).max(axis=(0, 2)))
    return np.abs(_operator(ode, w, s.real)).max(axis=1) / scale, real


def _operator(ode: _Columns, w: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The coefficients of P s'' + Q s' + W s, ascending to degree n + 4,
    for each row s of a (rows, n + 1) stack of coefficients: the band
    matrix of P D^2 + Q D + W on degree-n polynomials, applied row by row.
    P, Q and W = w0..w4 are columns, (5 or 6, rows, 1), or (5 or 6, 1, 1)
    for one ODE that every row shares.

    band[j] holds the diagonal that takes t^k to t^(k + j - 2), each cell
    summed P's term first, then Q's, then W's, so the unit vector of t^k
    gives column k of the matrix bit for bit (`_ode_matrix`).
    """
    n = s.shape[1] - 1
    k = np.arange(n + 1.0)
    band = np.zeros((7, np.broadcast(ode.p, w).shape[1], n + 1))
    band[:5] += ode.p * k * (k - 1.0)
    band[1:] += ode.q * k
    band[2:] += w
    terms = band * s
    out = np.zeros((len(s), n + 7))
    for j, term in enumerate(terms):
        out[:, j : j + n + 1] += term
    return out[:, 2:]


# ----------------------------------------------------------------------
# The candidate step: starts, polish and filters, one batch per solve
# ----------------------------------------------------------------------


class _Columns(NamedTuple):
    """P and Q of one ODE per row of a (rows, n) stack of roots, as
    coefficient columns: arrays of shape (5, rows, 1) and (6, rows, 1).
    `polyval(T, c, tensor=False)` broadcasts them against the stack, so
    each row meets its own floats, the ones it meets alone; a PolyODE,
    which every row shares, broadcasts the same way."""

    p: np.ndarray
    q: np.ndarray


def _column(coeffs) -> np.ndarray:
    """Coefficients that every row shares, as a (len, 1, 1) column."""
    return np.array(coeffs)[:, None, None]


def _columns(ode: PolyODE | _Columns) -> _Columns:
    """The columns of an ODE: a PolyODE's broadcast over every row."""
    return _Columns(_column(ode.p), _column(ode.q)) if isinstance(ode, PolyODE) else ode


def _rows(ode: PolyODE | _Columns, index) -> PolyODE | _Columns:
    """The ODE of the rows `index` of a stack: their columns, or the PolyODE
    that every row shares."""
    return _Columns(ode.p[:, index], ode.q[:, index]) if isinstance(ode, _Columns) else ode


def _residual_batch(ode: PolyODE | _Columns, T: np.ndarray) -> np.ndarray:
    """Residue conditions, one row of roots per row of T."""
    return _residues(T, polyval(T, ode.q, tensor=False) / polyval(T, ode.p, tensor=False))


def _residues(T: np.ndarray, f: np.ndarray) -> np.ndarray:
    """sum_{j != i} 2 / (t_i - t_j) + f_i, for each row of T, with f = Q/P
    at its roots."""
    i = np.arange(T.shape[1])
    diff = T[:, :, None] - T[:, None, :]
    diff[:, i, i] = math.inf  # so the term j = i is 1/inf = 0
    return 2.0 * (1.0 / diff).sum(axis=2) + f


def _derivative(c) -> np.ndarray:
    """The coefficients of c's derivative along its first axis, by numpy
    `polyder`'s arithmetic, without its per-call overhead."""
    c = np.asarray(c)
    return (c[1:].T * np.arange(1, len(c))).T


def _jacobian_batch(ode: PolyODE | _Columns, T: np.ndarray, pv=None, qv=None) -> np.ndarray:
    """The Jacobian of `_residual_batch`, from P and Q at T if given."""
    pv, qv = (polyval(T, ode.p, tensor=False), polyval(T, ode.q, tensor=False)) if pv is None else (pv, qv)
    fp = (polyval(T, _derivative(ode.q), tensor=False) * pv - qv * polyval(T, _derivative(ode.p), tensor=False)) / (pv * pv)
    return _residue_jacobian(T, fp)


def _residue_jacobian(T: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """The Jacobian of `_residues` in the roots, for each row of T, with
    fp = (Q/P)' at its roots."""
    i = np.arange(T.shape[1])
    square = (T[:, :, None] - T[:, None, :]) ** 2
    square[:, i, i] = math.inf  # so the term j = i is 1/inf = 0
    inv2 = 1.0 / square
    jac = 2.0 * inv2
    jac[:, i, i] = -2.0 * inv2.sum(axis=2) + fp
    return jac


def _at_rounding_level(x: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """Per row: is the step dx, taken to reach x, at rounding level?"""
    return np.max(np.abs(dx), axis=1) <= ROUNDING_STEP * (1.0 + np.max(np.abs(x), axis=1))


def _starts(coeffs: np.ndarray) -> np.ndarray:
    """The roots of S = sum c_k t^k (c_n != 0) for each row c of coeffs, in
    canonical order, from one stacked companion-matrix eigvals.  Where
    c_0 != 0 they are the roots np.roots gives for c[::-1]; no candidate has
    c_0 = 0, since row 0 of the ODE matrix then forces c = 0."""
    n = coeffs.shape[1] - 1
    companion = np.zeros((len(coeffs), n, n))
    companion[:, :1] = (-coeffs[:, -2::-1] / coeffs[:, -1:])[:, None]
    companion[:, np.arange(1, n), np.arange(n - 1)] = 1.0
    return _canonical_order(np.linalg.eigvals(companion).astype(complex))


def _polish(ode: PolyODE | _Columns, T: np.ndarray) -> np.ndarray:
    """Undamped Newton on every row of T until its step, a direct estimate
    of the root error, is at rounding level.  A row stops early where its
    step cannot be taken: a non-finite residual or step, or a singular
    Jacobian.  Rows never mix, so each ends where it would alone."""
    T = T.copy()
    active = np.arange(len(T) if T.shape[1] else 0)  # an empty row has nothing to polish
    for _ in range(8):
        if not len(active):
            break
        X, at = T[active], _rows(ode, active)
        pv, qv = polyval(X, at.p, tensor=False), polyval(X, at.q, tensor=False)
        R = _residues(X, qv / pv)  # `_residual_batch`, with P and Q kept for the Jacobian
        finite = np.isfinite(R).all(axis=1)
        if not finite.all():
            active, X, R, at, pv, qv = active[finite], X[finite], R[finite], _rows(at, finite), pv[finite], qv[finite]
        step = _solve_rows(_jacobian_batch(at, X, pv, qv), R)
        taken = np.isfinite(step).all(axis=1)
        if not taken.all():
            active, X, step = active[taken], X[taken], step[taken]
        X = X - step
        T[active] = X
        active = active[~_at_rounding_level(X, step)]
    return T


class _Border(NamedTuple):
    """A parameter omega of the ODE and the condition that fixes it: Q is
    Q0 + omega dQ, and W's coefficient w_j (closing formulas) must equal
    top + omega slope."""

    ode: PolyODE  # P and Q0
    dq: tuple
    j: int
    top: float
    slope: float


def _at(border: _Border, omega: np.ndarray) -> _Columns:
    """The ODE of each row at its omega, as `_Columns`."""
    q = _column(border.ode.q) + _column(border.dq) * omega[None, :, None]
    return _Columns(np.broadcast_to(_column(border.ode.p), (5, len(omega), 1)), q)


def _bordered_polish(border: _Border, T: np.ndarray, omega: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The roots of every row of T and its omega, polished by Newton on
    both: the n residue conditions at omega, bordered by the condition on
    w_j (Keller, *Numerical solution of bifurcation and nonlinear
    eigenvalue problems*, 1977).  Far from the roots, the closing formulas'
    powers of them would throw omega off, so a row whose residue
    conditions are not within BAE_TOL is first polished at its omega
    (`_polish`), and the bordered steps start from there.  The
    omega-column of the residue conditions is dQ(t_i)/P(t_i).  w_j is
    affine in the power sums s1..s4 and the pair sum, and, with Q, in
    omega, so its derivatives come from the closing formulas at unit sums.
    P, Q0, dQ and their derivatives at the roots come from one product
    with the roots' powers, which also give the sums.

    A row stops after a step at rounding level, as in `_polish`, or no
    smaller than its step before, which it keeps: an ill-conditioned row's
    steps reach a floor of rounding noise above ROUNDING_STEP.  Returns the
    roots and the omegas."""
    n = T.shape[1]
    polys = [border.ode.p + (0.0,), border.ode.q, border.dq]
    # The coefficients of P, P', Q0, Q0', dQ and dQ', one column each, ascending to t^5.
    coeffs = np.array([d for c in polys for d in (c, (*_derivative(c), 0.0))]).T
    unit = np.eye(5, 6)  # the sums of six evaluations: each sum alone at 1, then all 0
    w_j = np.array([_closing_w(border.ode.p, border.ode.q, n, *unit)[border.j],
                    _closing_w((0.0,) * 5, border.dq, n, *unit)[border.j]])
    # w_j = const + lin . (s1, s2, s3, s4, pair), each at omega = 0 and per unit omega.
    const, lin = w_j[:, 5], w_j[:, :5] - w_j[:, 5:]
    ode = _at(border, omega)
    far = ~(np.max(np.abs(_residual_batch(ode, T)), axis=1, initial=0.0) < BAE_TOL)
    T = T.copy()
    T[far] = _polish(_rows(ode, far), T[far])
    X = np.concatenate([T, omega[:, None]], axis=1).astype(complex)
    active, last = np.arange(len(X)), np.full(len(X), math.inf)
    for _ in range(8):
        if not len(active):
            break
        Y = X[active]
        t, om = Y[:, :n], Y[:, n].real
        powers = t[:, :, None] ** np.arange(6)
        pv, pd, q0, q0d, dq, dqd = np.moveaxis(powers @ coeffs, 2, 0)
        qv, qd = q0 + om[:, None] * dq, q0d + om[:, None] * dqd
        s = powers[:, :, 1:5].sum(axis=1)
        sums = np.column_stack([s, 0.5 * (s[:, 0] * s[:, 0] - s[:, 1])])
        a = lin[0] + om[:, None] * lin[1]
        # d sums / d t_i: 1, 2 t_i, 3 t_i^2, 4 t_i^3 and s1 - t_i.
        d = np.concatenate([powers[:, :, :4] * np.arange(1, 5), (s[:, :1] - t)[:, :, None]], axis=2)
        J = np.empty((len(Y), n + 1, n + 1), dtype=complex)
        J[:, :n, :n] = _residue_jacobian(t, (qd * pv - qv * pd) / (pv * pv))
        J[:, :n, n] = dq / pv
        J[:, n, :n] = (d * a[:, None, :]).sum(axis=2)
        J[:, n, n] = const[1] + sums @ lin[1] - border.slope
        # w_j less the value the condition gives it.
        off = const[0] + om * const[1] + (sums * a).sum(axis=1) - border.top - om * border.slope
        R = np.column_stack([_residues(t, qv / pv), off])
        finite = np.isfinite(R).all(axis=1)
        if not finite.all():
            active, Y, R, J = active[finite], Y[finite], R[finite], J[finite]
        step = _solve_rows(J, R)
        step[:, n] = step[:, n].real
        taken = np.isfinite(step).all(axis=1)
        if not taken.all():
            active, Y, step = active[taken], Y[taken], step[taken]
        Y = Y - step
        X[active] = Y
        size = np.max(np.abs(step), axis=1)
        done = _at_rounding_level(Y, step) | (size >= last[active])
        last[active] = size
        active = active[~done]
    return X[:, :n], X[:, n].real


def _solve_rows(J: np.ndarray, R: np.ndarray) -> np.ndarray:
    """J^-1 R for each row, from one stacked solve; when a J is singular,
    row by row, with NaN in the rows whose J is."""
    try:
        return np.linalg.solve(J, R[..., None])[..., 0]
    except np.linalg.LinAlgError:
        step = np.full_like(R, math.nan)
        for i in range(len(J)):
            try:
                step[i] = np.linalg.solve(J[i : i + 1], R[i : i + 1, :, None])[0, :, 0]
            except np.linalg.LinAlgError:
                pass
        return step


def _accept(ode: PolyODE | _Columns, T: np.ndarray, variable: Variable) -> list[RootSet | None]:
    """The branch of each row of T, or None where the filters reject it.

    Each root is paired with the root nearest its conjugate and the pairs
    made exact (a root paired with itself exactly real).  The pairing,
    distinctness, denominator and residual filters then test every row at
    once, in canonical order.  The identity filter then tests the
    rows that pass them, all at once: their power sums must be real, their
    S real (`_closing_rows`, `_identity_rows`) and its identity residual
    below IDENT_TOL, so every accepted set passes both independent checks.
    """
    n = T.shape[1]
    ordered, res, sep = T, np.zeros(len(T)), np.full(len(T), math.inf)
    keep = np.ones(len(T), dtype=bool)
    if n:
        rows = np.arange(len(T))[:, None]
        partner = np.argmin(np.abs(T[:, :, None] - np.conj(T[:, None, :])), axis=2)
        mirror = np.conj(T[rows, partner])
        keep = (partner[rows, partner] == np.arange(n)).all(axis=1)
        keep &= ~(np.max(np.abs(T - mirror), axis=1) > CONJ_TOL)
        ordered = _canonical_order(0.5 * (T + mirror))
        sep = _separations(ordered)
        pv = polyval(ordered, ode.p, tensor=False)
        keep &= ~((sep <= SEP_TOL) | (np.min(np.abs(pv), axis=1) < DENOM_TOL))
        res = np.full(len(T), math.nan)
        f = polyval(ordered[keep], _rows(ode, keep).q, tensor=False) / pv[keep]  # `_residual_batch`, with P reused
        res[keep] = np.max(np.abs(_residues(ordered[keep], f)), axis=1)
        keep &= ~(res >= BAE_TOL)
    index = np.flatnonzero(keep)
    at, roots = _rows(ode, index), ordered[index]
    w, real = _closing_rows(at, roots)
    identity, real_s = _identity_rows(_columns(at), w, roots)
    passed = real & real_s & ~(identity >= IDENT_TOL)
    out: list[RootSet | None] = [None] * len(T)
    for j in np.flatnonzero(passed).tolist():
        i = index[j]
        out[i] = RootSet(n, tuple(roots[j].tolist()), variable, float(res[i]), float(sep[i]),
                         tuple(w[:, j, 0]), float(identity[j]))
    return out


def _branches(ode: PolyODE, starts: np.ndarray, variable: Variable) -> list[RootSet | None]:
    """The branch polished from each row of starts, or None where the
    filters reject it; an empty row is the one branch of degree 0."""
    with np.errstate(all="ignore"):
        return _accept(ode, _polish(ode, starts), variable)


def _bordered_branches(border: _Border, starts: np.ndarray, omega: np.ndarray,
                       variable: Variable) -> tuple[list[RootSet | None], np.ndarray]:
    """The branch polished from each row of starts and its omega together
    (`_bordered_polish`), or None where the filters reject it, and the
    omega of each row; the filters see each row's ODE at its final omega
    (`_at`)."""
    with np.errstate(all="ignore"):
        T, omega = _bordered_polish(border, starts, omega)
        return _accept(_at(border, omega), T, variable), omega


def _root_dependent(ode: PolyODE) -> int:
    """m: how many W coefficients (w0 .. w_{m-1}) the closing formulas make
    depend on the root sums."""
    if ode.q[5] != 0.0:
        return 4
    if ode.q[4] != 0.0:
        return 3
    if ode.q[3] != 0.0 or ode.p[4] != 0.0:
        return 2
    return 1


def _ode_matrix(ode: PolyODE, n: int) -> np.ndarray:
    """The (n+m)x(n+1) matrix A of P D^2 + Q D + (w_m t^m + ... + w4 t^4) on
    1, t, ..., t^n, where m = `_root_dependent(ode)` and w_m .. w4 are the
    closing values, which depend on n alone.

    S = sum c_k t^k solves the ODE with W = w4 t^4 + ... + w0 exactly when
    (A + w_{m-1} T_{m-1} + ... + w0 T0) c = 0, where T_j takes t^k to
    t^(k+j).  The rows of t^(n+m) and above vanish identically, and A keeps
    the others; for m = 1 it is square and the condition is A c = -w0 c.
    """
    m = _root_dependent(ode)
    w = (0.0,) * m + _closing_w(ode.p, ode.q, n, 0.0, 0.0, 0.0, 0.0, 0.0)[m:]
    # Row k of the operator on the unit basis is the image of t^k.
    return np.ascontiguousarray(_operator(_columns(ode), _column(w), np.eye(n + 1))[:, : n + m].T)


# The random change of the homogeneous parameters comes from this fixed
# seed, so the solutions do not depend on earlier calls.
_PROJECTION_SEED = 0
# An eigenvalue of the pencil whose imaginary part is at most this fraction
# of its modulus is a candidate: a double real solution may split into a
# complex pair.
NEAR_REAL = 1e-6
# The pencil is assembled in blocks of columns whose largest intermediate
# array holds at most this many floats.
_BLOCK_FLOATS = 1 << 14


@functools.lru_cache(maxsize=8)
def _parameter_change(m: int, seed: int) -> np.ndarray:
    """A random orthogonal change of the m + 1 homogeneous parameters
    (read-only)."""
    Q = np.linalg.qr(np.random.default_rng([seed, m]).standard_normal((m + 1, m + 1)))[0]
    Q.flags.writeable = False
    return Q


class _Basis(NamedTuple):
    """The orthonormal basis of Sym^m(R^(n+1)): one tensor per multiset of
    m indices in range(n+1), equal to 1/sqrt(orbit size) at each ordering
    of it.  (Read-only.)"""

    of: np.ndarray  # the basis index of each entry of an m-tensor (flat, C order)
    order: np.ndarray  # the entries sorted by basis index
    first: np.ndarray  # the position in `order` of each index's first entry
    value: np.ndarray  # the value of each entry in its basis tensor
    mixed: np.ndarray  # at [j, k], the index of the multiset {k, j, ..., j}


@functools.lru_cache(maxsize=64)  # holds n <= 10 at every m <= 4
def _symmetric_basis(n: int, m: int) -> _Basis:
    """The `_Basis` of Sym^m(R^(n+1)), multisets in
    `combinations_with_replacement` order."""
    multisets = list(itertools.combinations_with_replacement(range(n + 1), m))
    index = {key: i for i, key in enumerate(multisets)}
    of = np.array([index[tuple(sorted(e))] for e in itertools.product(range(n + 1), repeat=m)])
    size = np.bincount(of)
    mixed = [[index[tuple(sorted((k,) + (j,) * (m - 1)))] for k in range(n + 1)] for j in range(n + 1)]
    basis = _Basis(of, np.argsort(of, kind="stable"), np.concatenate([[0], np.cumsum(size)]),
                   1.0 / np.sqrt(size[of]), np.array(mixed))
    for a in basis:
        a.flags.writeable = False
    return basis


@functools.lru_cache(maxsize=64)  # holds rows = n + m for n <= 10 at every m <= 4
def _laplace_steps(rows: int, m: int) -> tuple:
    """Per r = 1..m, for every increasing r-subset U of range(rows) (in
    `combinations` order) and each position p in it: the index of U less
    U[p] among the (r-1)-subsets, and U[p].  Laplace expansion along the
    r-th factor gives that term the sign (-1)^(r-1-p).  (Read-only.)"""
    steps, previous = [], {(): 0}
    for r in range(1, m + 1):
        subsets = list(itertools.combinations(range(rows), r))
        less = np.array([[previous[U[:p] + U[p + 1 :]] for p in range(r)] for U in subsets])
        step = (less, np.array(subsets), (-1.0) ** (r - 1 - np.arange(r)))
        for a in step:
            a.flags.writeable = False
        steps.append(step)
        previous = {U: i for i, U in enumerate(subsets)}
    return tuple(steps)


def _exterior_pencil(factors: list, n: int) -> np.ndarray:
    """The matrices, on the basis of `_symmetric_basis`, of the maps
    z -> Alt((X_1 (x) ... (x) X_m) z) from Sym^m(R^(n+1)) to the m-vectors
    of R^rows.  Each factor is rows x (n+1) but the last, which stacks
    two such X_m; there is one square matrix per X_m.

    For z = c (x) ... (x) c, row U of a matrix is the minor on rows U of
    [X_1 c, ..., X_m c].  The factors act one at a time on a block of basis
    tensors, and each step keeps only the rows antisymmetrised so far, by
    Laplace expansion along the newest factor; no (n+1)^m-square
    Kronecker product is formed.
    """
    m, rows = len(factors), len(factors[-1]) // 2
    of, order, first, value, _ = _symmetric_basis(n, m)
    steps = _laplace_steps(rows, m)
    sizes = [1] + [len(less) for less, _, _ in steps]
    widest = max(sizes[r - 1] * len(X) * (n + 1) ** (m - r) for r, X in enumerate(factors, start=1))
    width = max(1, _BLOCK_FLOATS // widest)
    count = sizes[-1]
    out = np.empty((2, count, count))
    for lo in range(0, count, width):
        hi = min(count, lo + width)
        entries = order[first[lo] : first[hi]]
        a = np.zeros(((n + 1) ** m, hi - lo))
        a[entries, of[entries] - lo] = value[entries]
        a = a.reshape(1, -1)
        for X, (less, subsets, sign) in zip(factors[:-1], steps):
            a = sign @ (X @ a.reshape(len(a), n + 1, -1))[less, subsets]
        b = factors[-1] @ a.reshape(len(a), n + 1, -1)
        less, subsets, sign = steps[-1]
        for k in range(len(out)):
            out[k, :, lo:hi] = sign @ b[less, subsets + k * rows]
    return out


def _multiparameter(A: np.ndarray, Bs: list):
    """The null vectors c, as rows, of the near-real solutions (w, c) of
    (A + w_1 B_1 + ... + w_m B_m) c = 0 for (n+m)x(n+1) matrices, whose c
    has degree n (c_n != 0).  m = 1 is the square pencil A c = -w_1 B_1 c.

    After a random orthogonal change Q of the homogeneous parameters
    (1, w_1, ..., w_m), the problem reads (M_0 + mu_1 M_1 + ... + mu_m M_m)
    c = 0.  Projected by m matrices P_i, it gives m square problems whose
    common solutions are the eigenvalues mu_m of Delta_0^-1 Delta_m, with
    the Kronecker determinants Delta_k, on c (x) ... (x) c (Atkinson,
    *Multiparameter Eigenvalue Problems*, 1972; Hochstenbach, Kosir &
    Plestenjak on rectangular problems).  That eigenvector is a symmetric
    tensor, so the Galerkin pencil S^T Delta_k S on the orthonormal basis S
    of Sym^m keeps every solution; its size, C(n+m, m), is the number of
    solutions of a generic problem, so it has no others.  On symmetric
    tensors Delta_k is (P_1 (x) ... (x) P_m) times the map z -> m! Alt((X_1
    (x) ... (x) X_m) z), with the factors M_1 .. M_m, or -M_0 in place of
    M_k.  So S^T Delta_k S = Pi E_k, with E_k the exterior pencil of
    `_exterior_pencil` and Pi the same square matrix for every k: the two
    pencils have the same eigenpairs, and this solves E_k, with no P_i.
    Q keeps E_0 well conditioned where the B alone would make it nearly
    singular (the match-ell problem, whose B_1 is close to nilpotent).

    Every eigenvalue mu_m within NEAR_REAL of the real axis gives c from
    its eigenvector y: y at {k, j, ..., j} over y at {j, ..., j} is
    sqrt(m) c_k / c_j, read at the j of largest |c_j|.
    """
    n, m = A.shape[1] - 1, len(Bs)
    Q = _parameter_change(m, _PROJECTION_SEED)
    changed = (Q.T @ np.array([A, *Bs]).reshape(m + 1, -1)).reshape(m + 1, *A.shape)
    E = _exterior_pencil([*changed[1:m], np.vstack([changed[m], -changed[0]])], n)
    mu, Y = np.linalg.eig(np.linalg.solve(E[0], E[1]))
    Y = Y.T[np.abs(mu.imag) <= NEAR_REAL * np.abs(mu)]
    mixed = _symmetric_basis(n, m).mixed
    pure = np.diag(mixed)
    j = np.argmax(np.abs(Y[:, pure]), axis=1)
    rows = np.arange(len(Y))
    with np.errstate(all="ignore"):
        c = Y[rows[:, None], mixed[j]] / (math.sqrt(m) * Y[rows, pure[j]])[:, None]
    c[rows, j] = 1.0
    c = c.real[np.isfinite(c).all(axis=1)]
    return c[c[:, -1] != 0.0]


def _shifts(n: int, m: int) -> list[np.ndarray]:
    """T_0 .. T_(m-1), (n+m)x(n+1): T_j takes t^k to t^(k+j)."""
    return [np.eye(n + m, n + 1, -j) for j in range(m)]


def solve_bae(ode: PolyODE, n: int, *, variable: Variable = Variable.R) -> list[RootSet]:
    """All distinct conjugate-closed solutions of the degree-n root system,
    as RootSets in `variable`.

    The branches are enumerated, for every working ODE, from the matrix A
    of the ODE on polynomials of degree n (`_ode_matrix`); no seed or start
    count takes part, so there is none to pass.  With m root-dependent W
    coefficients w_(m-1) .. w0 (m = 1 for the sextic and the coulombic
    quartic, 2 for the harmonic quartic and the decatic, 3 for the
    coulombic octic and 4 for the harmonic octic), the candidates are the
    null vectors of the (n+m)x(n+1) matrix A + w_(m-1) T_(m-1) + ... +
    w0 T0 at the near-real solutions of that m-parameter eigenproblem
    (`_multiparameter`, whose pencil has exactly its C(n+m, m) solutions).
    Every real solution is a candidate, so the promise above holds for all
    four families; with m = 1 the matrix is tridiagonal with positive
    off-diagonal products for both families, so all n + 1 branches are
    real and simple.  The candidates are polished and filtered as the rows
    of one batch (`_branches`), each row on its own floats; the filters'
    identity test bounds the same matrix-vector product at the W of the
    polished roots, and each branch keeps that W and identity residual
    (`RootSet.w`, `RootSet.identity_residual`).  Walking the rows in
    order, one whose polished roots are within DEDUP_TOL of a branch
    already kept is a duplicate.  The list is sorted by the
    canonical key (sorted real parts, then imaginary parts), so the output
    is deterministic.

    Raises NoSolutionFound when n > 0 and deg Q < deg P, where Q/P
    vanishes at infinity, so that a far-out root set passes every filter
    (no family's ODE: there no root is too far out to be a branch), or no
    enumerated candidate is accepted.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return _branches(ode, np.zeros((1, 0), dtype=complex), variable)
    if max(np.flatnonzero(ode.q), default=-1) < np.flatnonzero(ode.p)[-1]:
        raise NoSolutionFound("deg Q < deg P: Q/P vanishes at infinity, so far-out roots pass every filter")
    A = _ode_matrix(ode, n)
    starts = _starts(_multiparameter(A, _shifts(n, A.shape[0] - n)))
    branches = _branches(ode, starts, variable)
    rows = [i for i, branch in enumerate(branches) if branch is not None]
    if not rows:
        raise NoSolutionFound(f"no enumerated candidate of degree {n} was accepted")
    roots = np.array([branches[i].roots for i in rows])
    # near[i, j]: accepted row i's branch is within DEDUP_TOL of row j's.
    # A start that near a kept branch polishes to it, so the starts are not
    # compared, and a row that fails the filters hides no row.
    near = np.max(np.abs(roots[None, :, :] - roots[:, None, :]), axis=2) < DEDUP_TOL
    kept: list[int] = []
    for i in range(len(rows)):
        if not near[i, kept].any():
            kept.append(i)
    found = [branches[rows[i]] for i in kept]
    return sorted(found, key=lambda branch: _branch_key(branch.roots))


def _border_pencil(border: _Border, n: int) -> tuple[np.ndarray, np.ndarray]:
    """A and L such that S = sum c_k t^k of degree n solves the border's ODE
    at omega, with w_j as its condition gives, exactly when
    (A + omega L + w_(j-1) T_(j-1) + ... + w0 T0) c = 0: the matrix of
    `_ode_matrix` at Q0 + omega dQ, plus w_j T_j, is affine in omega, so
    its values at omega = 1 and 2 give A and L.  (At omega = 0, Q's top
    coefficient can vanish, and with it the row of w_j.)"""
    mats = []
    for omega in (1.0, 2.0):
        matrix = _ode_matrix(PolyODE(border.ode.p, np.add(border.ode.q, np.multiply(border.dq, omega))), n)
        mats.append(matrix + (border.top + omega * border.slope) * np.eye(len(matrix), n + 1, -border.j))
    L = mats[1] - mats[0]
    return mats[0] - L, L


def _border_candidates(border: _Border, n: int, within: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """The omega and start roots of each candidate of `_border_pencil` with
    omega in `within`, in ascending omega: its near-real solutions
    (omega, w_(j-1), ..., w0, c) from `_multiparameter` with m = j + 1 (the
    square pencil A c = -omega L c for j = 0), the parameters of each c
    the least-squares solution of (omega L + sum_i w_i T_i) c = -A c, and
    their roots from one stacked eigensolve (`_starts`)."""
    A, L = _border_pencil(border, n)
    Bs = [L, *_shifts(n, border.j + 1)[: border.j]]
    coeffs = _multiparameter(A, Bs)
    w = np.linalg.pinv(np.stack([coeffs @ B.T for B in Bs], axis=-1)) @ (coeffs @ -A.T)[..., None]
    omegas = w[:, 0, 0]
    keep = (within[0] <= omegas) & (omegas <= within[1])
    order = np.argsort(omegas[keep])
    return omegas[keep][order], _starts(coeffs[keep][order])
