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
m = 1 to 4; it also solves the match-ell problems of `families`).  The
candidates of one solve are taken in one batch: their roots from one
stacked companion-matrix eigensolve (`_starts`), a Newton polish of every
row at once (`_polish`), and array filters followed by verification by
exact polynomial arithmetic (`_accept`).  Each accepted branch carries the
W coefficients and identity residual of that verification.
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

from .errors import DenominatorBlowup, InvalidParameter, NonRealCoefficients, NoSolutionFound
from .polynomials import poly_from_roots, polyadd, polyder, polymul, polyval


class Variable(str, Enum):
    """Which radial variable the polynomial roots live in."""

    R = "r"
    T_EQ_R2 = "t=r^2"
    Z_EQ_R2 = "z=r^2"


@dataclass(frozen=True)
class PolyODE:
    """Coefficient arrays (ascending) of P, Q and optionally W."""

    p: tuple
    q: tuple
    w: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "p", _pad(self.p, 5, "p"))
        object.__setattr__(self, "q", _pad(self.q, 6, "q"))
        if self.w is not None:
            object.__setattr__(self, "w", _pad(self.w, 5, "w"))
        if not any(c != 0.0 for c in self.p):
            raise ValueError("P(t) must not be identically zero")

    def with_w(self, w) -> "PolyODE":
        return PolyODE(self.p, self.q, tuple(w))


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
# Beyond this, a small residual just means that Q/P decays (possible when
# deg Q < deg P), not that a solution exists.
ESCAPE_RADIUS = 1000.0


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
        if not isinstance(self.seed, Integral) or self.seed < 0:
            raise InvalidParameter(f"seed must be a non-negative integer, got {self.seed!r}")
        if not isinstance(self.starts, Integral) or self.starts < 1:
            raise InvalidParameter(f"starts must be a positive integer, got {self.starts!r}")


def _canonical_order(roots: np.ndarray) -> np.ndarray:
    """The roots sorted by real part, then imaginary part: along the last
    axis, so each row of a stack on its own."""
    order = np.lexsort((roots.imag, roots.real), axis=-1)
    if roots.ndim == 1:
        return roots[order]
    return roots[np.arange(len(roots))[:, None], order]


def _branch_key(roots) -> tuple:
    """Canonical sort key of a branch: root real parts, then imaginary parts."""
    return tuple(np.real(roots)) + tuple(np.imag(roots))


def _power_sums(roots):
    """Real power sums s1..s4 and the pair sum, in canonical root order.

    Summation in canonical order makes the result exactly permutation
    invariant.  Raises NonRealCoefficients if any sum has an imaginary part
    above tolerance (the root set is then not conjugation closed).
    """
    arr = _canonical_order(np.asarray(roots, dtype=complex))
    sums = [np.sum(arr**k) for k in (1, 2, 3, 4)]
    s1 = sums[0]
    pair = (s1 * s1 - sums[1]) / 2.0
    out = []
    for val in sums + [pair]:
        if abs(val.imag) > CONJ_TOL * max(1.0, abs(val)):
            raise NonRealCoefficients(
                f"power sum {val} has imaginary part above {CONJ_TOL}"
            )
        out.append(val.real)
    return out  # s1, s2, s3, s4, pair


def _roots_of(roots_or_rootset):
    if isinstance(roots_or_rootset, RootSet):
        return np.array(roots_or_rootset.roots, dtype=complex)
    return np.asarray(roots_or_rootset, dtype=complex)


def _closing_w(ode: PolyODE, n: int, s1, s2, s3, s4, pair):
    """Closing formulas: W coefficients (w0..w4) from the root power sums.

    Works elementwise, so the sums may be floats or per-row arrays; w4
    depends on n alone and stays a scalar.
    """
    p0, p1, p2, p3, p4 = ode.p
    q0, q1, q2, q3, q4, q5 = ode.q
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

    Evaluates the closing formulas on the root power sums; every term either
    carries a factor n or a root sum, so n = 0 returns all zeros.  Raises
    NonRealCoefficients when a power sum's imaginary part exceeds CONJ_TOL.
    """
    arr = _roots_of(roots)
    if len(arr) == 0:
        return (0.0, 0.0, 0.0, 0.0, 0.0)
    return _closing_w(ode, len(arr), *_power_sums(arr))


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
    roots are closer than SEP_TOL.
    """
    arr = _roots_of(roots)
    if len(arr) == 0:
        return np.zeros(0, dtype=complex)
    if np.min(np.abs(polyval(ode.p, arr))) < DENOM_TOL:
        raise DenominatorBlowup("a root coincides with a zero of P(t)")
    if _separation(arr) < SEP_TOL:
        raise DenominatorBlowup("roots are closer than SEP_TOL")
    return _residual_batch(ode, arr[None, :])[0]


def verify_polynomial_identity(ode: PolyODE, roots) -> float:
    """Scaled max coefficient of P S'' + Q S' + W S, expanded exactly.

    S is built from the roots by coefficient convolution; a valid solution
    yields a value at rounding level.  Requires ode.w to be set.
    """
    if ode.w is None:
        raise ValueError("ode.w must be set (use compute_w_coefficients)")
    arr = _roots_of(roots)
    s = poly_from_roots(arr)
    scale_s = max(1.0, float(np.max(np.abs(s))))
    if float(np.max(np.abs(s.imag))) > IMAG_TOL * scale_s:
        raise NonRealCoefficients("polynomial factor has complex coefficients")
    s = s.real
    s1 = np.asarray(polyder(s))
    s2 = np.asarray(polyder(s1))
    total = polyadd(polymul(ode.p, s2), polymul(ode.q, s1), polymul(ode.w, s))
    scale = max(
        1.0,
        max(abs(c) for c in ode.p),
        max(abs(c) for c in ode.q),
        max(abs(c) for c in ode.w),
        scale_s,
    )
    return float(np.max(np.abs(total))) / scale


# ----------------------------------------------------------------------
# The candidate step: starts, polish and filters, one batch per solve
# ----------------------------------------------------------------------


def _residual_batch(ode: PolyODE, T: np.ndarray) -> np.ndarray:
    """Residue conditions, one row of roots per row of T."""
    m, n = T.shape
    f = polyval(ode.q, T) / polyval(ode.p, T)
    if n == 1:
        return f
    diff = T[:, :, None] - T[:, None, :]
    off = ~np.eye(n, dtype=bool)
    safe = np.where(off[None, :, :], diff, 1.0)
    inv = np.where(off[None, :, :], 1.0 / safe, 0.0)
    return 2.0 * inv.sum(axis=2) + f


def _jacobian_batch(ode: PolyODE, T: np.ndarray) -> np.ndarray:
    m, n = T.shape
    pv, qv = polyval(ode.p, T), polyval(ode.q, T)
    fp = (polyval(polyder(ode.q), T) * pv - qv * polyval(polyder(ode.p), T)) / (pv * pv)
    if n == 1:
        return fp[:, :, None]
    diff = T[:, :, None] - T[:, None, :]
    off = ~np.eye(n, dtype=bool)
    safe = np.where(off[None, :, :], diff, 1.0)
    inv2 = np.where(off[None, :, :], 1.0 / (safe * safe), 0.0)
    jac = 2.0 * inv2
    idx = np.arange(n)
    jac[:, idx, idx] = -2.0 * inv2.sum(axis=2) + fp
    return jac


def _at_rounding_level(x: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """Per row: is the step dx, taken to reach x, at rounding level?"""
    return np.max(np.abs(dx), axis=1) <= ROUNDING_STEP * (1.0 + np.max(np.abs(x), axis=1))


def _starts(coeffs: np.ndarray) -> np.ndarray:
    """The roots of S = sum c_k t^k (c_n != 0) for each row c of coeffs, in
    canonical order: what np.roots gives for c[::-1], from one stacked
    companion-matrix eigvals per count z of trailing zero coefficients
    (c_0 = ... = c_(z-1) = 0), with the z zero roots appended."""
    n = coeffs.shape[1] - 1
    out = np.zeros((len(coeffs), n), dtype=complex)
    zeros = np.argmax(coeffs != 0.0, axis=1)
    for z in set(zeros.tolist()):  # not np.unique, which imports numpy.ma
        rows = zeros == z
        c, size = coeffs[rows, z:], n - z
        if size:
            companion = np.zeros((len(c), size, size))
            companion[:, 0] = -c[:, -2::-1] / c[:, -1:]
            companion[:, np.arange(1, size), np.arange(size - 1)] = 1.0
            out[rows, :size] = np.linalg.eigvals(companion)
    return _canonical_order(out)


def _polish(ode: PolyODE, T: np.ndarray) -> np.ndarray:
    """Undamped Newton on every row of T until its step, a direct estimate
    of the root error, is at rounding level.  A row stops early where its
    step cannot be taken: a non-finite residual or step, or a singular
    Jacobian.  Rows never mix, so each ends where it would alone."""
    T = T.copy()
    active = np.arange(len(T) if T.shape[1] else 0)  # an empty row has nothing to polish
    for _ in range(8):
        if not len(active):
            break
        X = T[active]
        R = _residual_batch(ode, X)
        finite = np.isfinite(R).all(axis=1)
        if not finite.all():
            active, X, R = active[finite], X[finite], R[finite]
        step = _solve_rows(_jacobian_batch(ode, X), R)
        taken = np.isfinite(step).all(axis=1)
        if not taken.all():
            active, X, step = active[taken], X[taken], step[taken]
        X = X - step
        T[active] = X
        active = active[~_at_rounding_level(X, step)]
    return T


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


def _accept(ode: PolyODE, T: np.ndarray, variable: Variable) -> list[RootSet | None]:
    """The branch of each row of T, or None where the filters reject it.

    Each root is paired with the root nearest its conjugate and the pairs
    made exact (a root paired with itself exactly real).  The escape,
    pairing, distinctness, denominator and residual filters then test every
    row at once, in canonical order, and the identity filter (`_closed`)
    the rows that pass them, so every accepted set passes both independent
    checks.
    """
    n = T.shape[1]
    if not n:
        return [_closed(ode, T[0], variable, 0.0, math.inf) for _ in T]
    rows = np.arange(len(T))[:, None]
    keep = ~(np.max(np.abs(T), axis=1) > ESCAPE_RADIUS)
    partner = np.argmin(np.abs(T[:, :, None] - np.conj(T[:, None, :])), axis=2)
    mirror = np.conj(T[rows, partner])
    keep &= (partner[rows, partner] == np.arange(n)).all(axis=1)
    keep &= ~(np.max(np.abs(T - mirror), axis=1) > CONJ_TOL)
    ordered = _canonical_order(0.5 * (T + mirror))
    sep = _separations(ordered)
    keep &= ~((sep <= SEP_TOL) | (np.min(np.abs(polyval(ode.p, ordered)), axis=1) < DENOM_TOL))
    res = np.full(len(T), math.nan)
    res[keep] = np.max(np.abs(_residual_batch(ode, ordered[keep])), axis=1)
    keep &= ~(res >= BAE_TOL)
    return [
        _closed(ode, ordered[i], variable, float(res[i]), float(sep[i])) if keep[i] else None
        for i in range(len(T))
    ]


def _closed(ode: PolyODE, ordered: np.ndarray, variable: Variable, res: float, sep: float) -> RootSet | None:
    """The identity filter: the branch of the roots ordered, carrying its W
    coefficients and identity residual, or None when S has complex
    coefficients or the identity residual reaches IDENT_TOL."""
    try:
        w = compute_w_coefficients(ode, ordered)
        identity = verify_polynomial_identity(ode.with_w(w), ordered)
    except NonRealCoefficients:
        return None
    if identity >= IDENT_TOL:
        return None
    return RootSet(len(ordered), tuple(complex(z) for z in ordered), variable, res, sep, w, identity)


def _branches(ode: PolyODE, starts: np.ndarray, variable: Variable) -> list[RootSet | None]:
    """The branch polished from each row of starts, or None where the
    filters reject it; an empty row is the one branch of degree 0."""
    with np.errstate(all="ignore"):
        return _accept(ode, _polish(ode, starts), variable)


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
    w = _closing_w(ode, n, 0.0, 0.0, 0.0, 0.0, 0.0)
    k = np.arange(n + 1)
    # Row d + 2 holds the coefficient of t^d; column k is the image of t^k.
    band = np.zeros((n + 7, n + 1))
    for j in range(5):
        band[k + j, k] += ode.p[j] * k * (k - 1.0)
    for j in range(6):
        band[k + j + 1, k] += ode.q[j] * k
    for j in range(m, 5):
        band[k + j + 2, k] += w[j]
    return band[2 : n + m + 2]


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


@functools.lru_cache(maxsize=16)
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


@functools.lru_cache(maxsize=16)
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
    order, one whose start or polished roots are within DEDUP_TOL of a
    branch already kept is a duplicate.  The list is sorted by the
    canonical key (sorted real parts, then imaginary parts), so the output
    is deterministic.

    Raises NoSolutionFound when n > 0 and no enumerated candidate is
    accepted.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return _branches(ode, np.zeros((1, 0), dtype=complex), variable)
    A = _ode_matrix(ode, n)
    starts = _starts(_multiparameter(A, _shifts(n, A.shape[0] - n)))
    found: list[RootSet] = []

    def known(roots: np.ndarray) -> bool:
        return bool(found) and np.min(np.max(np.abs([f.roots for f in found] - roots), axis=1)) < DEDUP_TOL

    # Every row is polished and filtered in one batch; walking the rows in
    # order, one whose start or branch is already known is skipped, so a
    # row that fails the filters cannot hide a nearby row that passes them.
    for start, branch in zip(starts, _branches(ode, starts, variable)):
        if branch is not None and not known(start) and not known(branch.as_array()):
            found.append(branch)
    if not found:
        raise NoSolutionFound(f"no enumerated candidate of degree {n} was accepted")
    return sorted(found, key=lambda branch: _branch_key(branch.roots))
