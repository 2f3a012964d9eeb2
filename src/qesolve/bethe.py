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
m = 1 to 4; it also solves the match-ell problems of `families`).  Each
candidate is polished and verified by exact polynomial arithmetic
(`_branch`).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
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
    """A distinct, conjugate-closed solution of the root system."""

    n: int
    roots: tuple
    variable: Variable
    bae_residual: float
    separation: float

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
    a seed or a start count."""

    seed: int = 0
    starts: int = 200

    def __post_init__(self):
        if not isinstance(self.seed, Integral) or self.seed < 0:
            raise InvalidParameter(f"seed must be a non-negative integer, got {self.seed!r}")
        if not isinstance(self.starts, Integral) or self.starts < 1:
            raise InvalidParameter(f"starts must be a positive integer, got {self.starts!r}")


def _canonical_order(roots: np.ndarray) -> np.ndarray:
    order = np.lexsort((roots.imag, roots.real))
    return roots[order]


def _branch_key(roots) -> tuple:
    """Canonical sort key of a branch: root real parts, then imaginary parts."""
    return tuple(np.real(roots)) + tuple(np.imag(roots))


def _power_sums(roots, conj_tol: float):
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
        if abs(val.imag) > conj_tol * max(1.0, abs(val)):
            raise NonRealCoefficients(
                f"power sum {val} has imaginary part above {conj_tol}"
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


def compute_w_coefficients(ode: PolyODE, roots, conj_tol: float = CONJ_TOL):
    """W coefficients (w0..w4) that admit S(t) = prod (t - t_i) as solution.

    Evaluates the closing formulas on the root power sums; every term either
    carries a factor n or a root sum, so n = 0 returns all zeros.
    """
    arr = _roots_of(roots)
    if len(arr) == 0:
        return (0.0, 0.0, 0.0, 0.0, 0.0)
    return _closing_w(ode, len(arr), *_power_sums(arr, conj_tol))


def _separation(roots: np.ndarray) -> float:
    """Smallest distance between two roots (inf for fewer than two)."""
    n = len(roots)
    if n < 2:
        return math.inf
    diff = roots[:, None] - roots[None, :]
    return float(np.min(np.abs(diff[~np.eye(n, dtype=bool)])))


def bae_residuals(
    ode: PolyODE,
    roots,
    denom_tol: float = DENOM_TOL,
    sep_tol: float = SEP_TOL,
) -> np.ndarray:
    """Residuals sum_{j!=i} 2/(t_i - t_j) + Q(t_i)/P(t_i), one per root.

    All residuals vanish exactly when the roots solve the root system.
    Complex roots give complex residuals; callers usually take the max norm.
    """
    arr = _roots_of(roots)
    if len(arr) == 0:
        return np.zeros(0, dtype=complex)
    if np.min(np.abs(polyval(ode.p, arr))) < denom_tol:
        raise DenominatorBlowup("a root coincides with a zero of P(t)")
    if _separation(arr) < sep_tol:
        raise DenominatorBlowup("roots are closer than sep_tol")
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
# Candidate polish and filters
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


def _accept_candidate(ode: PolyODE, roots: np.ndarray):
    """Pair each root with the root nearest its conjugate and make the pairs
    exact (a root paired with itself exactly real), then apply the
    distinctness, denominator, residual and identity filters to that set in
    canonical order; every accepted set passes both independent checks."""
    if np.max(np.abs(roots)) > ESCAPE_RADIUS:
        return None
    partner = np.argmin(np.abs(roots[:, None] - np.conj(roots)), axis=1)
    mirror = np.conj(roots[partner])
    if np.any(partner[partner] != np.arange(len(roots))) or np.max(np.abs(roots - mirror)) > CONJ_TOL:
        return None
    ordered = _canonical_order(0.5 * (roots + mirror))
    sep = _separation(ordered)
    if sep <= SEP_TOL or np.min(np.abs(polyval(ode.p, ordered))) < DENOM_TOL:
        return None
    res = float(np.max(np.abs(_residual_batch(ode, ordered[None, :]))))
    if res >= BAE_TOL:
        return None
    try:
        w = compute_w_coefficients(ode, ordered)
        if verify_polynomial_identity(ode.with_w(w), ordered) >= IDENT_TOL:
            return None
    except NonRealCoefficients:
        return None
    return ordered, res, sep


def _polish(ode: PolyODE, roots: np.ndarray) -> np.ndarray:
    """Undamped Newton until the step, a direct estimate of the root error,
    is at rounding level; stops early where a step cannot be taken."""
    T = roots[None, :]
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
        T = T - step
        if _at_rounding_level(T, step)[0]:
            break
    return T[0]


def _branch(ode: PolyODE, start: np.ndarray, variable: Variable) -> RootSet | None:
    """The branch polished from the roots start, or None when the filters
    reject it; the empty start is the one branch of degree 0."""
    if not len(start):
        return RootSet(0, (), variable, 0.0, math.inf)
    with np.errstate(all="ignore"):
        accepted = _accept_candidate(ode, _polish(ode, start))
    if accepted is None:
        return None
    ordered, res, sep = accepted
    return RootSet(len(ordered), tuple(complex(z) for z in ordered), variable, res, sep)


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
# seed, so the solutions depend neither on SolverConfig.seed nor on earlier
# calls.
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


def solve_bae(
    ode: PolyODE,
    n: int,
    cfg: SolverConfig = SolverConfig(),
    variable: Variable = Variable.R,
) -> list[RootSet]:
    """All distinct conjugate-closed solutions of the degree-n root system.

    The branches are enumerated, for every working ODE, from the matrix A
    of the ODE on polynomials of degree n (`_ode_matrix`), and `cfg` has no
    effect.  With m root-dependent W coefficients w_(m-1) .. w0 (m = 1 for
    the sextic and the coulombic quartic, 2 for the harmonic quartic and
    the decatic, 3 for the coulombic octic and 4 for the harmonic octic),
    the candidates are the null vectors of the (n+m)x(n+1) matrix
    A + w_(m-1) T_(m-1) + ... + w0 T0 at the near-real solutions of that
    m-parameter eigenproblem (`_multiparameter`, whose pencil has exactly
    its C(n+m, m) solutions).  Every real solution is a candidate, so the
    promise above holds for all four families; with m = 1 the matrix is
    tridiagonal with positive off-diagonal products for both families, so
    all n + 1 branches are real and simple.  Each candidate is polished
    and filtered (`_branch`); the filters' identity test bounds the same
    matrix-vector product at the W of the polished roots.  The branches
    are deduplicated, and the list is sorted by the canonical key (sorted
    real parts, then imaginary parts), so the output is deterministic.

    Raises NoSolutionFound when n > 0 and no enumerated candidate is
    accepted.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return [RootSet(0, (), variable, 0.0, math.inf)]
    A = _ode_matrix(ode, n)
    found: list[RootSet] = []

    def known(roots: np.ndarray) -> bool:
        return bool(found) and np.min(np.max(np.abs([f.roots for f in found] - roots), axis=1)) < DEDUP_TOL

    # A row is skipped only once its branch is accepted, so a row that fails
    # the filters cannot hide a nearby row that passes them.
    for c in _multiparameter(A, _shifts(n, A.shape[0] - n)):
        start = _canonical_order(np.roots(c[::-1]).astype(complex))
        if known(start):
            continue
        branch = _branch(ode, start, variable)
        if branch is not None and not known(branch.as_array()):
            found.append(branch)
    if not found:
        raise NoSolutionFound(f"no enumerated candidate of degree {n} was accepted")
    return sorted(found, key=lambda branch: _branch_key(branch.roots))
