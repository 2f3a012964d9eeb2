"""Generic functional-Bethe-ansatz engine.

Works on second-order ODEs  P(t) S'' + Q(t) S' + W(t) S = 0  with polynomial
coefficients of degree at most (4, 5, 4).  A degree-n polynomial
S(t) = prod_i (t - t_i) with distinct roots solves the equation exactly when
the roots satisfy the residue conditions

    sum_{j != i} 2 / (t_i - t_j) + Q(t_i) / P(t_i) = 0,    i = 1..n,

and W is assembled from the root power sums.  The module enumerates the
solutions when at most two W coefficients (w1, w0) depend on the roots: as
eigenvectors of the ODE's square matrix on polynomials of degree n when w0
is the only one, and as null vectors of its rectangular matrix at the real
solutions of a two-parameter eigenproblem otherwise (`_null_vectors`, which
also solves the match-ell problems in `families`).  It searches for them by
batched multi-start damped Newton when more coefficients depend on the
roots, and verifies candidate solutions by exact polynomial arithmetic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from numbers import Integral

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


# Half-width of the widest start box, the acceptance gates of a root set,
# and the distance (max norm, canonical order) below which two are one branch.
BOX = 20.0
BAE_TOL = 1e-10
IDENT_TOL = 1e-10
SEP_TOL = 1e-8
CONJ_TOL = 1e-8
DENOM_TOL = 1e-12
DEDUP_TOL = 1e-6
# Newton stopping rules: a row takes at most NEWTON_ITERATIONS steps.  It
# has converged once its residual is below NEWTON_FLOOR, or once its accepted
# step is at rounding level (|step| <= ROUNDING_STEP * (1 + |x|), max norms)
# and its residual is below its pass's output gate: BAE_TOL in root space,
# COEFF_TOL in coefficient space.
NEWTON_FLOOR = 1e-13
NEWTON_ITERATIONS = 100
COEFF_TOL = 1e-9
ROUNDING_STEP = 1e-15
# The largest imaginary part, relative to the largest coefficient, that the
# polynomial identity lets S have.
IMAG_TOL = 1e-8
# Beyond this, a small residual just means Q/P decayed along a diverging
# Newton path (possible when deg Q < deg P), not that a solution exists.
ESCAPE_RADIUS = 50.0 * BOX


@dataclass(frozen=True)
class SolverConfig:
    """RNG seed and starts per pass of the multi-start Newton root search,
    which runs only for ODEs with more than two root-dependent W
    coefficients (the octic); the others are enumerated, see solve_bae."""

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
# Multi-start Newton solver
#
# Two complementary passes feed one candidate pool: Newton on the residue
# map in root space, and Newton on the equivalent square system in monic
# coefficient space.  The coefficient pass works in real arithmetic, so
# conjugation-closed root sets (real polynomial factors) are reached from
# real starts without any pole structure in the way.
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


def _newton_steps(J: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Newton steps J^-1 R for a batch of rows.

    A singular row makes the batched solve fail for every row, so the batch
    falls back to per-row least squares and the other rows keep their steps.
    """
    try:
        return np.linalg.solve(J, R[..., None])[..., 0]
    except np.linalg.LinAlgError:
        return np.array([np.linalg.lstsq(Ji, Ri, rcond=None)[0] for Ji, Ri in zip(J, R)])


def _at_rounding_level(x: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """Per row: is the step dx, taken to reach x, at rounding level?"""
    return np.max(np.abs(dx), axis=1) <= ROUNDING_STEP * (1.0 + np.max(np.abs(x), axis=1))


def _newton_batch(ode: PolyODE, starts: np.ndarray) -> np.ndarray:
    """Damped Newton on all starts simultaneously; returns converged rows.

    Residuals are carried between iterations and the line search only
    re-evaluates rows that still reject their step; rows that cannot make
    progress after repeated halvings are dropped, and rows that have
    converged or settled at rounding level stop iterating.
    """
    T = starts.copy()
    with np.errstate(all="ignore"):
        R = _residual_batch(ode, T)
        norms = np.max(np.abs(R), axis=1)
        alive = np.isfinite(norms)
        done = alive & (norms < NEWTON_FLOOR)
        for _ in range(NEWTON_ITERATIONS):
            act = alive & ~done
            if not act.any():
                break
            Ta, Ra = T[act], R[act]
            step = _newton_steps(_jacobian_batch(ode, Ta), Ra)
            # Cap runaway steps before damping.
            mags = np.max(np.abs(step), axis=1)
            cap = 10.0 * (1.0 + np.max(np.abs(Ta), axis=1))
            scale = np.where(mags > cap, cap / np.where(mags > 0, mags, 1.0), 1.0)
            step = step * scale[:, None]
            base = np.sum(np.abs(Ra) ** 2, axis=1)
            lam = np.ones(len(step))
            trial = Ta - step
            Rt = _residual_batch(ode, trial)
            val = np.sum(np.abs(Rt) ** 2, axis=1)
            ok = np.isfinite(val) & (val <= base * (1.0 - 1e-4 * lam) + 1e-300)
            for _bt in range(18):
                if ok.all():
                    break
                idx = np.nonzero(~ok)[0]
                lam[idx] *= 0.5
                trial[idx] = Ta[idx] - lam[idx, None] * step[idx]
                Rt[idx] = _residual_batch(ode, trial[idx])
                val = np.sum(np.abs(Rt[idx]) ** 2, axis=1)
                ok[idx] = np.isfinite(val) & (
                    val <= base[idx] * (1.0 - 1e-4 * lam[idx]) + 1e-300
                )
            act_idx = np.nonzero(act)[0]
            stalled = act_idx[~ok]
            alive[stalled] = False
            moved = act_idx[ok]
            T[moved] = trial[ok]
            R[moved] = Rt[ok]
            norms[moved] = np.max(np.abs(Rt[ok]), axis=1)
            escaped = np.max(np.abs(T[moved]), axis=1) > ESCAPE_RADIUS
            fresh = np.isfinite(norms[moved]) & ~escaped
            alive[moved] &= fresh
            settled = _at_rounding_level(T[moved], lam[ok, None] * step[ok]) & (norms[moved] < BAE_TOL)
            done[moved] = alive[moved] & ((norms[moved] < NEWTON_FLOOR) | settled)
    good = alive & np.isfinite(norms) & (norms < BAE_TOL)
    return T[good]


def _coefficient_residual(ode: PolyODE, A: np.ndarray) -> np.ndarray:
    """Low-order coefficients of P S'' + Q S' + W S for monic S (batched).

    A holds the n non-leading real coefficients of S per row; W is built
    from power sums obtained through Newton's identities, which makes the
    top five coefficients of the expansion vanish identically and leaves a
    square n-equation system whose zeros are the root-system solutions.
    """
    m, n = A.shape
    S = np.concatenate([A, np.ones((m, 1))], axis=1)
    S1 = S[:, 1:] * np.arange(1, n + 1)
    S2 = S1[:, 1:] * np.arange(1, n) if n >= 2 else np.zeros((m, 0))
    # Elementary symmetric values e_k = (-1)^k * coefficient a_{n-k}.
    e = np.zeros((m, 5))
    for k in range(1, min(n, 4) + 1):
        e[:, k] = (-1.0) ** k * A[:, n - k]
    p1 = e[:, 1]
    p2 = e[:, 1] * p1 - 2.0 * e[:, 2]
    p3 = e[:, 1] * p2 - e[:, 2] * p1 + 3.0 * e[:, 3]
    p4 = e[:, 1] * p3 - e[:, 2] * p2 + e[:, 3] * p1 - 4.0 * e[:, 4]
    total = np.zeros((m, n + 5))
    for k, c in enumerate(ode.p):
        if c != 0.0 and S2.shape[1]:
            total[:, k : k + S2.shape[1]] += c * S2
    for k, c in enumerate(ode.q):
        if c != 0.0:
            total[:, k : k + S1.shape[1]] += c * S1
    for k, wk in enumerate(_closing_w(ode, n, p1, p2, p3, p4, e[:, 2])):
        total[:, k : k + n + 1] += np.reshape(wk, (-1, 1)) * S
    return total[:, :n]


def _coefficient_newton(ode: PolyODE, starts: np.ndarray) -> np.ndarray:
    """Damped Newton on the coefficient-space system; Jacobian by forward
    differences (the system is polynomial and smooth).

    Residuals are carried between iterations, the line search re-evaluates
    only the rows that still reject their step, and rows that have converged
    or settled at rounding level stop iterating.  A row that rejects every
    halving is dropped from the batch; it is still returned if its residual
    is under the output gate.
    """
    A = starts.copy()
    n = A.shape[1]
    with np.errstate(all="ignore"):
        R = _coefficient_residual(ode, A)
        norms = np.max(np.abs(R), axis=1)
        alive = np.isfinite(norms)
        done = alive & (norms < NEWTON_FLOOR)
        for _ in range(NEWTON_ITERATIONS):
            act = alive & ~done
            if not act.any():
                break
            Aa, Ra = A[act], R[act]
            J = np.empty((len(Aa), n, n))
            for j in range(n):
                h = 1e-7 * (1.0 + np.abs(Aa[:, j]))
                Ah = Aa.copy()
                Ah[:, j] += h
                J[:, :, j] = (_coefficient_residual(ode, Ah) - Ra) / h[:, None]
            step = _newton_steps(J, Ra)
            base = np.sum(Ra * Ra, axis=1)
            lam = np.ones(len(step))
            trial = Aa - step
            Rt = _coefficient_residual(ode, trial)
            val = np.sum(Rt * Rt, axis=1)
            ok = np.isfinite(val) & (val <= base + 1e-300)
            for _bt in range(24):  # 25 trials: lam = 1, 1/2, ..., 2^-24
                if ok.all():
                    break
                idx = np.nonzero(~ok)[0]
                lam[idx] *= 0.5
                trial[idx] = Aa[idx] - lam[idx, None] * step[idx]
                Rt[idx] = _coefficient_residual(ode, trial[idx])
                val = np.sum(Rt[idx] * Rt[idx], axis=1)
                ok[idx] = np.isfinite(val) & (val <= base[idx] + 1e-300)
            act_idx = np.nonzero(act)[0]
            alive[act_idx[~ok]] = False
            moved = act_idx[ok]
            A[moved] = trial[ok]
            R[moved] = Rt[ok]
            norms[moved] = np.max(np.abs(Rt[ok]), axis=1)
            settled = _at_rounding_level(A[moved], lam[ok, None] * step[ok]) & (norms[moved] < COEFF_TOL)
            done[moved] = (norms[moved] < NEWTON_FLOOR) | settled
    return A[np.isfinite(norms) & (norms < COEFF_TOL)]


def _coefficient_starts(n: int, cfg: SolverConfig) -> np.ndarray:
    """Real coefficient starts built from random real/conjugate-pair roots."""
    starts = np.empty((cfg.starts, n))
    for k in range(cfg.starts):
        rng = np.random.default_rng([cfg.seed, 1_000_003 + k])
        box = BOX / (4.0 ** (k % 4))
        roots = []
        i = 0
        while i < n:
            if i + 1 < n and rng.random() < 0.5:
                re = rng.uniform(-box, box)
                im = rng.uniform(0.05, max(0.2, box))
                roots.extend([re + 1j * im, re - 1j * im])
                i += 2
            else:
                roots.append(complex(rng.uniform(-box, box)))
                i += 1
        coeffs = poly_from_roots(np.array(roots)).real
        starts[k] = coeffs[:n]
    return starts


def _make_starts(n: int, cfg: SolverConfig) -> np.ndarray:
    """Seeded multi-scale starts: per-start RNG stream from (seed, index).

    Real parts are drawn from boxes of geometrically shrinking half-width so
    root sets living on very different scales all receive coverage;
    imaginary parts are seeded at 0 and +-1.
    """
    starts = np.empty((cfg.starts, n), dtype=complex)
    for k in range(cfg.starts):
        rng = np.random.default_rng([cfg.seed, k])
        box = BOX / (4.0 ** (k % 4))
        if n >= 2 and k % 3 == 2:
            # Conjugate-paired start: Newton preserves the symmetry, which
            # targets conjugation-closed solutions directly.
            half = (n + 1) // 2
            re_h = rng.uniform(-box, box, size=half)
            im_h = rng.choice(np.array([0.25, 0.5, 1.0, 2.0]), size=half)
            re = np.repeat(re_h, 2)[:n]
            im = np.column_stack([im_h, -im_h]).ravel()[:n]
            if n % 2:
                im[-1] = 0.0
        else:
            re = rng.uniform(-box, box, size=n)
            im = rng.choice(np.array([0.0, 1.0, -1.0]), size=n, p=[0.5, 0.25, 0.25])
        starts[k] = re + 1j * im
    return starts


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


# The projections of the two-parameter problem come from this fixed seed, so
# its solutions depend neither on SolverConfig.seed nor on earlier calls.
_PROJECTION_SEED = 0
# A solution (x, y) of the projected problem solves the full one when the
# smallest singular value of A + x B + y C is at most this fraction of its
# largest.
GENUINE_TOL = 1e-8


@functools.lru_cache(maxsize=16)
def _projection(n: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two random (n+1)x(n+2) projections P1, P2 and a random orthogonal
    3x3 change Q of the homogeneous parameters (1, x, y) (read-only)."""
    rng = np.random.default_rng([seed, n])
    P1, P2 = rng.standard_normal((2, n + 1, n + 2))
    Q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    for a in (P1, P2, Q):
        a.flags.writeable = False
    return P1, P2, Q


def _two_parameter(A: np.ndarray, B: np.ndarray, C: np.ndarray):
    """The real solutions (x, y, c) of (A + x B + y C) c = 0, for
    (n+2)x(n+1) matrices: arrays x, y and the null vectors c as rows.

    The projections P1 and P2 turn the rectangular problem into two square
    ones, (Pi A + x Pi B + y Pi C) ci = 0.  Their common solutions are the
    joint eigenvalues, x and y, of the commuting Delta0^-1 Delta1 and
    Delta0^-1 Delta2 on kron(c1, c2) (Atkinson, *Multiparameter Eigenvalue
    Problems*, 1972; Hochstenbach, Kosir & Plestenjak on rectangular
    problems).  They are formed after the change Q of (1, x, y), which
    keeps Delta0 well conditioned where B and C alone would make it nearly
    singular (for the match-ell problem, whose B is close to nilpotent).
    Each eigenvector of a generic combination of the two gives its
    eigenvalues as Rayleigh quotients, and Q maps them back.  Of the
    (n+1)^2 pairs, those that solve only the projected problems are dropped
    by the GENUINE_TOL test of the full matrix; it is made at the real
    part of each pair, so the real solutions are kept.
    """
    n = A.shape[1] - 1
    P1, P2, Q = _projection(n, _PROJECTION_SEED)
    changed = [Q[0, j] * A + Q[1, j] * B + Q[2, j] * C for j in range(3)]
    (A1, B1, C1), (A2, B2, C2) = ([P @ M for M in changed] for P in (P1, P2))
    delta0 = np.kron(B1, C2) - np.kron(C1, B2)
    delta = np.hstack([np.kron(C1, A2) - np.kron(A1, C2), np.kron(A1, B2) - np.kron(B1, A2)])
    G = np.linalg.solve(delta0, delta)
    G1, G2 = G[:, : (n + 1) ** 2], G[:, (n + 1) ** 2 :]
    _, Z = np.linalg.eig(G1 + (math.sqrt(2.0) - 1.0) * G2)
    norms = np.sum(np.abs(Z) ** 2, axis=0)
    mu = [np.einsum("ij,ik,kj->j", Z.conj(), G, Z) / norms for G in (G1, G2)]
    lam = Q @ np.array([np.ones_like(mu[0]), *mu])
    with np.errstate(all="ignore"):
        x, y = (lam[1] / lam[0]).real, (lam[2] / lam[0]).real
    finite = np.isfinite(x) & np.isfinite(y)
    x, y = x[finite], y[finite]
    _, s, vh = np.linalg.svd(A + x[:, None, None] * B + y[:, None, None] * C)
    if n:
        scale = s[:, 0]
    else:  # one column: its one singular value is measured against the terms
        scale = sum(np.linalg.norm(M) * abs(t) for M, t in ((A, 1.0), (B, x), (C, y)))
    genuine = s[:, -1] <= GENUINE_TOL * scale
    return x[genuine], y[genuine], vh[genuine, -1]


def _null_vectors(A: np.ndarray, B: np.ndarray, C: np.ndarray | None = None):
    """The real solutions (x, c) of (A + x B) c = 0 for square A and B, or
    of (A + x B + y C) c = 0 for some real y (`_two_parameter`) when A is
    (n+2)x(n+1), whose c has degree n (c_n != 0): arrays x and c as rows.

    The square pencil's solutions are the real eigenvalues of -B^-1 A."""
    if C is None:
        x, vecs = np.linalg.eig(-np.linalg.solve(B, A))
        real = x.imag == 0.0
        x, c = x.real[real], vecs.T[real].real
    else:
        x, _, c = _two_parameter(A, B, C)
    keep = c[:, -1] != 0.0
    return x[keep], c[keep]


def _eigen_rows(A: np.ndarray) -> list[np.ndarray]:
    """Candidate root rows from the matrix of `_ode_matrix` with m = 1 or 2:
    every degree-n branch is a null vector c of A + w0 T0 (an eigenvector of
    A when m = 1) or of A + w1 T1 + w0 T0, and its roots are those of S."""
    n = A.shape[1] - 1
    if A.shape[0] == A.shape[1]:
        coeffs = _null_vectors(A, np.eye(n + 1))[1]
    else:
        coeffs = _null_vectors(A, np.eye(n + 2, n + 1, -1), np.eye(n + 2, n + 1))[1]
    return [np.roots(c[::-1]).astype(complex) for c in coeffs]


def solve_bae(
    ode: PolyODE,
    n: int,
    cfg: SolverConfig = SolverConfig(),
    variable: Variable = Variable.R,
) -> list[RootSet]:
    """All distinct conjugate-closed solutions of the degree-n root system.

    When at most two W coefficients depend on the roots, the branches are
    enumerated and `cfg` has no effect.  With w0 alone (p4 = q3 = q4 = q5 =
    0: the sextic and coulombic quartic working ODEs), the candidates are
    the eigenvectors of the (n+1)x(n+1) matrix of the ODE on polynomials of
    degree n; for those two families it is tridiagonal with positive
    off-diagonal products, so all n + 1 branches are real and simple.  With
    w1 and w0 (q4 = q5 = 0: the harmonic quartic and the decatic), they are
    the null vectors of the (n+2)x(n+1) matrix A + w1 T1 + w0 T0 at the real
    solutions of that two-parameter eigenproblem (`_two_parameter`, with
    B = T1 and C = T0).  Either way every real solution is a candidate, so
    the promise above holds.  Every other ODE (the octic) is
    searched by multi-start damped Newton with per-start RNG streams derived
    from (seed, start index), which may miss a branch.  Candidates are
    polished, filtered and deduplicated, and the list is sorted by the
    canonical key (sorted real parts, then imaginary parts), so the output
    is deterministic for a seed.

    Raises NoSolutionFound when n > 0 and no Newton start converges, or no
    enumerated candidate is accepted.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return [RootSet(0, (), variable, 0.0, math.inf)]
    enumerated = _root_dependent(ode) <= 2
    if enumerated:
        converged = _eigen_rows(_ode_matrix(ode, n))
    else:
        converged = list(_newton_batch(ode, _make_starts(n, cfg)))
        for row in _coefficient_newton(ode, _coefficient_starts(n, cfg)):
            roots = np.roots(np.concatenate([row, [1.0]])[::-1])
            if np.all(np.isfinite(roots)):
                converged.append(roots.astype(complex))
        if len(converged) == 0:
            raise NoSolutionFound(f"no Newton start converged for n={n}")
    found: list[tuple] = []

    def known(roots: np.ndarray) -> bool:
        return any(np.max(np.abs(roots - f[0])) < DEDUP_TOL for f in found)

    # A row is skipped only once its branch is accepted, so a row that fails
    # the filters cannot hide a nearby row that passes them.
    with np.errstate(all="ignore"):
        for row in converged:
            raw = _canonical_order(row)
            if known(raw):
                continue
            accepted = _accept_candidate(ode, _polish(ode, raw)) or _accept_candidate(ode, raw)
            if accepted and not known(accepted[0]):
                found.append(accepted)
    if enumerated and not found:
        raise NoSolutionFound(f"no enumerated degree-{n} solution is a branch")
    found.sort(key=lambda item: _branch_key(item[0]))
    return [
        RootSet(n, tuple(complex(z) for z in ordered), variable, res, sep)
        for ordered, res, sep in found
    ]
