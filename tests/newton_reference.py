"""The multi-start damped Newton root search that enumeration replaced in
`qesolve.bethe`, kept as a test reference.

Two complementary passes feed one candidate pool: Newton on the residue
map in root space, and Newton on the equivalent square system in monic
coefficient space.  The coefficient pass works in real arithmetic, so
conjugation-closed root sets (real polynomial factors) are reached from
real starts without any pole structure in the way.  `newton_branches` runs
both passes from `SolverConfig(seed, starts)` and sends their rows through
the polish, filters, deduplication and sort of `solve_bae`.  The tests check
that every branch it finds is one that `solve_bae` enumerates.
"""

import math

import numpy as np

from qesolve.bethe import (
    BAE_TOL,
    DEDUP_TOL,
    PolyODE,
    RootSet,
    SolverConfig,
    Variable,
    _accept,
    _branch_key,
    _branches,
    _canonical_order,
    _closing_w,
    _residual_batch,
)

from candidate_reference import at_rounding_level, jacobian
from identity_reference import poly_from_roots

# Half-width of the widest start box.
BOX = 20.0
# Newton stopping rules: a row takes at most NEWTON_ITERATIONS steps.  It
# has converged once its residual is below NEWTON_FLOOR, or once its accepted
# step is at rounding level (|step| <= ROUNDING_STEP * (1 + |x|), max norms)
# and its residual is below its pass's output gate: BAE_TOL in root space,
# COEFF_TOL in coefficient space.
NEWTON_FLOOR = 1e-13
NEWTON_ITERATIONS = 100
COEFF_TOL = 1e-9
# A root-space row that moves beyond this radius is dropped: the search's
# own escape rule, which `solve_bae`'s enumeration does not need.
ESCAPE_RADIUS = 1000.0


def _newton_steps(J: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Newton steps J^-1 R for a batch of rows.

    A singular row makes the batched solve fail for every row, so the batch
    falls back to per-row least squares and the other rows keep their steps.
    """
    try:
        return np.linalg.solve(J, R[..., None])[..., 0]
    except np.linalg.LinAlgError:
        return np.array([np.linalg.lstsq(Ji, Ri, rcond=None)[0] for Ji, Ri in zip(J, R)])


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
            step = _newton_steps(jacobian(ode, Ta), Ra)
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
            settled = at_rounding_level(T[moved], lam[ok, None] * step[ok]) & (norms[moved] < BAE_TOL)
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
    for k, wk in enumerate(_closing_w(ode.p, ode.q, n, p1, p2, p3, p4, e[:, 2])):
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
            settled = at_rounding_level(A[moved], lam[ok, None] * step[ok]) & (norms[moved] < COEFF_TOL)
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


def newton_branches(ode: PolyODE, n: int, cfg: SolverConfig, variable: Variable = Variable.R) -> list[RootSet]:
    """The branches both Newton passes find from the starts of `cfg`, through
    the candidate loop of `solve_bae` (empty when no start converges)."""
    if n == 0:
        return [RootSet(0, (), variable, 0.0, math.inf)]
    converged = list(_newton_batch(ode, _make_starts(n, cfg)))
    for row in _coefficient_newton(ode, _coefficient_starts(n, cfg)):
        roots = np.roots(np.concatenate([row, [1.0]])[::-1])
        if np.all(np.isfinite(roots)):
            converged.append(roots.astype(complex))
    found: list[RootSet] = []

    def known(roots: np.ndarray) -> bool:
        return any(np.max(np.abs(roots - f.as_array())) < DEDUP_TOL for f in found)

    with np.errstate(all="ignore"):
        for row in converged:
            raw = _canonical_order(row)
            if known(raw):
                continue
            accepted = _branches(ode, raw[None, :], variable)[0] or _accept(ode, raw[None, :], variable)[0]
            if accepted and not known(accepted.as_array()):
                found.append(accepted)
    return sorted(found, key=lambda branch: _branch_key(branch.roots))
