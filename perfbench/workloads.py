"""The three workloads: their operations, and the checks of their outputs.

Every run does the same fixed list of operations; the workload seed sets
the order in which they run (seed 0: the order listed here).  The inputs do
not change with the seed, so that `branches` and `failed` repeat exactly
from run to run.  `setup` builds the list and warms up; `check` judges the
outputs with `checks` after the timed phase.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import qesolve.cli
import qesolve.families
import qesolve.oracle
from qesolve import Case, Family, FamilyProblem, SolverConfig, solve_family
from qesolve.document import dumps_documents, solution_to_document

SWEEP_CFG = SolverConfig(seed=2026, starts=48)  # the acceptance sweep's config
POOL_CFG = SolverConfig(seed=0, starts=80)  # the spectral-oracle pool's config

FAMILY_CASES = {
    "quartic": ("harmonic", "coulombic"),
    "sextic": ("harmonic",),
    "octic": ("harmonic", "coulombic"),
    "decatic": ("harmonic",),
}
LADDER_STEP = {"quartic": 1.0, "octic": 1.0, "sextic": 2.0, "decatic": 2.0}

# Sweep: the acceptance sweep's draws, n = 0..5.  All 20 sextic draws, where
# 8 solves undercount branches (the failures this workload counts), and the
# first 4 draws of each other family.
SEXTIC_DRAWS = 20
OTHER_DRAWS = 4
SWEEP_N = 6
# match_ell: 8 draws, each a sextic and a decatic problem, n = 0..3, less the
# operations that raise in the program's outer solve (see CHANGES.md):
# (family, draw, n).
MATCH_DRAWS = 8
MATCH_N = 4
MATCH_LEFT_OUT = {("decatic", 2, 2)}


def family_rng(stream: str) -> np.random.Generator:
    """The acceptance sweep's per-family coupling streams."""
    return np.random.default_rng(sum(map(ord, stream)))


def in_seed_order(ops: list, seed: int) -> list:
    if seed == 0:
        return ops
    return [ops[i] for i in np.random.default_rng(seed).permutation(len(ops))]


def draw_couplings(family: str, case: str, rng: np.random.Generator):
    """One coupling draw, shared by every n of the draw (as the acceptance
    sweep draws them)."""
    if family == "quartic":
        d = rng.uniform(0.3, 1.5)
        c = rng.uniform(-0.3 * math.sqrt(2 * d), 1.2)
        ell = int(rng.integers(0, 3))
        if case == "harmonic":
            return {"omega": rng.uniform(0.4, 1.6), "c": c, "d": d}, ell
        return {"a": rng.uniform(-2.0, -0.8), "c": c, "d": d}, ell
    if family == "sextic":
        return {"omega": rng.uniform(0.2, 1.2), "e": rng.uniform(-0.5, 1.2), "d": rng.uniform(0.3, 1.5)}, 0
    if family == "octic":
        h = rng.uniform(0.3, 1.5)
        e, f, g = rng.uniform(-0.4, 0.4, size=3)
        ell = int(rng.integers(0, 3))
        if case == "harmonic":
            return {"omega": rng.uniform(0.4, 1.6), "e": e, "f": f, "g": g, "h": h}, ell
        return {"a": rng.uniform(-2.0, -0.8), "e": e, "f": f, "g": g, "h": h}, ell
    return {"omega": rng.uniform(0.4, 1.6), "b": rng.uniform(-0.4, 0.8),
            "c": rng.uniform(-0.8, 0.8), "d": rng.uniform(0.3, 1.5)}, 0


@dataclass
class Op:
    label: str
    payload: object
    result: object = None
    error: str | None = None


@dataclass
class Outcome:
    branches: int = 0
    failed: list = field(default_factory=list)  # labels of failed operations
    problems: list = field(default_factory=list)  # correctness violations
    unmatched: int = 0  # match-ell branches with no omega for the requested ell


def _solve(problem: FamilyProblem):
    # Looked up at call time so that a traced run goes through the wrapper.
    return qesolve.families.solve_family_detailed(problem, SWEEP_CFG)


def _problem_key(p: FamilyProblem):
    return p.family.value, p.case.value, p.n, p.ell, dict(p.free), p.match_ell


def _check_solutions(op: Op, outcome: Outcome):
    """Residual and closed-form energy of every returned branch."""
    fam, case, n, ell, free, match = _problem_key(op.payload)
    solutions, _ = op.result
    for j, sol in enumerate(solutions):
        label = f"{op.label} branch {j}"
        try:
            shape = checks.shape_of(fam, case, n, ell, free, sol.derived, match)
        except KeyError as exc:
            outcome.problems.append(f"{label}: derived coupling {exc} missing")
            continue
        found = checks.branch_problems(label, shape, sol.roots.roots, sol.energy)
        outcome.problems.extend(found)
        if not found:
            outcome.branches += 1


class Sweep:
    """One op = one solve_family_detailed call of the acceptance-sweep grid."""

    def setup(self, seed: int, smoke: bool) -> list[Op]:
        ops = []
        for family, cases in FAMILY_CASES.items():
            rng = family_rng(family)
            draws = range(SEXTIC_DRAWS if family == "sextic" else OTHER_DRAWS)
            n_max = SWEEP_N
            if smoke:
                draws, n_max = ((12,), 4) if family == "sextic" else ((0,), 3)
            for draw in range(max(draws) + 1):
                case = cases[draw % len(cases)]
                free, ell = draw_couplings(family, case, rng)
                if draw not in draws:
                    continue
                for n in range(n_max):
                    problem = FamilyProblem(Family(family), Case(case), n, ell, free)
                    ops.append(Op(f"{family}/{case} draw {draw} n={n}", problem))
        _solve(FamilyProblem(Family.QUARTIC, Case.HARMONIC, 1, 0, {"omega": 1.0, "c": 0.0, "d": 0.5}))
        return in_seed_order(ops, seed)

    def run(self, op: Op):
        return _solve(op.payload)

    def check(self, ops: list[Op]) -> Outcome:
        outcome = Outcome()
        ladders = {}
        for op in ops:
            if op.error is not None:
                outcome.failed.append(op.label)
                continue
            _check_solutions(op, outcome)
            fam, case, n, _, free, _ = _problem_key(op.payload)
            solutions, failures = op.result
            if case == "harmonic":
                key = op.label.rsplit(" n=", 1)[0]
                ladders.setdefault(key, (fam, free["omega"], {}))[2][n] = [s.energy for s in solutions]
            if fam == "sextic":
                returned = [s.roots.roots for s in solutions]
                returned += [f.roots.roots for f in failures if f.roots is not None]
                expected, found = checks.match_sextic_branches(free, n, returned)
                outcome.problems.extend(f"{op.label}: {p}" for p in found)
                if len(returned) < expected:
                    outcome.failed.append(f"{op.label}: {len(returned)} of {expected} branches")
        for key, (fam, omega, by_n) in ladders.items():
            for n in by_n:
                if n - 1 in by_n:
                    outcome.problems += checks.ladder_problems(
                        f"{key} n={n - 1}->{n}", LADDER_STEP[fam], omega, by_n[n - 1], by_n[n])
        return outcome


class MatchEll:
    """One op = one solve_family_detailed call with match_ell=True."""

    def setup(self, seed: int, smoke: bool) -> list[Op]:
        rng = family_rng("match_ell")
        draws, n_max = (1, 2) if smoke else (MATCH_DRAWS, MATCH_N)
        ops = []
        for draw in range(draws):
            for family in ("sextic", "decatic"):
                if family == "sextic":
                    free = {"e": rng.uniform(-0.5, 1.2), "d": rng.uniform(0.3, 1.5)}
                else:
                    free = {"b": rng.uniform(-0.4, 0.8), "c": rng.uniform(-0.8, 0.8),
                            "d": rng.uniform(0.3, 1.5)}
                ell = int(rng.integers(0, 3))
                for n in range(n_max):
                    if (family, draw, n) in MATCH_LEFT_OUT:
                        continue
                    problem = FamilyProblem(Family(family), Case.HARMONIC, n, ell, free, True)
                    ops.append(Op(f"{family} draw {draw} ell={ell} n={n}", problem))
        _solve(FamilyProblem(Family.SEXTIC, Case.HARMONIC, 1, 0, {"e": 0.5, "d": 0.5}, True))
        return in_seed_order(ops, seed)

    def run(self, op: Op):
        return _solve(op.payload)

    def check(self, ops: list[Op]) -> Outcome:
        outcome = Outcome()
        for op in ops:
            if op.error is not None:
                outcome.failed.append(op.label)
                continue
            _check_solutions(op, outcome)
            fam, _, n, ell, free, _ = _problem_key(op.payload)
            solutions, failures = op.result
            outcome.unmatched += len(failures)
            for j, sol in enumerate(solutions):
                label = f"{op.label} branch {j}"
                if not abs(sol.derived["ell"] - ell) <= checks.ELL_TOL:
                    outcome.problems.append(f"{label}: ell {sol.derived['ell']!r} != {ell}")
                if fam == "sextic" and n == 0:
                    s2d = math.sqrt(2.0 * free["d"])
                    xi = free["e"] / s2d
                    omega = ((xi + 1.0) ** 2 - (ell + 0.5) ** 2) / (2.0 * s2d)
                    if not abs(sol.derived["omega"] - omega) <= 1e-9 * max(1.0, omega):
                        outcome.problems.append(f"{label}: omega {sol.derived['omega']!r} != {omega!r}")
        return outcome


# The spectral-oracle pool: real positive branches of all four families with
# closed-form energies.  (family, case, n, ell, free, pick) with pick 0 = the
# first branch, "max" = largest real root, "pos" = the branch with a positive
# root.
VERIFY_POOL = (
    ("quartic", "harmonic", 0, 0, {"omega": 1.0, "c": 0.0, "d": 0.5}, 0),
    ("quartic", "harmonic", 1, 0, {"omega": 1.0, "c": 0.0, "d": 0.5}, 0),
    ("quartic", "coulombic", 0, 0, {"a": -1.0, "c": 0.0, "d": 0.5}, 0),
    ("octic", "harmonic", 0, 0, {"omega": 1.0, "e": 0.0, "f": 0.0, "g": 0.0, "h": 0.5}, 0),
    ("octic", "harmonic", 1, 0, {"omega": 1.0, "e": 0.0, "f": 0.0, "g": 0.0, "h": 0.5}, "max"),
    ("octic", "coulombic", 0, 0, {"a": -1.0, "e": 0.0, "f": 0.0, "g": 0.0, "h": 0.5}, 0),
    ("sextic", "harmonic", 0, 0, {"omega": 1.0, "e": 0.5, "d": 0.5}, 0),
    ("sextic", "harmonic", 1, 0, {"omega": 0.1, "e": 1.0, "d": 0.5}, "pos"),
    ("decatic", "harmonic", 0, 0, {"omega": 1.0, "b": 0.0, "c": 1.0, "d": 0.5}, 0),
    ("decatic", "harmonic", 1, 0, {"omega": 1.0, "b": 0.0, "c": 1.0, "d": 0.5}, 0),
)


class Verify:
    """One op = one in-process `qes verify DOC --out OUT` of a one-document
    file written during set-up."""

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def setup(self, seed: int, smoke: bool) -> list[Op]:
        order = in_seed_order(list(range(len(VERIFY_POOL))), seed)
        if smoke:
            order = order[:1]
        self.workdir.mkdir(parents=True, exist_ok=True)
        ops = []
        for i in order:
            fam, case, n, ell, free, pick = VERIFY_POOL[i]
            sols = solve_family(FamilyProblem(Family(fam), Case(case), n, ell, free), POOL_CFG)
            if pick == "max":
                sol = max(sols, key=lambda s: s.roots.roots[0].real)
            elif pick == "pos":
                sol = [s for s in sols if s.roots.roots[0].real > 0][0]
            else:
                sol = sols[pick]
            doc = self.workdir / f"doc{i}.json"
            doc.write_text(dumps_documents([solution_to_document(sol)]))
            ops.append(Op(f"{fam}/{case} n={n} pool {i}", (sol, doc, self.workdir / f"out{i}.json")))
        return ops

    def run(self, op: Op):
        _, doc, out = op.payload
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = qesolve.cli.main(["verify", str(doc), "--out", str(out)])
        return code, buf.getvalue()

    def check(self, ops: list[Op]) -> Outcome:
        outcome = Outcome()
        for op in ops:
            if op.error is not None:
                outcome.failed.append(op.label)
                continue
            sol, _, out = op.payload
            code, _ = op.result
            found = verify_problems(op.label, sol, code, out)
            outcome.problems += found
            if not found:
                outcome.branches += 1
        return outcome

    def cleanup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def verify_problems(label: str, sol, code: int, out: Path) -> list[str]:
    """Exit code and report of one `qes verify`, the closed-form energy, the
    radial residual, and the reported FD eigenvalue error against LAPACK on
    the same grid."""
    if code != 0:
        return [f"{label}: qes verify exited {code}"]
    report = json.loads(out.read_text())[0]["verification"]
    problems = [f"{label}: check {c['name']} failed" for c in report["checks"] if not c["passed"]]
    if not report["passed"] or not report["checks"]:
        problems.append(f"{label}: report not passed")
    p = sol.problem
    shape = checks.shape_of(p.family.value, p.case.value, p.n, p.ell, dict(p.free), sol.derived, p.match_ell)
    problems += checks.branch_problems(label, shape, sol.roots.roots, sol.energy)
    fd = [c["value"] for c in report["checks"] if c["name"] == "fd_eigenvalue_error"]
    coarse = qesolve.oracle.default_fd_grid(sol, 2400)
    n_fine = 2 * 2400 + 1
    ref = checks.fd_eigen_error(shape, sol.energy, coarse.r_min, coarse.r_max, n_fine)
    h = (coarse.r_max - coarse.r_min) / (n_fine + 1)
    tol = 8.0 * np.finfo(float).eps * 2.0 / (h * h)  # rounding of the diagonal
    if len(fd) != 1 or not abs(fd[0] - ref) <= tol:
        problems.append(f"{label}: FD error {fd} != LAPACK {ref!r} (tol {tol:.1e})")
    if not ref <= 5e-3 * max(1.0, abs(2.0 * sol.energy)):
        problems.append(f"{label}: LAPACK eigenvalue {ref!r} away from 2E")
    return problems
