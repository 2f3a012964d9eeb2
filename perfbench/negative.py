"""Negative controls: each correctness check must fire on a tampered output.

Run by `run.py --smoke`, outside any timing.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
from pathlib import Path

import checks
import qesolve.cli
from qesolve import Case, Family, FamilyProblem, solve_family_detailed
from qesolve.document import dumps_documents, solution_to_document
from workloads import SWEEP_CFG, Op, Sweep, verify_problems


def _fails(shape, roots, energy) -> bool:
    return bool(checks.branch_problems("control", shape, roots, energy))


def controls(workdir: Path):
    """Yield (label, fired) for each control; fired is False also when the
    untampered output does not pass first."""
    quartic = FamilyProblem(Family.QUARTIC, Case.HARMONIC, 1, 0, {"omega": 1.0, "c": 0.0, "d": 0.5})
    sol = solve_family_detailed(quartic, SWEEP_CFG)[0][0]
    shape = checks.shape_of("quartic", "harmonic", 1, 0, dict(quartic.free), sol.derived)
    clean = not _fails(shape, sol.roots.roots, sol.energy)
    yield "energy + 1e-3 fails the radial residual", clean and _fails(shape, sol.roots.roots, sol.energy + 1e-3)
    bumped = [sol.roots.roots[0] + 1e-2]
    yield "root + 1e-2 fails the radial residual", clean and _fails(shape, bumped, sol.energy)

    sextic = FamilyProblem(Family.SEXTIC, Case.HARMONIC, 2, 0, {"omega": 0.7, "e": 0.3, "d": 0.8})
    sols, fails = solve_family_detailed(sextic, SWEEP_CFG)
    roots = [s.roots.roots for s in sols] + [f.roots.roots for f in fails if f.roots is not None]
    expected, problems = checks.match_sextic_branches(dict(sextic.free), 2, roots)
    clean = expected == 3 == len(roots) and not problems
    bumped = [tuple(r[0] + 1e-2 if k == 0 else r[k] for k in range(len(r))) for r in roots]
    _, problems = checks.match_sextic_branches(dict(sextic.free), 2, bumped)
    yield "root + 1e-2 is no sextic matrix branch", clean and bool(problems)
    op = Op("sextic control", sextic, (sols[1:], fails) if sols else (sols, fails[1:]))
    yield "a dropped sextic branch counts as failed", clean and len(Sweep().check([op]).failed) == 1

    workdir.mkdir(parents=True, exist_ok=True)
    try:
        doc, out = workdir / "doc.json", workdir / "out.json"
        doc.write_text(dumps_documents([solution_to_document(sol)]))
        code = _verify(doc, out)
        clean = code == 0 and not verify_problems("control", sol, code, out)
        report = json.loads(out.read_text())
        for check in report[0]["verification"]["checks"]:
            if check["name"] == "fd_eigenvalue_error":
                check["value"] += 1e-6
        out.write_text(json.dumps(report))
        yield "FD error + 1e-6 differs from LAPACK", clean and bool(verify_problems("control", sol, code, out))
        tampered = dataclasses.replace(sol, energy=sol.energy + 1e-3)
        doc.write_text(dumps_documents([solution_to_document(tampered)]))
        yield "energy + 1e-3 makes qes verify exit 3", clean and _verify(doc, out) == 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _verify(doc: Path, out: Path) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return qesolve.cli.main(["verify", str(doc), "--out", str(out)])
