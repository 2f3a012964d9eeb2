"""Command-line front-end.

Subcommands:
  solve   run a family solve and emit solution documents (JSON or CSV)
  verify  re-run the full verification stack on stored documents
  sample  tabulate a stored wavefunction on a log grid (CSV)
  scan    sweep one coupling and tabulate solutions per value (CSV)

Exit codes: 0 success, 1 usage or parse error, 2 no solution found,
3 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import sys

import numpy as np

from .document import (
    document_to_solution,
    dumps_documents,
    loads_documents,
    solution_to_document,
)
from .errors import DocumentError, QesError
from .families import (
    Case,
    Family,
    FamilyProblem,
    solve_family_detailed,
)
from .oracle import VerifyLevel, verify_solution
from .wavefunction import eval_log_psi, eval_psi_log_derivatives

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_SOLUTION = 2
EXIT_VERIFY_FAILED = 3


def _parse_params(items) -> dict:
    out = {}
    for item in items or []:
        if "=" not in item:
            raise DocumentError(f"--param expects NAME=VALUE, got {item!r}")
        name, _, val = item.partition("=")
        try:
            out[name.strip()] = float(val)
        except ValueError as exc:
            raise DocumentError(f"--param {name}: {exc}") from exc
    return out


def _build_problem(args, free: dict) -> FamilyProblem:
    return FamilyProblem(
        Family(args.family),
        Case(args.case),
        args.n,
        float(args.ell),
        free,
        args.match_ell,
    )


def _write(text: str, path: str | None):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _solution_rows(solutions, reports):
    rows = []
    for idx, (sol, rep) in enumerate(zip(solutions, reports)):
        row = {"branch": idx, "energy": sol.energy}
        for key in sorted(sol.derived):
            row[key] = sol.derived[key]
        for j, z in enumerate(sol.roots.roots):
            row[f"root{j}_re"] = z.real
            row[f"root{j}_im"] = z.imag
        row["passed"] = "true" if rep.passed else "false"
        rows.append(row)
    return rows


def _write_csv(rows, columns, path: str | None):
    """Write the rows under the header `columns`, each float as its repr
    (the shortest text that reads back to it) and a missing cell empty."""
    text = io.StringIO()
    writer = csv.DictWriter(text, columns, restval="", extrasaction="ignore", lineterminator="\n")
    writer.writeheader()
    writer.writerows({k: float(v) if isinstance(v, float) else v for k, v in row.items()} for row in rows)
    _write(text.getvalue(), path)


def cmd_solve(args) -> int:
    problem = _build_problem(args, _parse_params(args.param))
    solutions, failures = solve_family_detailed(problem)
    if not solutions:
        for f in failures:
            print(f"no admissible branch: {f.error}: {f.detail}", file=sys.stderr)
        return EXIT_NO_SOLUTION
    reports = [verify_solution(s, VerifyLevel.FAST) for s in solutions]
    if args.format == "json":
        docs = [solution_to_document(s, r) for s, r in zip(solutions, reports)]
        _write(dumps_documents(docs), args.out)
    else:
        rows = _solution_rows(solutions, reports)
        _write_csv(rows, list(rows[0]), args.out)
    return EXIT_OK if any(r.passed for r in reports) else EXIT_VERIFY_FAILED


def cmd_verify(args) -> int:
    with open(args.path) as fh:
        docs = loads_documents(fh.read())
    if not docs:
        raise DocumentError(f"{args.path} holds no documents to verify")
    all_passed = True
    outputs = []
    for i, doc in enumerate(docs):
        solution = document_to_solution(doc)
        report = verify_solution(solution, VerifyLevel.FULL)
        all_passed &= report.passed
        print(f"document {i}: {'PASS' if report.passed else 'FAIL'}")
        for line in report.lines():
            print(f"  {line}")
        outputs.append(solution_to_document(solution, report))
    if args.out:
        _write(dumps_documents(outputs), args.out)
    return EXIT_OK if all_passed else EXIT_VERIFY_FAILED


def cmd_sample(args) -> int:
    with open(args.path) as fh:
        docs = loads_documents(fh.read())
    if not (math.isfinite(args.rmin) and math.isfinite(args.rmax)):
        raise DocumentError(f"--rmin and --rmax must be finite, got {args.rmin} and {args.rmax}")
    if args.rmin <= 0:
        raise DocumentError("rmin must be positive")
    if not args.rmax > args.rmin:
        raise DocumentError("rmax must exceed rmin")
    if args.points < 1:
        raise DocumentError(f"--points must be at least 1, got {args.points}")
    if not -len(docs) <= args.index < len(docs):
        raise DocumentError(f"--index {args.index} is out of range for {len(docs)} document(s)")
    solution = document_to_solution(docs[args.index])
    grid = np.geomspace(args.rmin, args.rmax, args.points)
    rows = []
    for r in grid.tolist():
        log_mag, sign = eval_log_psi(solution, r)
        try:
            psi1, _ = eval_psi_log_derivatives(solution, r)
        except QesError:
            psi1 = math.nan
        rows.append({"r": r, "log_abs_psi": log_mag, "sign": int(sign), "psi1_over_psi": psi1})
    _write_csv(rows, ["r", "log_abs_psi", "sign", "psi1_over_psi"], args.out)
    return EXIT_OK


def _parse_sweep(spec: str):
    if "=" not in spec or spec.count(":") != 2:
        raise DocumentError("--sweep expects NAME=START:STOP:STEPS")
    name, _, rng = spec.partition("=")
    start_s, stop_s, steps_s = rng.split(":")
    try:
        start, stop, steps = float(start_s), float(stop_s), int(steps_s)
    except ValueError as exc:
        raise DocumentError(f"--sweep: {exc}") from exc
    if steps < 1:
        raise DocumentError("--sweep needs STEPS >= 1")
    values = [start] if steps == 1 else list(np.linspace(start, stop, steps))
    return name.strip(), values


def cmd_scan(args) -> int:
    name, values = _parse_sweep(args.sweep)
    base = _parse_params(args.param)
    rows = []
    derived_keys: list[str] = []
    any_solution = False
    for value in values:
        free = dict(base)
        free[name] = float(value)
        try:
            solutions, failures = solve_family_detailed(_build_problem(args, free))
        except QesError as exc:
            rows.append({name: float(value), "error": type(exc).__name__})
            continue
        for idx, sol in enumerate(solutions):
            any_solution = True
            report = verify_solution(sol, VerifyLevel.FAST)
            row = {name: float(value), "branch": idx, "energy": sol.energy}
            for key in sorted(sol.derived):
                row[key] = sol.derived[key]
                if key not in derived_keys:
                    derived_keys.append(key)
            row["passed"] = "true" if report.passed else "false"
            row["error"] = ""
            rows.append(row)
        for failure in failures:
            rows.append({name: float(value), "error": failure.error})
    _write_csv(rows, [name, "branch", "energy", *sorted(derived_keys), "passed", "error"], args.out)
    return EXIT_OK if any_solution else EXIT_NO_SOLUTION


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `qes` parser, built once per process: parsing keeps no state in
    it.  No option or environment variable selects a seed or a start count:
    every family's branches are enumerated (see `bethe.solve_bae`), so
    `--seed` and `--starts` are usage errors and `QES_SEED` is not read."""
    parser = argparse.ArgumentParser(
        prog="qes",
        description="Exact bound states of singular inverse-power potentials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_problem_flags(p):
        p.add_argument("--family", required=True, choices=[f.value for f in Family])
        p.add_argument("--case", default="harmonic", choices=["harmonic", "coulombic"])
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--ell", type=float, default=0.0)
        p.add_argument("--param", action="append", metavar="NAME=VALUE")
        p.add_argument("--match-ell", dest="match_ell", action="store_true")
        p.add_argument("--out", default=None)

    p_solve = sub.add_parser("solve", help="solve one family problem")
    add_problem_flags(p_solve)
    p_solve.add_argument("--format", default="json", choices=["json", "csv"])
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="re-verify stored documents")
    p_verify.add_argument("path")
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_sample = sub.add_parser("sample", help="tabulate a stored wavefunction")
    p_sample.add_argument("path")
    p_sample.add_argument("--rmin", type=float, required=True)
    p_sample.add_argument("--rmax", type=float, required=True)
    p_sample.add_argument("--points", type=int, default=100)
    p_sample.add_argument("--index", type=int, default=0)
    p_sample.add_argument("--out", default=None)
    p_sample.set_defaults(func=cmd_sample)

    p_scan = sub.add_parser("scan", help="sweep one coupling")
    add_problem_flags(p_scan)
    p_scan.add_argument("--sweep", required=True, metavar="NAME=START:STOP:STEPS")
    p_scan.set_defaults(func=cmd_scan)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (QesError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
