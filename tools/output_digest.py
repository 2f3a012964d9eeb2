"""Print a digest of every `sweep` and `match_ell` benchmark operation.

    python3 tools/output_digest.py > digest.txt
    python3 tools/output_digest.py --values > values.jsonl
    python3 tools/output_digest.py --acceptance [--values] > acceptance.jsonl
    python3 tools/output_digest.py --match [--values] > match.jsonl
    python3 tools/output_digest.py --small [--values] > small.jsonl
    python3 tools/output_digest.py --compare old.jsonl new.jsonl
    python3 tools/output_digest.py --verify > verify.txt
    python3 tools/output_digest.py --verify --values > verify.jsonl
    python3 tools/output_digest.py --verify --acceptance [--values] > verify_acceptance.jsonl

Run it in checkouts of two commits and `cmp` the outputs: a change meant
to keep behaviour must print the same bytes.  It imports `src/qesolve` and
`perfbench/workloads.py` from the checkout it lives in.  One line per
operation: its label, the number of branches, the sha256 of the solutions'
documents with their FAST verification reports, and the failure records
(or the exception the solve raised).

With `--values` it prints one JSON line per operation instead: the label,
the branch count, each branch's roots (as [re, im] pairs), energy, derived
couplings and diagnostics as `repr` floats (its root set's `bae_residual`
and `separation`, then the `identity_residual`, `norm` and
`schrodinger_residual` diagnostics), and the failure records.  That tells a rounding-level change apart
from a real one.  `--compare OLD NEW` reads two such files, line by line,
and prints each operation whose line differs with its maximum relative
root, energy, derived-coupling, per-diagnostic (`bae_residual`,
`separation`, `identity_residual`, `norm` and `schrodinger_residual`, each
on its own) and failure-record difference
(each value's difference over max(1, |old value|); a failure record's
values are the numbers in its text), or says what differs besides
the values (branch count, a coupling's name, or failure records that differ
with their numbers masked).  For an operation whose branch count rose, it
also checks each old branch against the new ones: one is kept when a new
branch has roots within ROOT_TOL of its roots (max norm, canonical order),
and each old branch that is not kept is printed.  Its second-to-last line
lists the operations whose branch count fell, those whose count rose, and
those whose count rose but that lost a branch, so `grep '^branch count'`
checks that no operation lost a branch.  Its last line gives the largest
root, energy, derived-coupling, per-diagnostic and failure-record difference
over all operations, each with the operation it comes from.  It exits 1
when an operation differs beyond its values (the operation counts too) or
an operation's branch count fell, and 0 otherwise, so a script can check
that a change moved values only.

With `--acceptance` it digests the tier-1 acceptance sweep instead of the
two workloads, in the same two formats: 20 coupling draws per family, drawn
from the sweep's coupling streams (`family_rng`, `draw_couplings`), split
over the family's cases and solved at n = 0..5, 480 solves in all.

With `--match` it digests, in the same two formats, the match-ell
regression set of `tests/test_match_ell.py` (`regression_problems`),
redrawn here: 60 draws from default_rng(12345), each a sextic and a
decatic problem at one ell in 0..3, solved in match-ell mode at
n = 0..6, 840 solves in all.  It checks a match-ell change on more and
larger problems than the `match_ell` workload's 63 solves at n <= 3.

With `--small` it digests, in the same two formats, wide states: the
first 4 `--acceptance` coupling draws of each family and case, with the
rate set to 1e-6 and to 1e-4 (omega; a to -1e-6 and -1e-4 in the
coulombic case), solved at n = 0..5, 288 solves in all.  Their roots reach
6e7, where those of the other sets stay below 2e3.

With `--verify` it digests the `verify` benchmark workload instead: one
line per entry of `VERIFY_POOL` (in `perfbench/workloads.py`), with its
label, the exit code of an in-process `qes verify DOC --out OUT` (FULL
level, FD oracle included) and the sha256 of the document written to OUT.
With `--verify --values` it prints one JSON line per entry instead: the
label, the exit code, and the report's checks ([name, value, passed], the
value a `repr` float) and notes.  `--compare` reads these too, and prints
each entry whose line differs with every check whose value moved and by
how much (absolute), or says what differs besides the values.

With `--verify --acceptance` it runs FULL `verify_solution` on every branch
of the `--acceptance` solves at n <= 2 whose roots are all real and
positive (197 branches), in the same two formats: one line per branch,
labelled with its solve and its index among that solve's solutions, and
as exit code the one `qes verify` gives for the report (0 passed, 3
failed).  Without `--values` the line holds the sha256 of the report's
lines.
"""

import hashlib
import json
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Roots within this distance (max norm) are one branch, for `--compare`.
ROOT_TOL = 1e-6
# The solution diagnostics that `--values` prints after its root set's
# `bae_residual` and `separation`.
DIAGNOSTICS = ("identity_residual", "norm", "schrodinger_residual")
# The names of the five values of each branch's `--values` diagnostics row.
DIAGNOSTIC_COLUMNS = ("bae_residual", "separation", *DIAGNOSTICS)


def _values(op_label, solutions, failures) -> str:
    return json.dumps({
        "op": op_label,
        "branches": len(solutions),
        "roots": [[[z.real, z.imag] for z in s.roots.roots] for s in solutions],
        "energies": [s.energy for s in solutions],
        "derived": [dict(sorted(s.derived.items())) for s in solutions],
        "diagnostics": [
            [s.roots.bae_residual, s.roots.separation, *(s.diagnostics[k] for k in DIAGNOSTICS)]
            for s in solutions
        ],
        "failures": [[f.error, f.detail] for f in failures],
    })


def _acceptance_draws(workloads):
    """(family, case, draw, free couplings, ell) of the tier-1 acceptance
    sweep's 20 coupling draws per family, split over its cases."""
    for family, cases in workloads.FAMILY_CASES.items():
        rng = workloads.family_rng(family)
        for draw in range(20):
            case = cases[draw % len(cases)]
            free, ell = workloads.draw_couplings(family, case, rng)
            yield family, case, draw, free, ell


def _acceptance_ops(workloads) -> list:
    """The tier-1 acceptance sweep: its 80 draws, each solved at n = 0..5
    (480 solves)."""
    from qesolve import FamilyProblem

    return [
        workloads.Op(f"acceptance {family}/{case} draw {draw} n={n}", FamilyProblem(family, case, n, ell, free))
        for family, case, draw, free, ell in _acceptance_draws(workloads)
        for n in range(6)
    ]


def _small_ops(workloads) -> list:
    """The first 4 acceptance draws of each family and case at the rates
    omega = 1e-6 and 1e-4 (a = -1e-6 and -1e-4), each solved at n = 0..5
    (288 solves)."""
    from qesolve import FamilyProblem

    ops = []
    for family, case, draw, free, ell in _acceptance_draws(workloads):
        if draw >= 4 * len(workloads.FAMILY_CASES[family]):
            continue
        rate, sign = ("omega", 1.0) if case == "harmonic" else ("a", -1.0)
        for value in (1e-6, 1e-4):
            changed = {**free, rate: sign * value}
            for n in range(6):
                label = f"small {family}/{case} draw {draw} {rate}={sign * value:g} n={n}"
                ops.append(workloads.Op(label, FamilyProblem(family, case, n, ell, changed)))
    return ops


def _match_ops(workloads) -> list:
    """The match-ell regression set of `tests/test_match_ell.py`: 60 draws
    from default_rng(12345), each a sextic and a decatic problem at one ell
    in 0..3, solved at n = 0..6 (840 solves)."""
    import numpy as np
    from qesolve import Case, Family, FamilyProblem

    rng, ops = np.random.default_rng(12345), []
    for draw in range(60):
        for family in ("sextic", "decatic"):
            if family == "sextic":
                free = {"e": rng.uniform(-0.5, 1.2), "d": rng.uniform(0.3, 1.5)}
            else:
                free = {"b": rng.uniform(-0.4, 0.8), "c": rng.uniform(-0.8, 0.8), "d": rng.uniform(0.3, 1.5)}
            ell = int(rng.integers(0, 4))
            for n in range(7):
                problem = FamilyProblem(Family(family), Case.HARMONIC, n, ell, free, True)
                ops.append(workloads.Op(f"match {family} draw {draw} ell={ell} n={n}", problem))
    return ops


def digest(values: bool, acceptance: bool, match: bool, small: bool) -> None:
    import workloads
    from qesolve.document import dumps_documents, solution_to_document
    from qesolve.oracle import VerifyLevel, verify_solution

    if acceptance:
        runs = [(workloads.Sweep(), _acceptance_ops(workloads))]
    elif match:
        runs = [(workloads.MatchEll(), _match_ops(workloads))]
    elif small:
        runs = [(workloads.Sweep(), _small_ops(workloads))]
    else:
        runs = [(w, w.setup(seed=0, smoke=False)) for w in (workloads.Sweep(), workloads.MatchEll())]
    for workload, ops in runs:
        for op in ops:
            try:
                solutions, failures = workload.run(op)
            except Exception as exc:  # a crash is part of the behaviour to compare
                print(f"{op.label} | raised {type(exc).__name__}: {exc}")
                continue
            if values:
                print(_values(op.label, solutions, failures))
                continue
            docs = [solution_to_document(s, verify_solution(s, VerifyLevel.FAST)) for s in solutions]
            sha = hashlib.sha256(dumps_documents(docs).encode()).hexdigest()
            records = [(f.error, f.detail, f.roots and f.roots.roots) for f in failures]
            print(f"{op.label} | {len(solutions)} | {sha} | {records}")


def _verify_values(op_label, code, out: Path) -> str:
    report = json.loads(out.read_text())[0]["verification"] if out.exists() else {"checks": [], "notes": []}
    return json.dumps({
        "op": op_label,
        "code": code,
        "checks": [[c["name"], c["value"], c["passed"]] for c in report["checks"]],
        "notes": report["notes"],
    })


def verify_digest(values: bool) -> None:
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        workload = workloads.Verify(Path(tmp))
        for op in workload.setup(seed=0, smoke=False):
            try:
                code, _ = workload.run(op)
            except Exception as exc:  # a crash is part of the behaviour to compare
                print(f"{op.label} | raised {type(exc).__name__}: {exc}")
                continue
            out = op.payload[2]
            if values:
                print(_verify_values(op.label, code, out))
                continue
            sha = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else "no output"
            print(f"{op.label} | {code} | {sha}")


def verify_acceptance_digest(values: bool) -> None:
    import workloads
    from qesolve.cli import EXIT_OK, EXIT_VERIFY_FAILED
    from qesolve.oracle import VerifyLevel, verify_solution

    sweep = workloads.Sweep()
    for op in _acceptance_ops(workloads):
        if op.payload.n > 2:
            continue
        solutions, _ = sweep.run(op)
        for i, sol in enumerate(solutions):
            if not all(z.imag == 0.0 and z.real > 0.0 for z in sol.roots.roots):
                continue
            label = f"{op.label} branch {i}"
            try:
                report = verify_solution(sol, VerifyLevel.FULL)
            except Exception as exc:  # a crash is part of the behaviour to compare
                print(f"{label} | raised {type(exc).__name__}: {exc}")
                continue
            code = EXIT_OK if report.passed else EXIT_VERIFY_FAILED
            if values:
                print(json.dumps({
                    "op": label,
                    "code": code,
                    "checks": [[c.name, c.value, c.passed] for c in report.checks],
                    "notes": report.notes,
                }))
                continue
            sha = hashlib.sha256("\n".join(report.lines()).encode()).hexdigest()
            print(f"{label} | {code} | {sha}")


def _max_rel(old, new) -> float:
    """Largest |new - old| / max(1, |old|) over two equally nested lists."""
    if isinstance(old, list):
        return max((_max_rel(a, b) for a, b in zip(old, new)), default=0.0)
    if old == new:  # also an infinite separation that stayed infinite
        return 0.0
    return abs(new - old) / max(1.0, abs(old))


# A decimal number as `repr` or a format spec writes it.
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _masked(failures) -> tuple[list, list]:
    """The failure records with each number in their text replaced by `#`,
    and the numbers, one list per record."""
    texts = [[error, _NUMBER.sub("#", detail)] for error, detail in failures]
    numbers = [[float(x) for x in _NUMBER.findall(detail)] for _, detail in failures]
    return texts, numbers


def _compare_checks(old, new, old_line, new_line) -> bool:
    """One `--verify --values` entry: each check value that moved.  False
    when it differs beyond the values."""
    names = [[c[0], c[2]] for c in old["checks"]] == [[c[0], c[2]] for c in new.get("checks", [])]
    if old["op"] != new["op"] or old["code"] != new.get("code") or not names:
        print(f"{old['op']} | differs beyond values:\n  {old_line}\n  -> {new_line}")
        return False
    moved = [
        f"{a[0]} {a[1]!r} -> {b[1]!r} ({b[1] - a[1]:+.2g})"
        for a, b in zip(old["checks"], new["checks"])
        if a[1] != b[1]
    ]
    if old["notes"] != new["notes"]:
        moved.append(f"notes {old['notes']} -> {new['notes']}")
    print(f"{old['op']} | " + " | ".join(moved))
    return True


def _lost_branches(old, new) -> list:
    """The old branches, as root lists, that no new branch keeps."""
    def close(a, b) -> bool:
        return len(a) == len(b) and all(abs(complex(*x) - complex(*y)) < ROOT_TOL for x, y in zip(a, b))

    return [a for a in old["roots"] if not any(close(a, b) for b in new["roots"])]


def compare(old_path: str, new_path: str) -> int:
    """Prints the comparison; returns the exit code (1 when an operation
    differs beyond its values or lost branches)."""
    old_lines = Path(old_path).read_text().splitlines()
    new_lines = Path(new_path).read_text().splitlines()
    beyond = len(old_lines) != len(new_lines)
    if beyond:
        print(f"{len(old_lines)} operations against {len(new_lines)}")
    changed = 0
    moved = {"fell": [], "rose": [], "rose but lost a branch": []}
    largest = dict.fromkeys(("roots", "energies", "derived", *DIAGNOSTIC_COLUMNS, "failures"), (0.0, "-"))
    for old_line, new_line in zip(old_lines, new_lines):
        if old_line == new_line:
            continue
        changed += 1
        try:
            old, new = json.loads(old_line), json.loads(new_line)
        except json.JSONDecodeError:
            print(f"{old_line}\n  -> {new_line}")
            beyond = True
            continue
        if "checks" in old:
            beyond |= not _compare_checks(old, new, old_line, new_line)
            continue
        if old["branches"] != new["branches"]:
            way = "fell" if new["branches"] < old["branches"] else "rose"
            moved[way].append(f"{old['op']} ({old['branches']} -> {new['branches']})")
            lost = _lost_branches(old, new) if way == "rose" else []
            if lost:
                moved["rose but lost a branch"].append(f"{old['op']} ({len(lost)})")
                for roots in lost:
                    print(f"{old['op']} | lost the branch {roots}")
        (texts_old, numbers_old), (texts_new, numbers_new) = _masked(old["failures"]), _masked(new["failures"])
        same = [old[k] == new[k] for k in ("op", "branches")] + [texts_old == texts_new]
        keys = [list(d) for d in old["derived"]] == [list(d) for d in new["derived"]]
        if not all(same) or not keys:
            print(f"{old['op']} | differs beyond values:\n  {old_line}\n  -> {new_line}")
            beyond = True
            continue
        diffs = {
            "roots": _max_rel(old["roots"], new["roots"]),
            "energies": _max_rel(old["energies"], new["energies"]),
            "derived": _max_rel([list(d.values()) for d in old["derived"]],
                                [list(d.values()) for d in new["derived"]]),
            **{
                name: _max_rel([row[j] for row in old["diagnostics"]], [row[j] for row in new["diagnostics"]])
                for j, name in enumerate(DIAGNOSTIC_COLUMNS)
            },
            "failures": _max_rel(numbers_old, numbers_new),
        }
        print(f"{old['op']} | " + " | ".join(f"{k} {v:.2g}" for k, v in diffs.items()))
        for k, v in diffs.items():
            if v > largest[k][0]:
                largest[k] = (v, old["op"])
    print(f"{changed} of {len(old_lines)} operations differ")
    print("branch count " + "; ".join(
        f"{way} in {len(ops)}: {', '.join(ops) or '-'}" for way, ops in moved.items()
    ))
    print("largest " + " | ".join(f"{k} {v:.2g} ({op})" for k, (v, op) in largest.items()))
    return int(beyond or bool(moved["fell"]))


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    if sys.argv[1:2] == ["--compare"] and len(sys.argv) == 4:
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    elif sorted(sys.argv[1:]) in (["--verify"], ["--values", "--verify"]):
        verify_digest(values="--values" in sys.argv)
    elif sorted(sys.argv[1:]) in (["--acceptance", "--verify"], ["--acceptance", "--values", "--verify"]):
        verify_acceptance_digest(values="--values" in sys.argv)
    elif sorted(sys.argv[1:]) in ([], ["--values"], ["--acceptance"], ["--acceptance", "--values"], ["--match"],
                                  ["--match", "--values"], ["--small"], ["--small", "--values"]):
        digest(values="--values" in sys.argv, acceptance="--acceptance" in sys.argv, match="--match" in sys.argv,
               small="--small" in sys.argv)
    else:
        sys.exit(__doc__)
