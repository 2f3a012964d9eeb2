import csv
import io
import json
import math

import numpy as np
import pytest

from qesolve.cli import EXIT_NO_SOLUTION, build_parser, main
from qesolve.document import loads_documents
from qesolve.families import Case, Family, FamilyProblem, solve_family_detailed


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SOLVE_Q0 = [
    "solve", "--family", "quartic", "--case", "harmonic", "--n", "0", "--ell", "0",
    "--param", "omega=1", "--param", "c=0", "--param", "d=0.5",
]


@pytest.fixture()
def q0_doc(tmp_path, capsys):
    path = tmp_path / "q0.json"
    code, out, err = run(capsys, *SOLVE_Q0, "--out", str(path))
    assert code == 0, err
    return path


class TestSolve:
    def test_quartic_ground_state_document(self, capsys):
        code, out, _ = run(capsys, *SOLVE_Q0)
        assert code == 0
        docs = loads_documents(out)
        assert len(docs) == 1
        doc = docs[0]
        assert doc["energy"] == 1.5
        assert doc["derived"]["a"] == -1.0
        assert doc["derived"]["b"] == 0.0
        assert doc["verification"]["passed"] is True

    def test_sextic_n1_documents(self, capsys):
        code, out, _ = run(
            capsys,
            "solve", "--family", "sextic", "--n", "1", "--param", "omega=1",
            "--param", "e=0", "--param", "d=0.5",
        )
        assert code == 0
        docs = loads_documents(out)
        # Positive branch exceeds the derived-(l+1/2)^2 feasibility bound;
        # the admissible branch carries the root 1 - sqrt(2).
        assert len(docs) == 1
        root = docs[0]["roots"][0]["re"]
        assert root == pytest.approx(1 - math.sqrt(2), abs=1e-12)

    def test_invalid_parameter_names_constraint(self, capsys):
        code, out, err = run(
            capsys,
            "solve", "--family", "quartic", "--case", "harmonic", "--n", "0",
            "--param", "omega=1", "--param", "c=0", "--param", "d=-1",
        )
        assert code == 1
        assert "d > 0" in err

    def test_unknown_flag_usage_error(self, capsys):
        code, _, _ = run(capsys, "solve", "--family", "quartic", "--bogus")
        assert code == 1

    @pytest.mark.parametrize("flag", ["--seed", "--starts"])
    @pytest.mark.parametrize("command", ["solve", "scan"])
    def test_removed_flag_is_a_usage_error(self, capsys, command, flag):
        # Neither flag had an effect since every branch is enumerated.
        args = [*SOLVE_Q0, flag, "1"]
        if command == "scan":
            args = ["scan", *args[1:], "--sweep", "omega=1:2:2"]
        code, out, err = run(capsys, *args)
        assert code == 1
        assert out == ""
        assert f"unrecognized arguments: {flag} 1" in err

    def test_no_solution_exit_code(self, capsys):
        # match-ell with an unreachable target angular momentum.
        code, out, err = run(
            capsys,
            "solve", "--family", "sextic", "--n", "0", "--ell", "40",
            "--param", "e=0.5", "--param", "d=0.5", "--match-ell",
        )
        assert code == 2

    def test_state_too_wide_to_normalize(self, capsys):
        # The only branch's norm raises NotIntegrable: no solution, not an error.
        code, out, err = run(
            capsys,
            "solve", "--family", "quartic", "--case", "harmonic", "--n", "0",
            "--param", "omega=1e-25", "--param", "c=0", "--param", "d=0.5",
        )
        assert code == EXIT_NO_SOLUTION
        assert out == ""
        assert "NotIntegrable" in err and "error:" not in err

    def test_norm_beyond_the_largest_float(self, capsys):
        # The only branch's norm overflows a float: no solution, not a traceback.
        code, out, err = run(
            capsys,
            "solve", "--family", "quartic", "--case", "harmonic", "--n", "0", "--ell", "0",
            "--param", "omega=1", "--param", "c=400", "--param", "d=0.5",
        )
        assert code == EXIT_NO_SOLUTION
        assert out == ""
        assert "NotIntegrable" in err and "exceeds the largest float" in err and "error:" not in err

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, *SOLVE_Q0, "--format", "csv")
        assert code == 0
        header = out.splitlines()[0].split(",")
        assert header[:4] == ["branch", "energy", "a", "b"]

    def test_csv_floats_are_exact(self, capsys):
        # Every float cell reads back to the solution's float bit for bit.
        args = ["solve", "--family", "quartic", "--n", "2", "--param", "omega=1", "--param", "c=0",
                "--param", "d=0.5"]
        code, out, _ = run(capsys, *args, "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        solutions, _ = solve_family_detailed(FamilyProblem(Family.QUARTIC, Case.HARMONIC, 2, 0.0,
                                                           {"omega": 1.0, "c": 0.0, "d": 0.5}))
        assert len(rows) == len(solutions) > 0
        for row, sol in zip(rows, solutions):
            want = {"energy": sol.energy, **sol.derived}
            for j, z in enumerate(sol.roots.roots):
                want |= {f"root{j}_re": z.real, f"root{j}_im": z.imag}
            assert list(row)[1:-1] == list(want)
            assert {k: float(row[k]).hex() for k in want} == {k: float(v).hex() for k, v in want.items()}

    def test_deterministic_bytes(self, monkeypatch, capsys):
        _, out1, _ = run(capsys, *SOLVE_Q0)
        _, out2, _ = run(capsys, *SOLVE_Q0)
        assert out1 == out2
        # QES_SEED is not read, so even a value that is no seed changes nothing.
        monkeypatch.setenv("QES_SEED", "1.5")
        assert run(capsys, *SOLVE_Q0) == (0, out1, "")


class TestVerify:
    def test_clean_document_passes(self, q0_doc, capsys):
        code, out, _ = run(capsys, "verify", str(q0_doc))
        assert code == 0
        assert "PASS" in out

    def test_tampered_energy_fails(self, q0_doc, tmp_path, capsys):
        docs = loads_documents(q0_doc.read_text())
        docs[0]["energy"] += 1e-3
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(docs))
        code, out, _ = run(capsys, "verify", str(bad))
        assert code == 3
        assert "schrodinger_residual" in out

    def test_infinite_check_value_is_written(self, q0_doc, tmp_path, capsys):
        # With the energy 1 too high, the FD window about 2E holds no
        # eigenvalue and the check's value is inf: the report holds it as
        # 1e300, like a tolerance.
        docs = loads_documents(q0_doc.read_text())
        docs[0]["energy"] += 1.0
        bad, report = tmp_path / "bad.json", tmp_path / "report.json"
        bad.write_text(json.dumps(docs))
        code, out, err = run(capsys, "verify", str(bad), "--out", str(report))
        assert (code, err) == (3, "")
        checks = {c["name"]: c for c in loads_documents(report.read_text())[0]["verification"]["checks"]}
        assert checks["fd_eigenvalue_error"]["value"] == 1e300
        assert checks["fd_eigenvalue_error"]["passed"] is False

    def test_support_beyond_the_scan_is_reported(self, q0_doc, tmp_path, capsys):
        # exp(-1e-30 r^2) in place of exp(-r^2 / 2) puts the peak of |Psi|
        # past the support scan.  The norm, the FD eigenvalue and the node
        # count fail with the value inf (written as 1e300), and the next
        # document is still verified.
        (doc,) = loads_documents(q0_doc.read_text())
        wide = json.loads(json.dumps(doc))
        wide["waveform"]["exp_coeffs"]["2"] = -1e-30
        bad, report = tmp_path / "wide.json", tmp_path / "report.json"
        bad.write_text(json.dumps([wide, doc]))
        code, out, err = run(capsys, "verify", str(bad), "--out", str(report))
        assert (code, err) == (3, "")
        assert "document 0: FAIL" in out and "document 1: PASS" in out
        first, second = loads_documents(report.read_text())
        checks = {c["name"]: c for c in first["verification"]["checks"]}
        for name in ("norm_finite", "node_count", "fd_eigenvalue_error"):
            assert (checks[name]["value"], checks[name]["passed"]) == (1e300, False)
        assert second["verification"]["passed"] is True

    def test_truncated_file(self, q0_doc, tmp_path, capsys):
        bad = tmp_path / "trunc.json"
        bad.write_text(q0_doc.read_text()[:40])
        code, _, err = run(capsys, "verify", str(bad))
        assert code == 1
        assert "line" in err


class TestSample:
    def test_row_count_and_monotone_grid(self, q0_doc, capsys):
        code, out, _ = run(
            capsys, "sample", str(q0_doc), "--rmin", "0.01", "--rmax", "10", "--points", "100"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "r,log_abs_psi,sign,psi1_over_psi"
        assert len(lines) == 101
        rs = [float(line.split(",")[0]) for line in lines[1:]]
        assert rs == sorted(rs)

    def test_row_matches_eval(self, q0_doc, capsys):
        from qesolve import eval_log_psi
        from qesolve.document import document_to_solution

        code, out, _ = run(
            capsys, "sample", str(q0_doc), "--rmin", "1", "--rmax", "2", "--points", "2"
        )
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        sol = document_to_solution(loads_documents(q0_doc.read_text())[0])
        log_mag, sign = eval_log_psi(sol, 1.0)
        assert float(row[1]) == log_mag
        assert int(row[2]) == sign

    def test_floats_are_exact(self, q0_doc, capsys):
        # Every float cell reads back to its value bit for bit.
        from qesolve import eval_log_psi, eval_psi_log_derivatives
        from qesolve.document import document_to_solution

        code, out, _ = run(capsys, "sample", str(q0_doc), "--rmin", "0.01", "--rmax", "10", "--points", "7")
        assert code == 0
        sol = document_to_solution(loads_documents(q0_doc.read_text())[0])
        rows = list(csv.DictReader(io.StringIO(out)))
        for row, r in zip(rows, np.geomspace(0.01, 10, 7).tolist(), strict=True):
            log_mag, sign = eval_log_psi(sol, r)
            psi1, _ = eval_psi_log_derivatives(sol, r)
            got = [float(row[k]).hex() for k in ("r", "log_abs_psi", "psi1_over_psi")]
            assert got == [float(v).hex() for v in (r, log_mag, psi1)]
            assert int(row["sign"]) == sign

    def test_rmin_zero_rejected(self, q0_doc, capsys):
        code, _, err = run(capsys, "sample", str(q0_doc), "--rmin", "0", "--rmax", "10")
        assert code == 1


class TestScan:
    def test_omega_sweep_energy_column(self, capsys):
        code, out, _ = run(
            capsys,
            "scan", "--family", "quartic", "--case", "harmonic", "--n", "1", "--ell", "0",
            "--param", "c=0", "--param", "d=0.5", "--sweep", "omega=0.5:2:4",
        )
        assert code == 0
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        assert header[0] == "omega" and header[2] == "energy"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 4  # one admissible branch per omega value
        for row in rows:
            omega, energy = float(row[0]), float(row[2])
            assert energy == pytest.approx(2.5 * omega, abs=1e-12)
            assert row[header.index("passed")] == "true"

    def test_infeasible_rows_are_marked(self, capsys):
        # At large omega the sextic ground state drives (l+1/2)^2 below
        # zero; those rows carry the error label and the scan continues.
        code, out, _ = run(
            capsys,
            "scan", "--family", "sextic", "--n", "0", "--param", "e=0.5",
            "--param", "d=0.5", "--sweep", "omega=1:3:3",
        )
        assert code == 0
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        err_col = header.index("error")
        errors = [line.split(",")[err_col] for line in lines[1:]]
        assert "ConstraintInfeasible" in errors

    def test_single_step_equals_solve(self, capsys):
        code, scan_out, _ = run(
            capsys,
            "scan", "--family", "quartic", "--case", "harmonic", "--n", "0", "--ell", "0",
            "--param", "c=0", "--param", "d=0.5", "--sweep", "omega=1:1:1",
        )
        assert code == 0
        row = scan_out.strip().splitlines()[1].split(",")
        assert float(row[2]) == 1.5
        code, solve_out, _ = run(capsys, *SOLVE_Q0)
        doc = loads_documents(solve_out)[0]
        assert doc["energy"] == float(row[2])

    def test_bad_sweep_spec(self, capsys):
        code, _, err = run(
            capsys,
            "scan", "--family", "quartic", "--case", "harmonic", "--n", "0",
            "--param", "c=0", "--param", "d=0.5", "--sweep", "omega=1:2",
        )
        assert code == 1


class TestParserBuiltOnce:
    def test_one_parser_serves_every_call(self, capsys):
        # Usage errors still exit 1 on the shared parser, and a call after
        # them parses as the first did.
        parser = build_parser()
        code, first, _ = run(capsys, *SOLVE_Q0)
        assert code == 0
        assert run(capsys, "solve", "--family", "quartic")[0] == 1
        assert run(capsys, "nonsense")[0] == 1
        assert run(capsys, *SOLVE_Q0) == (0, first, "")
        assert build_parser() is parser


def _set(path: str, value):
    """A change to a document: set the field at the dotted path."""

    def change(doc):
        *parents, key = path.split(".")
        for name in parents:
            doc = doc[name]
        doc[key] = value

    return change


def _all(*changes):
    """A change to a document: each of `changes` in turn."""

    def change(doc):
        for one in changes:
            one(doc)

    return change


# Documents that `qes verify` and `qes sample` must reject, each a change to
# the n = 0 quartic document, by the placeholder that names its file.
# `json.dump` writes an infinity or a NaN as the tokens `json.loads` takes.
BAD_DOCUMENTS = {
    "WRONG_N": _set("problem.n", 1),  # the n = 0 document has no roots
    "WRONG_VARIABLE": _set("variable", "t=r^2"),  # the sextic's, not the quartic's r
    "CASE_NONE": _set("problem.case", "none"),
    "FREE_ARRAY": _set("problem.free", []),
    "ROOT_DIAGNOSTICS_ARRAY": _set("root_diagnostics", []),
    "EXP_COEFFS_ARRAY": _set("waveform.exp_coeffs", []),
    "DERIVED_ARRAY": _set("derived", []),
    "DIAGNOSTICS_ARRAY": _set("diagnostics", []),
    "INFINITE_ROOT": _all(_set("problem.n", 1), _set("roots", [{"re": math.inf, "im": 0.0}])),
    "INFINITE_LEADING_EXPONENT": _set("waveform.leading_exponent", math.inf),
    "INFINITE_DERIVED": _set("derived.a", math.inf),
    "NAN_DIAGNOSTIC": _set("diagnostics.norm", math.nan),
}


@pytest.mark.parametrize(
    "args",
    [
        ["sample", "DOC", "--rmin", "1", "--rmax", "2", "--index", "1"],
        ["sample", "DOC", "--rmin", "1", "--rmax", "2", "--index", "-2"],
        ["sample", "DOC", "--rmin", "0.1", "--rmax", "2", "--points", "-2"],
        ["sample", "DOC", "--rmin", "0.1", "--rmax", "2", "--points", "0"],
        ["sample", "DOC", "--rmin", "0.1", "--rmax", "inf"],
        ["sample", "DOC", "--rmin", "0.1", "--rmax", "1e400"],
        ["sample", "EXP_COEFFS_ARRAY", "--rmin", "0.1", "--rmax", "2"],
        ["solve", "--family", "sextic", "--n", "1", "--param", "omega=1", "--param", "e=0.1",
         "--param", "d=inf"],
        [*SOLVE_Q0, "--ell", "nan"],
        ["verify", "EMPTY"],
        ["verify", "WRONG_N"],
        ["verify", "WRONG_VARIABLE"],
        ["verify", "CASE_NONE"],
        ["verify", "FREE_ARRAY"],
        ["verify", "ROOT_DIAGNOSTICS_ARRAY"],
        ["verify", "EXP_COEFFS_ARRAY"],
        ["verify", "DERIVED_ARRAY"],
        ["verify", "DIAGNOSTICS_ARRAY"],
        ["sample", "INFINITE_ROOT", "--rmin", "0.5", "--rmax", "2", "--points", "3"],
        ["sample", "INFINITE_LEADING_EXPONENT", "--rmin", "0.5", "--rmax", "2", "--points", "3"],
        ["verify", "INFINITE_DERIVED"],
        ["verify", "NAN_DIAGNOSTIC"],
    ],
    ids=[
        "index_past_end", "index_before_start", "negative_points", "zero_points",
        "infinite_rmax", "overflowing_rmax", "sample_exp_coeffs_array",
        "infinite_coupling", "nan_ell", "verify_empty_file", "verify_root_count_not_n",
        "verify_variable_of_another_family", "verify_case_none", "verify_free_array",
        "verify_root_diagnostics_array", "verify_exp_coeffs_array", "verify_derived_array",
        "verify_diagnostics_array", "sample_infinite_root", "sample_infinite_leading_exponent",
        "verify_infinite_derived", "verify_nan_diagnostic",
    ],
)
def test_bad_input_exits_with_an_error_line(args, q0_doc, tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    paths = {"DOC": str(q0_doc), "EMPTY": str(empty)}
    for name, change in BAD_DOCUMENTS.items():
        docs = loads_documents(q0_doc.read_text())
        change(docs[0])
        paths[name] = str(tmp_path / f"{name.lower()}.json")
        with open(paths[name], "w") as fh:
            json.dump(docs, fh)
    code, out, err = run(capsys, *[paths.get(a, a) for a in args])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
