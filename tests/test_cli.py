import json
import math

import numpy as np
import pytest

from qesolve.cli import EXIT_NO_SOLUTION, build_parser, main
from qesolve.document import loads_documents


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SOLVE_Q0 = [
    "solve", "--family", "quartic", "--case", "harmonic", "--n", "0", "--ell", "0",
    "--param", "omega=1", "--param", "c=0", "--param", "d=0.5", "--starts", "40",
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
            "--param", "e=0", "--param", "d=0.5", "--starts", "60",
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

    def test_no_solution_exit_code(self, capsys):
        # match-ell with an unreachable target angular momentum.
        code, out, err = run(
            capsys,
            "solve", "--family", "sextic", "--n", "0", "--ell", "40",
            "--param", "e=0.5", "--param", "d=0.5", "--match-ell", "--starts", "40",
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

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, *SOLVE_Q0, "--format", "csv")
        assert code == 0
        header = out.splitlines()[0].split(",")
        assert header[:4] == ["branch", "energy", "a", "b"]

    def test_deterministic_bytes(self, capsys):
        _, out1, _ = run(capsys, *SOLVE_Q0, "--seed", "7")
        _, out2, _ = run(capsys, *SOLVE_Q0, "--seed", "7")
        assert out1 == out2


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

    def test_rmin_zero_rejected(self, q0_doc, capsys):
        code, _, err = run(capsys, "sample", str(q0_doc), "--rmin", "0", "--rmax", "10")
        assert code == 1


class TestScan:
    def test_omega_sweep_energy_column(self, capsys):
        code, out, _ = run(
            capsys,
            "scan", "--family", "quartic", "--case", "harmonic", "--n", "1", "--ell", "0",
            "--param", "c=0", "--param", "d=0.5", "--sweep", "omega=0.5:2:4",
            "--starts", "48",
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
            "--param", "d=0.5", "--sweep", "omega=1:3:3", "--starts", "40",
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
            "--starts", "40",
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
    def test_one_parser_serves_every_call(self, monkeypatch, capsys):
        # Usage errors still exit 1 on the shared parser, and a call after
        # them, or after a change of QES_SEED, parses as the first did.
        parser = build_parser()
        code, first, _ = run(capsys, *SOLVE_Q0)
        assert code == 0
        assert run(capsys, "solve", "--family", "quartic")[0] == 1
        assert run(capsys, "nonsense")[0] == 1
        monkeypatch.setenv("QES_SEED", "9")
        assert run(capsys, *SOLVE_Q0) == (0, first, "")
        assert build_parser() is parser


class TestSeedEnv:
    def test_qes_seed_env_default(self, monkeypatch, capsys):
        monkeypatch.setenv("QES_SEED", "9")
        _, out_env, _ = run(capsys, *SOLVE_Q0)
        monkeypatch.delenv("QES_SEED")
        _, out_explicit, _ = run(capsys, *SOLVE_Q0, "--seed", "9")
        assert out_env == out_explicit


@pytest.mark.parametrize(
    "qes_seed, args",
    [
        (None, [*SOLVE_Q0, "--starts", "-3"]),
        (None, [*SOLVE_Q0, "--starts", "0"]),
        (None, [*SOLVE_Q0, "--seed", "-1"]),
        ("1.5", SOLVE_Q0),
        (None, ["sample", "DOC", "--rmin", "1", "--rmax", "2", "--index", "1"]),
        (None, ["sample", "DOC", "--rmin", "1", "--rmax", "2", "--index", "-2"]),
        (None, ["sample", "DOC", "--rmin", "0.1", "--rmax", "2", "--points", "-2"]),
        (None, ["sample", "DOC", "--rmin", "0.1", "--rmax", "2", "--points", "0"]),
        (None, ["solve", "--family", "sextic", "--n", "1", "--param", "omega=1", "--param", "e=0.1",
                "--param", "d=inf"]),
        (None, [*SOLVE_Q0, "--ell", "nan"]),
        (None, ["verify", "EMPTY"]),
        (None, ["verify", "WRONG_N"]),
        (None, ["verify", "WRONG_VARIABLE"]),
    ],
    ids=[
        "negative_starts", "zero_starts", "negative_seed", "non_integer_qes_seed",
        "index_past_end", "index_before_start", "negative_points", "zero_points",
        "infinite_coupling", "nan_ell", "verify_empty_file", "verify_root_count_not_n",
        "verify_variable_of_another_family",
    ],
)
def test_bad_input_exits_with_an_error_line(qes_seed, args, q0_doc, tmp_path, monkeypatch, capsys):
    if qes_seed is not None:
        monkeypatch.setenv("QES_SEED", qes_seed)
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    docs = loads_documents(q0_doc.read_text())
    docs[0]["problem"]["n"] = 1  # the n = 0 document has no roots
    wrong_n = tmp_path / "wrong_n.json"
    wrong_n.write_text(json.dumps(docs))
    docs = loads_documents(q0_doc.read_text())
    docs[0]["variable"] = "t=r^2"  # the sextic's, not the quartic's r
    wrong_variable = tmp_path / "wrong_variable.json"
    wrong_variable.write_text(json.dumps(docs))
    paths = {"DOC": str(q0_doc), "EMPTY": str(empty), "WRONG_N": str(wrong_n), "WRONG_VARIABLE": str(wrong_variable)}
    code, out, err = run(capsys, *[paths.get(a, a) for a in args])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
