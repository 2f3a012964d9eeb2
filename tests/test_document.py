import functools
import math
import operator

import pytest

from qesolve import DocumentError, VerifyLevel, solve_family, verify_solution
from qesolve.document import (
    document_to_solution,
    dumps_documents,
    loads_documents,
    solution_to_document,
)

from conftest import quartic_harmonic, sextic


@pytest.fixture(scope="module")
def solution(cfg):
    return solve_family(quartic_harmonic(n=1), cfg)[0]


class TestRoundTrip:
    def test_parse_of_serialize_is_identity(self, solution):
        report = verify_solution(solution, VerifyLevel.FAST)
        doc = solution_to_document(solution, report)
        text = dumps_documents([doc])
        parsed = loads_documents(text)
        assert parsed == [doc]

    def test_solution_fields_survive(self, solution):
        doc = solution_to_document(solution)
        back = document_to_solution(doc)
        assert back.energy == solution.energy
        assert back.roots.roots == solution.roots.roots
        assert back.derived == solution.derived
        assert back.waveform.exp_coeffs == solution.waveform.exp_coeffs
        assert back.problem.free == solution.problem.free

    def test_floats_are_exact(self):
        # repr is the shortest text that reads back to the same bits; -0.0
        # stays a float, and the smallest subnormal survives.
        values = [1 / 3, math.pi, 2.5e-17, 1.0000000000000002, -7.1e300, -0.0, 5e-324, 1.0]
        back = loads_documents(dumps_documents([{"values": values}]))[0]["values"]
        assert all(isinstance(v, float) for v in back)
        assert [v.hex() for v in back] == [v.hex() for v in values]

    @pytest.mark.parametrize("value", [math.inf, math.nan, object()], ids=["inf", "nan", "object"])
    def test_unserializable_value(self, value):
        with pytest.raises(DocumentError, match="cannot serialize"):
            dumps_documents([{"value": value}])

    def test_byte_identical_serialization(self, solution):
        a = dumps_documents([solution_to_document(solution)])
        b = dumps_documents([solution_to_document(solution)])
        assert a == b

    def test_squared_variable_round_trip(self, cfg_small):
        s = solve_family(sextic(n=0, omega=1.0, e=0.5, d=0.5), cfg_small)[0]
        doc = solution_to_document(s)
        back = document_to_solution(doc)
        assert back.roots.variable is s.roots.variable
        assert back.derived["l_half_sq"] == s.derived["l_half_sq"]


class TestErrors:
    def test_truncated_json(self):
        with pytest.raises(DocumentError, match="line"):
            loads_documents('{"schema_version": "1", ')

    def test_wrong_schema_version(self, solution):
        doc = solution_to_document(solution)
        doc["schema_version"] = "99"
        with pytest.raises(DocumentError, match="schema_version"):
            document_to_solution(doc)

    def test_missing_field(self, solution):
        doc = solution_to_document(solution)
        del doc["energy"]
        with pytest.raises(DocumentError, match="malformed"):
            document_to_solution(doc)

    # The solution has n = 1 and one root.
    @pytest.mark.parametrize(
        "field, value, message",
        [("n", 2, "1 roots for n = 2"), ("n", 1.7, "n is an integer"), ("n", True, "n is an integer"),
         ("match_ell", "false", "match_ell is true or false"), ("ell", "0", "a number"),
         ("ell", False, "a number")],
        ids=["root_count_not_n", "fractional_n", "boolean_n", "string_match_ell", "string_ell",
             "boolean_ell"],
    )
    def test_malformed_problem(self, solution, field, value, message):
        doc = solution_to_document(solution)
        doc["problem"][field] = value
        with pytest.raises(DocumentError, match=message):
            document_to_solution(doc)

    # float() would take each of these strings and booleans.
    @pytest.mark.parametrize(
        "path, value",
        [(("problem", "free", "d"), "0.5"), (("energy",), "2.5"), (("waveform", "leading_exponent"), "1.0"),
         (("roots", 0, "im"), False)],
        ids=["string_coupling", "string_energy", "string_leading_exponent", "boolean_root"],
    )
    def test_number_held_as_string_or_boolean(self, solution, path, value):
        doc = solution_to_document(solution)
        *parents, key = path
        functools.reduce(operator.getitem, parents, doc)[key] = value
        with pytest.raises(DocumentError, match="expected a number"):
            document_to_solution(doc)

    @pytest.mark.parametrize(
        "problem, variable",
        [(quartic_harmonic(n=1), "t=r^2"), (sextic(n=1), "z=r^2"), (sextic(n=1), "r")],
        ids=["quartic_in_t", "sextic_in_z", "sextic_in_r"],
    )
    def test_variable_of_another_family(self, cfg, problem, variable):
        doc = solution_to_document(solve_family(problem, cfg)[0])
        doc["variable"] = variable
        with pytest.raises(DocumentError, match="variable"):
            document_to_solution(doc)

    def test_non_document_payload(self):
        with pytest.raises(DocumentError):
            loads_documents("[1, 2, 3]")
