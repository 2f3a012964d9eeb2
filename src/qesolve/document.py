"""Lossless JSON documents for solutions and verification reports.

Numbers are written as Python's float repr, the shortest text that reads
back to the same double, so every double (-0.0 included) round-trips bit
for bit; key order is fixed, which makes repeated runs byte-identical.
"""

from __future__ import annotations

import json
import math

from .bethe import RootSet, Variable
from .errors import DocumentError
from .families import Case, Family, FamilyProblem, QESSolution, WaveForm, _chi
from .oracle import VerificationReport

SCHEMA_VERSION = "1"

_VARIABLES = {v.value: v for v in Variable}


def _number(value) -> float:
    """A schema "1" number: JSON holds it as a finite number, not a string
    or a boolean, which float() would take, nor the Infinity or NaN that
    json.loads reads and `dumps_documents` never writes."""
    if isinstance(value, (str, bool)):
        raise DocumentError(f"expected a number, got {value!r}")
    if not math.isfinite(number := float(value)):
        raise DocumentError(f"expected a finite number, got {value!r}")
    return number


def _object(value, name: str) -> dict:
    """A schema "1" object: JSON holds it as {...}, not as an array, a
    scalar or null."""
    if not isinstance(value, dict):
        raise DocumentError(f"{name} must be an object, got {type(value).__name__}")
    return value


def solution_to_document(solution: QESSolution, report: VerificationReport | None = None) -> dict:
    prob = solution.problem
    doc = {
        "schema_version": SCHEMA_VERSION,
        "problem": {
            "family": prob.family.value,
            "case": prob.case.value,
            "n": int(prob.n),
            "ell": float(prob.ell),
            "match_ell": bool(prob.match_ell),
            "free": {k: float(v) for k, v in sorted(prob.free.items())},
        },
        "variable": solution.roots.variable.value,
        "roots": [{"re": z.real, "im": z.imag} for z in solution.roots.roots],
        "root_diagnostics": {
            "bae_residual": float(solution.roots.bae_residual),
            "separation": float(min(solution.roots.separation, 1e300)),
        },
        "derived": {k: float(v) for k, v in sorted(solution.derived.items())},
        "energy": float(solution.energy),
        "waveform": {
            "leading_exponent": float(solution.waveform.leading_exponent),
            "exp_coeffs": {
                str(p): float(c) for p, c in sorted(solution.waveform.exp_coeffs.items())
            },
        },
        "diagnostics": {
            k: float(min(v, 1e300)) for k, v in sorted(solution.diagnostics.items())
        },
    }
    if report is not None:
        doc["verification"] = {
            "passed": report.passed,
            "checks": [
                {
                    "name": c.name,
                    "value": float(min(c.value, 1e300)),
                    "tolerance": float(min(c.tolerance, 1e300)),
                    "passed": c.passed,
                }
                for c in report.checks
            ],
            "notes": list(report.notes),
        }
    return doc


def document_to_solution(doc: dict) -> QESSolution:
    """Rebuild a solution from its document, verbatim (no recomputation)."""
    try:
        if doc["schema_version"] != SCHEMA_VERSION:
            raise DocumentError(f"unsupported schema_version {doc['schema_version']!r}")
        p = doc["problem"]
        problem = FamilyProblem(
            Family(p["family"]),
            Case(p["case"]),
            p["n"],
            _number(p["ell"]),
            {k: _number(v) for k, v in _object(p["free"], "problem.free").items()},
            p.get("match_ell", False),
        )
        variable = _VARIABLES[doc["variable"]]
        if variable is not _chi(problem)[0]:
            raise DocumentError(f"variable {variable.value!r} is not the {problem.family.value} family's")
        roots_raw = [complex(_number(item["re"]), _number(item["im"])) for item in doc["roots"]]
        if len(roots_raw) != problem.n:
            raise DocumentError(f"{len(roots_raw)} roots for n = {problem.n}")
        rd = _object(doc.get("root_diagnostics", {}), "root_diagnostics")
        roots = RootSet(
            len(roots_raw),
            tuple(roots_raw),
            variable,
            _number(rd.get("bae_residual", 0.0)),
            _number(rd["separation"]) if "separation" in rd else math.inf,
        )
        wf_doc = doc["waveform"]
        waveform = WaveForm(
            _number(wf_doc["leading_exponent"]),
            {int(k): _number(v) for k, v in _object(wf_doc["exp_coeffs"], "waveform.exp_coeffs").items()},
        )
        return QESSolution(
            problem,
            roots,
            {k: _number(v) for k, v in _object(doc["derived"], "derived").items()},
            _number(doc["energy"]),
            waveform,
            {k: _number(v) for k, v in _object(doc.get("diagnostics", {}), "diagnostics").items()},
        )
    except DocumentError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise DocumentError(f"malformed solution document: {exc}") from exc


def dumps_documents(docs: list[dict]) -> str:
    """JSON text of the documents, two-space indented, keys in their order."""
    try:
        return json.dumps(docs, indent=2, allow_nan=False) + "\n"
    except (TypeError, ValueError) as exc:
        raise DocumentError(f"cannot serialize: {exc}") from exc


def loads_documents(text: str) -> list[dict]:
    """Parse one document or a list of documents from JSON text."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if isinstance(data, dict):
        return [data]
    if isinstance(data, list) and all(isinstance(d, dict) for d in data):
        return data
    raise DocumentError("expected a solution document or a list of documents")
