"""Print a digest of every `sweep` and `match_ell` benchmark operation.

    python3 tools/output_digest.py > digest.txt

Run it in checkouts of two commits and `cmp` the outputs: a change meant
to keep behaviour must print the same bytes.  It imports `src/qesolve` and
`perfbench/workloads.py` from the checkout it lives in.  One line per
operation: its label, the number of branches, the sha256 of the solutions'
documents with their FAST verification reports, and the failure records
(or the exception the solve raised).
"""

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from qesolve.document import dumps_documents, solution_to_document  # noqa: E402
from qesolve.oracle import VerifyLevel, verify_solution  # noqa: E402

for workload in (workloads.Sweep(), workloads.MatchEll()):
    for op in workload.setup(seed=0, smoke=False):
        try:
            solutions, failures = workload.run(op)
        except Exception as exc:  # a crash is part of the behaviour to compare
            print(f"{op.label} | raised {type(exc).__name__}: {exc}")
            continue
        docs = [solution_to_document(s, verify_solution(s, VerifyLevel.FAST)) for s in solutions]
        digest = hashlib.sha256(dumps_documents(docs).encode()).hexdigest()
        records = [(f.error, f.detail, f.roots and f.roots.roots) for f in failures]
        print(f"{op.label} | {len(solutions)} | {digest} | {records}")
