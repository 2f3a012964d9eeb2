"""List the statements of src/qesolve that a run never reaches.

    python3 tools/line_trace.py SCRIPT [ARGS...]
    python3 tools/line_trace.py -m MODULE [ARGS...]     # e.g. -m pytest -q

Runs SCRIPT (or MODULE, as `python -m` would) in this process under
`sys.settrace`, with a line tracer on frames whose code lives in this
checkout's `src/qesolve` only, and `src` put first on `sys.path` so that the
package traced is this checkout's.  Then prints, per function and method,
each statement that never ran (`file:line  function  source`), and one
summary line.  Standard library only, as `coverage` need not be installed.

A statement counts as reached when a line event fell on any of its lines
(for an `if`, `for`, `try` or `with`, on any line of its whole extent).
Docstrings and other constant expressions, `global` and `nonlocal` compile
to no code and are not listed; module and class bodies run on import and
are not listed either.  Code in child processes (a test that starts
`python -m qesolve`) is not traced.  Exits with the run's exit code.
"""

import ast
import runpy
import sys
import threading
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "qesolve"


def _functions(tree: ast.AST, prefix: str = ""):
    """(qualified name, node) of every function in the tree, nested ones too."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
            yield from _functions(node, prefix + node.name + ".")
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, prefix + node.name + ".")
        else:
            yield from _functions(node, prefix)


def _statements(function: ast.AST):
    """The statements of a function's own body, nested blocks included but
    not nested functions or classes (whose `def` line is listed)."""
    stack = list(function.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for field in ("body", "orelse", "finalbody", "handlers", "cases"):
            for child in getattr(node, field, ()):
                stack.extend(child.body if isinstance(child, (ast.ExceptHandler, ast.match_case)) else [child])


def unreached(path: Path, ran: set[int]) -> tuple[list[tuple[int, str, str]], int]:
    """(line, function, source) of each statement in the file's functions
    that never ran, in line order, and the number of those statements."""
    source = path.read_text()
    lines = source.splitlines()
    out, count = [], 0
    for name, function in _functions(ast.parse(source)):
        for stmt in _statements(function):
            count += 1
            nested = isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            if ran.isdisjoint(range(stmt.lineno, (stmt.lineno if nested else stmt.end_lineno) + 1)):
                out.append((stmt.lineno, name, lines[stmt.lineno - 1].strip()))
    return sorted(out), count


def main(argv: list[str]) -> int:
    if not argv or argv[0] in ("-h", "--help") or argv == ["-m"]:
        print(__doc__)
        return 0 if argv[:1] in (["-h"], ["--help"]) else 2
    package = str(PACKAGE) + "/"
    hits: dict[str, set[int]] = defaultdict(set)
    inside: dict[str, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            inside[name] = str(Path(name).resolve()).startswith(package)
        if inside[name]:
            hits[name].add(frame.f_lineno)
            return local
        return None

    sys.path.insert(0, str(SRC))
    module = argv[0] == "-m"
    sys.argv = argv[1:] if module else argv
    code = 0
    threading.settrace(call)
    sys.settrace(call)
    try:
        if module:
            runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
        else:
            runpy.run_path(argv[0], run_name="__main__")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    ran: dict[Path, set[int]] = defaultdict(set)
    for name, lines in hits.items():
        ran[Path(name).resolve()] |= lines
    missed = total = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        rows, count = unreached(path, ran[path])
        missed, total = missed + len(rows), total + count
        for line, function, text in rows:
            print(f"{path.relative_to(SRC.parent)}:{line}  {function}  {text}")
    print(f"{total - missed} of {total} statements in functions of {PACKAGE.relative_to(SRC.parent)} ran; {missed} never did")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
