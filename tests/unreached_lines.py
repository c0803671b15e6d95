"""Run the tier-1 suite under a line tracer and print, per module of
``hfree_mis``, the statement lines that no test executed.

    PYTHONPATH=src python tests/unreached_lines.py [pytest arguments]

The arguments default to the whole ``tests`` directory.  Every line of the
package is traced, so the suite runs about six times slower than plain
(90 s against 15 s on a 2-CPU host).
The file is not named ``test_*``, so pytest does not collect it.

A line counts as executable when a statement starts on it and the compiled
module has an instruction there; docstrings do not count.  The tracer is set
before the suite imports the package, so import-time lines count as reached.
Only the standard library is used, apart from pytest, which runs the suite
in this process.
"""

from __future__ import annotations

import ast
import dis
import sys
import threading
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hfree_mis"


def executable_lines(path: Path) -> set[int]:
    """Lines where a statement, other than a docstring, starts and the
    compiled code has an instruction."""
    source = path.read_text()
    statements = {node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.stmt) and not _is_docstring(node)}
    starts: set[int] = set()
    stack = [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        starts.update(line for _, line in dis.findlinestarts(code) if line)
        stack.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return statements & starts


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _ranges(lines: list[int]) -> str:
    out = []
    start = prev = lines[0]
    for line in lines[1:] + [None]:
        if line is not None and line == prev + 1:
            prev = line
            continue
        out.append(str(start) if start == prev else f"{start}-{prev}")
        if line is not None:
            start = prev = line
    return ", ".join(out)


def main(argv: list[str]) -> int:
    modules = sorted(PACKAGE.glob("*.py"))
    hits: dict[str, set[int]] = {str(p): set() for p in modules}
    by_filename: dict[str, set[int] | None] = {}

    def lines_of(filename: str) -> set[int] | None:
        if filename not in by_filename:
            by_filename[filename] = hits.get(str(Path(filename).resolve()))
        return by_filename[filename]

    def global_trace(frame, event, arg):
        lines = lines_of(frame.f_code.co_filename)
        if lines is None:
            return None

        def local_trace(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local_trace
        return local_trace

    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    threading.settrace(global_trace)
    sys.settrace(global_trace)
    try:
        status = pytest.main(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total_missed = total_lines = 0
    for path in modules:
        lines = executable_lines(path)
        missed = sorted(lines - hits[str(path)])
        total_missed += len(missed)
        total_lines += len(lines)
        print(f"{path.name:16} {len(missed):4} of {len(lines):4} unreached"
              + (f": {_ranges(missed)}" if missed else ""))
    print(f"{'total':16} {total_missed:4} of {total_lines:4} unreached")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
