"""List the refusals in src/actlab that no tier-1 test reaches.

    python3 tools/reach.py

Runs pytest on ``tests`` in this process under a ``sys.settrace``
line tracer limited to ``src/actlab``, then prints ``path:line: text`` for each
``raise`` statement and each ``_fail(...)`` call whose first line no test ran.
Exits 1 if there is one, or if a test failed. Pool workers that ``seed_sweep``
forks are not traced: every refusal they can reach also runs at ``jobs=1``.
"""

import ast
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "actlab"


def refusals(path):
    """Line number -> text of each raise statement and `_fail(...)` call in `path`."""
    lines = path.read_text().splitlines()
    return {node.lineno: lines[node.lineno - 1].strip()
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Raise) or isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == "_fail"}


def main():
    sys.path.insert(0, str(PACKAGE.parent))
    files = {str(p): refusals(p) for p in sorted(PACKAGE.glob("*.py"))}
    ran = {name: set() for name in files}
    pid = os.getpid()

    def trace_call(frame, event, arg):
        if os.getpid() != pid:  # a forked pool worker
            sys.settrace(None)
            return None
        lines = ran.get(frame.f_code.co_filename)

        def trace_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace_line
        return None if lines is None else trace_line

    sys.settrace(trace_call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    missed = [f"{Path(name).relative_to(ROOT)}:{line}: {text}"
              for name, found in files.items() for line, text in sorted(found.items())
              if line not in ran[name]]
    print("\n".join(missed) or "every refusal is reached")
    return 1 if missed or code else 0


if __name__ == "__main__":
    sys.exit(main())
