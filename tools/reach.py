"""List the statements of ``src/unruhlab`` that the golden command set never reaches.

    python tools/reach.py

Runs ``tools/golden.py``'s command set (every figure preset, the
``validate`` seeds and sample counts, the INI sweeps, the ``state``
points, bad arguments and usage errors) on this checkout under
``sys.settrace``, then prints, per module of ``src/unruhlab``, how many
of its statements ran and the line and first source line of each
statement that did not.

A statement counts as reached when a line event fires on one of its own
lines: from its first line (its first decorator's, for a decorated
definition) to the line before its first nested statement, or to its
last line if it nests none.  Docstrings and ``global``/``nonlocal``
declarations compile to no code of their own and are not counted.  Uses
only the standard library and ``golden.py``.
"""

import ast
import os
import sys
from pathlib import Path

import golden

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "unruhlab"


def statements(tree: ast.Module):
    """Each counted statement of ``tree`` as (first line, its own lines)."""
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and ast.get_docstring(node, clean=False) is not None}
    for node in ast.walk(tree):
        if (not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal))
                or id(node) in docstrings):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        nested = [c.lineno for c in ast.iter_child_nodes(node) if isinstance(c, ast.stmt)]
        last = min(nested) - 1 if nested else node.end_lineno
        yield first, range(first, max(first, last) + 1)


def traced_lines() -> set[tuple[str, int]]:
    """(file, line) of every line event in ``SRC`` during the golden command set."""
    reached, prefix = set(), str(SRC) + os.sep

    def local(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(call)
    try:
        golden.fingerprint(ROOT)
    finally:
        sys.settrace(None)
    return reached


def main() -> int:
    reached = traced_lines()
    total = missed = 0
    for path in sorted(SRC.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        found = sorted(statements(ast.parse("\n".join(lines))))
        unreached = [first for first, own in found
                     if not any((str(path), n) in reached for n in own)]
        total, missed = total + len(found), missed + len(unreached)
        print(f"{path.name}: {len(found) - len(unreached)} of {len(found)} statements reached")
        for first in unreached:
            print(f"  {first}: {lines[first - 1].strip()}")
    print(f"total: {total - missed} of {total} statements reached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
