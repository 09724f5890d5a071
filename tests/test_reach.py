"""``tools/reach.py`` on a two-module fixture, with the traced run stubbed:
which statements it counts, which lines reach each, and what it prints."""

import ast
import importlib.util
import textwrap
from pathlib import Path

import pytest

_TOOLS = Path(__file__).resolve().parents[1] / "tools"

MODULES = {
    "a.py": '''\
        """Module docstring."""
        import functools


        @functools.cache
        def f(x):
            """Function docstring."""
            if (x
                    > 0):
                return 1
            return 2


        @functools.cache
        def h():
            return 3
        ''',
    "b.py": '''\
        def g(
            y,
        ):
            while y:
                y -= 1
            return y
        ''',
}
# Line events the stub reports: a decorator's line, a docstring's line and
# a body line under an `if` in a.py; a signature's last line and the lines
# of a `while`'s body and of the statement after it in b.py.
REACHED = {"a.py": (5, 7, 10), "b.py": (3, 5, 6)}


@pytest.fixture
def reach(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(_TOOLS))         # reach.py imports golden
    spec = importlib.util.spec_from_file_location("reach", _TOOLS / "reach.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for name, text in MODULES.items():
        (tmp_path / name).write_text(textwrap.dedent(text), encoding="utf-8")
    monkeypatch.setattr(module, "SRC", tmp_path)
    monkeypatch.setattr(module, "traced_lines", lambda: {
        (str(tmp_path / name), line) for name, lines in REACHED.items() for line in lines})
    return module


def test_statements_and_their_own_lines(reach, tmp_path):
    def own(name):
        tree = ast.parse((tmp_path / name).read_text(encoding="utf-8"))
        return {first: list(lines) for first, lines in reach.statements(tree)}

    # No docstring is a statement; a decorated def starts at its decorator
    # and owns its lines up to its first nested statement, here its
    # docstring; an `if` owns only its header's lines.
    assert own("a.py") == {2: [2], 5: [5, 6], 8: [8, 9], 10: [10], 11: [11],
                           14: [14, 15], 16: [16]}
    assert own("b.py") == {1: [1, 2, 3], 4: [4], 5: [5], 6: [6]}


def test_main_prints_each_module_and_the_total(reach, capsys):
    assert reach.main() == 0
    # f is reached by its decorator's line; the `if` is not reached by its
    # body's line, and the docstring line reaches nothing; g is reached by
    # the last line of its signature, the `while` not by its body.
    assert capsys.readouterr().out == textwrap.dedent("""\
        a.py: 2 of 7 statements reached
          2: import functools
          8: if (x
          11: return 2
          14: @functools.cache
          16: return 3
        b.py: 3 of 4 statements reached
          4: while y:
        total: 5 of 11 statements reached
        """)
