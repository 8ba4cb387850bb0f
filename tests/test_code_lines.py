"""Tests for scripts/code_lines.py, the code-line count of the package."""

import importlib.util
import os
import sys

_PATH = os.path.join(os.path.dirname(__file__), "..", "scripts", "code_lines.py")
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

_SOURCE = '''"""Module docstring
spanning two lines."""

import os  # a trailing comment

# a whole-line comment


def f(a,
      b):
    """Function docstring."""
    return (a
            + b)


class C:
    """Class docstring,
    two lines."""

    x = """not a docstring
    but a two-line string"""
'''


def test_counts_code_lines_only():
    # import, the three lines of f's signature and return, its second
    # argument line, the class line and both lines of the string assigned
    # to x; not the docstrings, comments or blank lines
    assert code_lines.code_lines(_SOURCE) == 8


def test_prints_each_module_and_the_total(tmp_path, monkeypatch, capsys):
    (tmp_path / "a.py").write_text(_SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n\ny = [\n    2,\n]\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    monkeypatch.setattr(sys, "argv", ["code_lines.py", str(tmp_path)])
    assert code_lines.main() == 0
    assert capsys.readouterr().out.splitlines() == ["a.py      8", "b.py      4", "total    12"]
