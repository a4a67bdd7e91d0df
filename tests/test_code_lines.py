"""``tools/code_lines.py``, which counts the code lines of modules."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parents[1] / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

_SOURCE = '''"""A module docstring
over two lines."""

import math  # a comment after code counts once

# A comment line.
LIMIT = 3
"""The constant's note,
over two lines."""


def area(r):
    """A function docstring."""

    return math.pi * max(
        r,
        0.0,
    )
'''


def test_only_lines_of_statements_count():
    # import, LIMIT, def, and the return with its call's three further lines.
    assert code_lines.code_lines(_SOURCE) == 7


def test_a_line_counts_once_however_many_tokens_it_holds():
    assert code_lines.code_lines("x = (1, 2); y = [x, x]\n") == 1
    assert code_lines.code_lines("x = (\n    1,\n    2,\n)\n") == 4


def test_script_prints_one_line_per_module_and_a_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(_SOURCE)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# note\ny = 2\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"     7  {tmp_path / 'a.py'}",
        f"     2  {tmp_path / 'pkg' / 'b.py'}",
        "     9  total",
    ]
