"""tools/code_lines.py: the code-line count on a fixture of known size."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

FIXTURE = '''"""Module docstring:
two lines."""
# a comment

import math  # counts


def f(x):
    """Docstring."""
    s = """a string
    inside code"""
    return (x +
            math.pi)


class C:
    "one-line docstring"
    y = 1
'''
# code lines: import, def, s = (2 lines), return (2 lines), class, y = 1
FIXTURE_LINES = 8


def test_counts_code_lines_without_docstrings_comments_or_blanks(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(FIXTURE)
    assert code_lines.code_lines(path) == FIXTURE_LINES


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# end\n")
    assert code_lines.main([str(tmp_path / "pkg")]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [[str(FIXTURE_LINES), str(tmp_path / "pkg" / "a.py")],
                    ["1", str(tmp_path / "pkg" / "b.py")],
                    [str(FIXTURE_LINES + 1), "total"]]
