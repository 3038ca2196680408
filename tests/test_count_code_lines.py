import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "count_code_lines.py"
_spec = importlib.util.spec_from_file_location("count_code_lines", _TOOL)
count_code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(count_code_lines)

SOURCE = '''"""A module docstring,
over two lines."""

import functools


# a comment-only line
@functools.cache
def padded(value):
    """A function docstring."""
    return max(
        value,
        0,  # a comment inside a statement
    )
'''


def test_code_lines_counts_statement_lines_only():
    # import, def, and the four lines of the return; the docstrings, the
    # blank and comment-only lines and the decorator do not count
    assert count_code_lines.code_lines(SOURCE) == 6


def test_total_line_gives_the_module_count(tmp_path, monkeypatch, capsys):
    (tmp_path / "b.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "a.py").write_text("x = 1\n\n# done\n", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("x = 1\n", encoding="utf-8")
    monkeypatch.setattr("sys.argv", ["count_code_lines.py", str(tmp_path)])
    assert count_code_lines.main() == 0
    assert capsys.readouterr().out == "     1  a.py\n     6  b.py\n     7  total (2 modules)\n"
