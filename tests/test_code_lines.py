"""scripts/code_lines.py counts the lines that hold code."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"

# 10 code lines: the import, the three lines of the assignment, the def,
# the return, the class line and the three lines of the string that is not
# a docstring; the docstrings, comments and blanks are not.
SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line

# a comment-only line
TOTAL = sum(
    [1, 2],
)


def f():
    """One-line docstring."""
    return math.pi


class C:
    """Class docstring,

    with a blank line inside."""
    TEXT = """a string that is
not a docstring
"""
'''


def test_counts_code_lines_of_a_fixed_source(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text(SOURCE, encoding="utf-8")
    (package / "b.py").write_text('"""Only a docstring."""\n', encoding="utf-8")
    out = subprocess.run(
        [sys.executable, str(SCRIPT), str(package)], capture_output=True,
        text=True, check=True, timeout=60,
    ).stdout
    rows = [line.split(None, 1) for line in out.splitlines()]
    assert rows == [
        ["10", str(package / "a.py")],
        ["0", str(package / "b.py")],
        ["10", "total"],
    ]
