"""Line counts of ``scripts/code_lines.py`` on a synthetic module."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Code on lines 4, 7, 10, 13, 16-19 (a call over four lines, a comment in
# it) and 22-25 (a string over two lines that is no docstring); the rest
# are docstrings, comments and blank lines.
SOURCE = '''"""Module docstring,
over two lines."""

import os  # a comment

# A comment line.
X = 1


class C:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        return os.path.join(
            "a",
            "b",  # a comment inside the call
        )


def g():
    text = """not a
docstring"""
    return text
'''


def test_counts_code_outside_comments_and_docstrings(tmp_path):
    for directory, name in (("src/vecroute", "module.py"), ("scripts", "tool.py")):
        (tmp_path / directory).mkdir(parents=True)
        (tmp_path / directory / name).write_text(SOURCE)
    (tmp_path / "scripts" / "notes.txt").write_text("not python\n")
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "code_lines.py"), str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    counts = {"lines": 25, "code": 12}
    assert json.loads(done.stdout) == {
        "files": {"scripts/tool.py": counts, "src/vecroute/module.py": counts},
        "totals": {"scripts": counts, "src/vecroute": counts},
    }
