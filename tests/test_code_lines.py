"""tools/code_lines.py, the count of code lines the size of src/ is quoted in:
lines that hold a token, not counting blank lines, comments or docstrings."""

import importlib.util
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "code_lines.py"

_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SAMPLE = textwrap.dedent('''\
    """A module docstring
    on two lines."""

    # a comment
    import os  # a comment after code


    class Shape:
        """A class docstring."""

        def area(self):
            """A function docstring
            on two lines."""
            # a comment in a body
            return """a string that is no docstring
    spans two lines"""


    async def fetch():
        """An async function docstring."""
        "a string after the first statement"
        return os.sep
    ''')


def test_docstrings_comments_and_blank_lines_do_not_count(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    # import, class, def, the two-line return, async def, the late string, return
    assert code_lines.code_lines(path) == 8


def test_the_total_is_the_sum_of_the_files():
    out = subprocess.run(
        [sys.executable, str(TOOL), "src"], cwd=ROOT, capture_output=True, text=True, check=True
    )
    *files, total = [line.split() for line in out.stdout.splitlines()]
    assert files and total[1] == "total"
    assert int(total[0]) == sum(int(count) for count, _ in files)
