"""README's "Library" example runs and prints what the comment on its
``print`` says, so a public name renamed or removed in the package but
not in the README fails the suite."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_prints_the_line_its_comment_shows():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)
    assert len(blocks) == 1
    expected = re.findall(r"^print\(.*\)  # (.+)$", blocks[0], re.M)
    assert len(expected) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    assert out.getvalue() == expected[0] + "\n"
