"""The README's interactive examples run as written.

Each fenced ```python block is read as a doctest, so a printed value in the
Library tour cannot drift from what the package returns.  The fence itself
is cut off first: doctest.testfile would read the closing fence as the
last example's expected output.
"""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", text, re.MULTILINE | re.DOTALL)


def test_readme_python_examples_run():
    blocks = _python_blocks(README.read_text(encoding="utf-8"))
    assert blocks, "README.md has no ```python block"
    parser = doctest.DocTestParser()
    for i, block in enumerate(blocks):
        test = parser.get_doctest(block, {}, f"README.md python block {i}", str(README), 0)
        assert test.examples, f"python block {i} has no >>> example"
        report: list[str] = []
        failed, _ = doctest.DocTestRunner().run(test, out=report.append)
        assert failed == 0, "".join(report)
