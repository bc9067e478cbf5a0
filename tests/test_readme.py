"""The README's examples run as written.

Each fenced ```python block is read as a doctest, so a printed value in the
Library tour cannot drift from what the package returns.  The fence itself
is cut off first: doctest.testfile would read the closing fence as the
last example's expected output.  Each `reachcalc` line of the ```sh block
under "## Command line" runs through cli.main and must exit 0.
"""

import doctest
import re
import shlex
from pathlib import Path

from reachcalc import cli

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


def _command_lines(text: str) -> list[str]:
    section = text.split("\n## Command line\n", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```", section, re.MULTILINE | re.DOTALL).group(1)
    return [line for line in block.splitlines() if line.startswith("reachcalc ")]


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    lines = _command_lines(README.read_text(encoding="utf-8"))
    assert lines, "README.md has no reachcalc command line"
    (tmp_path / "target.txt").write_text("0101\n", encoding="ascii")
    monkeypatch.chdir(tmp_path)
    for line in lines:
        code = cli.main(shlex.split(line)[1:])
        assert code == 0, (line, capsys.readouterr().err)
