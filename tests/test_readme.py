"""The README's CLI block and library example run as written."""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from setmeans.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced(heading: str, lang: str) -> str:
    """The first ``lang`` code block after a level-2 heading."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


CLI_LINES = [line.split("  #")[0] for line in fenced("CLI", "sh").splitlines()
             if line.startswith("setmeans ")]


def test_the_cli_block_is_read():
    assert len(CLI_LINES) == 8


@pytest.mark.parametrize("line", CLI_LINES)
def test_readme_cli_line_exits_zero(capsys, line):
    argv = shlex.split(line)[1:]
    assert main(argv) == 0
    out = capsys.readouterr().out
    if argv[0] == "eval":
        assert out.splitlines() == ["avg mean = 13/6"]
    if argv[0] == "round":
        defect = json.loads(out)["result"]["defect"]
        assert defect == {"status": "exact", "value": {"num": "7", "den": "12"}}


def test_readme_library_example():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(fenced("Library example", "python"), {})
    assert out.getvalue().splitlines() == ["1/2", "1/2", "YES"]
