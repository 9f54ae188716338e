"""Each ``python -m mmselab.cli`` line of the README runs and exits 0."""

import shlex
from pathlib import Path

import pytest

from mmselab.cli import EXIT_OK, main

README = Path(__file__).resolve().parents[1] / "README.md"
PREFIX = "python -m mmselab.cli "
LINES = [line for line in README.read_text().splitlines() if line.startswith(PREFIX)]


def test_readme_has_usage_lines():
    assert len(LINES) >= 5


@pytest.mark.parametrize("line", LINES)
def test_readme_usage_line_runs(line, capsys):
    assert main(shlex.split(line[len(PREFIX):])) == EXIT_OK
    assert capsys.readouterr().out
