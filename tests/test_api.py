import json
import re
import shlex
from pathlib import Path

import pytest

import edgering
from edgering.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def readme_command_lines() -> list[tuple[str, str]]:
    """Each `$ edgering ...` line of the README's `## Command line` section
    that is followed by a JSON line, with that line.  CI's installed-package
    step runs the same cases through the installed `edgering` script."""
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    lines = section.split("\n## Library\n", 1)[0].splitlines()
    cases = []
    for command, out in zip(lines, lines[1:]):
        if command.startswith("$ edgering "):
            try:
                json.loads(out)
            except ValueError:
                continue
            cases.append((command, out))
    return cases


def test_all_names_exist():
    missing = [name for name in edgering.__all__ if not hasattr(edgering, name)]
    assert missing == []


def test_all_has_no_duplicates():
    assert len(edgering.__all__) == len(set(edgering.__all__))


def test_readme_library_example():
    # the first fenced block after the heading, run as written
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    assert "analyze_record" in block
    exec(compile(block, f"{README}:## Library", "exec"), {})


COMMAND_LINES = readme_command_lines()


def test_readme_command_lines_found():
    # the oracle's seven lines and decompose's three
    assert len(COMMAND_LINES) == 10


@pytest.mark.parametrize(
    "command, out", COMMAND_LINES, ids=[" ".join(shlex.split(c, comments=True)[2:]) for c, _ in COMMAND_LINES]
)
def test_readme_command_line(monkeypatch, capsys, command, out):
    # run as written from the repository root, with the exit code that the
    # line's comment gives, or 0 if it gives none
    monkeypatch.chdir(ROOT)
    code = re.search(r"#.*\bexit (\d+)$", command)
    assert main(shlex.split(command, comments=True)[2:]) == (int(code[1]) if code else 0)
    assert capsys.readouterr() == (out + "\n", "")
