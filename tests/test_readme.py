"""The README's code examples run against the package as it is."""

import re
import shlex
from pathlib import Path

import gslogic.cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs():
    # a function the README names but the package no longer has fails here
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md: Library quick start", "exec"), {})


def command_line_examples() -> list[tuple[str, list[str]]]:
    """Each ``$ gslogic ...`` line of the "Command line" section with the
    output lines that follow it in its block."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    examples = []
    for block in re.findall(r"```\n(.*?)```", section, re.S):
        out = None
        for line in block.splitlines():
            if line.startswith("$ gslogic "):
                out = []
                examples.append((line[len("$ gslogic "):], out))
            elif out is not None:
                out.append(line)
    return [(command, "\n".join(out).strip("\n").split("\n")) for command, out in examples]


def test_command_line_examples_match_the_cli(capsys):
    # a line with "..." is abridged in the README and is not compared
    examples = command_line_examples()
    assert len(examples) == 9
    for command, expected in examples:
        assert gslogic.cli.main(shlex.split(command)) == 0, command
        actual = capsys.readouterr().out.rstrip("\n").split("\n")
        assert len(actual) == len(expected), command
        for want, got in zip(expected, actual):
            if "..." not in want:
                assert got == want, command
