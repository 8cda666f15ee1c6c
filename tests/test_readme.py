"""The README's shell examples, run through the CLI and compared with the output it shows."""

import re
import shlex
from pathlib import Path

import pytest

from moessner.cli import main

_README = Path(__file__).resolve().parent.parent / "README.md"


def _examples():
    """(argv, expected stdout) for each `$ moessner ...` line in the README's sh blocks."""
    examples = []
    for block in re.findall(r"^```sh\n(.*?)^```$", _README.read_text(), flags=re.M | re.S):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, output = chunk.partition("\n")
            argv = shlex.split(command)
            assert argv[0] == "moessner", command
            examples.append(pytest.param(argv[1:], output.rstrip("\n") + "\n", id=command))
    return examples


@pytest.mark.parametrize("argv, expected", _examples())
def test_readme_example(capsys, argv, expected):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (expected, "")


def test_readme_has_every_example():
    assert len(_examples()) == 9
