"""The README's examples: shell lines run through the CLI, Python blocks run in one namespace."""

import ast
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


def test_readme_python_blocks_give_the_values_their_comments_show():
    namespace, shown = {}, []
    for block in re.findall(r"^```python\n(.*?)^```$", _README.read_text(), flags=re.M | re.S):
        lines = block.splitlines()
        for statement in ast.parse(block).body:
            if not isinstance(statement, ast.Expr):
                exec(compile(ast.Module([statement], type_ignores=[]), "README.md", "exec"), namespace)
                continue
            value = eval(compile(ast.Expression(statement.value), "README.md", "eval"), namespace)
            comment = lines[statement.end_lineno - 1].partition("#")[2]
            assert str(value) in comment, (ast.unparse(statement), value, comment)
            shown.append(value)
    assert shown == [64, (64, 63), 370371188237525, 29, 13]
