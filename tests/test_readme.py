"""The README's examples run as written.

The Library sketch block is executed line by line; a line whose ``# value``
comment starts with a Python literal must evaluate to it, and a literal
followed by ``...`` is a prefix of the value's ``repr``.  Every ``gicap ...``
line of the CLI block must exit 0 through ``cli.main``.
"""

import ast
import io
import re
import shlex
from pathlib import Path

import pytest

from gicap import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def block(heading: str, language: str) -> list[str]:
    """The lines of the first ``language`` code block under ``## heading``."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1]
    match = re.search(rf"```{language}\n(.*?)```", section, re.S)
    return match.group(1).splitlines()


def expected_literal(comment: str):
    """``(value, is_prefix)`` of the literal the comment starts with, or None.

    The literal is the longest prefix that parses and is followed by the end,
    whitespace or ``...``.
    """
    for end in range(len(comment), 0, -1):
        rest = comment[end:]
        if rest and not (rest[0].isspace() or rest.startswith("...")):
            continue
        try:
            value = ast.literal_eval(comment[:end])
        except (ValueError, SyntaxError):
            continue
        return value, rest.startswith("...")
    return None


def test_expected_literal_rule():
    assert expected_literal("0.98578... (= x)") == (0.98578, True)
    assert expected_literal("(True, True)") == ((True, True), False)
    assert expected_literal("7-constraint polytope") is None
    assert expected_literal("as `gicap sweep`: rows") is None


def test_library_sketch(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    checked = 0
    for line in block("Library sketch", "python"):
        code, _, comment = line.partition("  # ")
        if not code.strip():
            continue
        expected = expected_literal(comment.strip())
        if expected is None:
            exec(code, namespace)
            continue
        value = eval(code, namespace)
        literal, is_prefix = expected
        if is_prefix:
            assert repr(value).startswith(repr(literal)), (line, value)
        else:
            assert value == literal, (line, value)
        checked += 1
    assert checked == 7


CLI_LINES = [line for line in block("CLI", "sh") if line.startswith("gicap ")]


def test_cli_block_is_found():
    assert len(CLI_LINES) == 8


@pytest.mark.parametrize("line", CLI_LINES)
def test_cli_line_exits_zero(line, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(shlex.split(line)[1:], stdout=io.StringIO()) == 0, line
