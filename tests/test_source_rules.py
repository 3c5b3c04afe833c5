"""Rules on the source of the charvar package itself."""

import ast
from pathlib import Path

import charvar

SOURCES = sorted(Path(charvar.__file__).resolve().parent.glob("*.py"))


def test_src_has_no_assert_statement():
    # python -O strips assert statements, so no check may rest on one
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert len(SOURCES) > 5
    assert found == []
