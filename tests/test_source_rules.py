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


def _read_names(node):
    """Every name the node's code reads, bare or as an attribute."""
    return {sub.id if isinstance(sub, ast.Name) else sub.attr
            for sub in ast.walk(node)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
            or isinstance(sub, ast.Attribute)}


def test_every_private_function_is_used_in_the_package():
    # a private helper only the tests call belongs in the tests
    statements = [(node, _read_names(node)) for path in SOURCES
                  for node in ast.parse(path.read_text(), str(path)).body]
    private = [node for node, _ in statements
               if isinstance(node, ast.FunctionDef)
               and node.name.startswith("_") and not node.name.endswith("__")]
    orphans = [node.name for node in private
               if not any(node.name in names for other, names in statements
                          if other is not node)]
    assert len(private) > 10
    assert orphans == []
