"""The docstring examples of every charvar module run and hold."""

import doctest
import importlib
import pkgutil

import charvar

MODULES = sorted(name for _, name, _ in pkgutil.iter_modules(charvar.__path__))


def test_every_docstring_example_holds():
    attempted = {}
    for name in MODULES:
        result = doctest.testmod(importlib.import_module(f"charvar.{name}"))
        assert result.failed == 0, name
        attempted[name] = result.attempted
    assert {name for name, count in attempted.items() if count} >= {
        "arith", "counting", "plethystic", "qpoly", "tseries"}
