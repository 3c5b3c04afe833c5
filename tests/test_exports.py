"""Every name a charvar module exports in __all__ resolves, and the package
finds each of its names in the module that defines it."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import charvar
from test_source_rules import _defined_names

MODULES = ["charvar"] + sorted(
    f"charvar.{name}" for _, name, _ in pkgutil.iter_modules(charvar.__path__))


def test_every_exported_name_resolves():
    checked = set()
    for name in MODULES:
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", None)
        if exported is None:
            continue
        assert len(set(exported)) == len(exported), name
        missing = [attr for attr in exported if not hasattr(module, attr)]
        assert missing == [], (name, missing)
        namespace = {}
        exec(f"from {name} import *", namespace)
        assert set(exported) <= namespace.keys(), name
        checked.add(name)
    assert checked >= {"charvar", "charvar.counting", "charvar.fforacle",
                       "charvar.verify"}


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        charvar.no_such_name
    assert not hasattr(charvar, "no_such_name")


def test_dir_lists_every_name_and_a_read_name_is_kept():
    assert set(charvar.__all__) <= set(dir(charvar))
    # the first read imports the home module and binds the name in the
    # package, so later reads do not go through __getattr__ again
    assert charvar.TSeries is importlib.import_module("charvar.tseries").TSeries
    assert vars(charvar)["TSeries"] is charvar.TSeries


def _misfiled(homes):
    """home:name of each name whose home module does not define it with a
    top-level def, class or assignment (an import does not count)."""
    package = Path(charvar.__file__).resolve().parent
    misfiled = []
    for home, names in homes.items():
        path = package / f"{home}.py"
        defined = _defined_names(ast.parse(path.read_text(), str(path)))
        misfiled += [f"{home}:{name}" for name in names if name not in defined]
    return misfiled


def test_each_name_is_filed_under_the_module_that_defines_it():
    # a name filed under two modules would appear in __all__ only once
    assert sum(map(len, charvar._HOMES.values())) == len(charvar.__all__)
    assert _misfiled(charvar._HOMES) == []
    # fforacle imports SizeGuardError from arith but does not define it
    assert _misfiled({"fforacle": ("SizeGuardError", "orbit_census")}) == [
        "fforacle:SizeGuardError"]
