"""Every name a charvar module exports in __all__ resolves."""

import importlib
import pkgutil

import charvar

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
