"""Rules on the source of the charvar package itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def _defined_names(tree):
    """The names a module's own top-level statements define."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names.update(sub.id for target in targets
                         for sub in ast.walk(target)
                         if isinstance(sub, ast.Name))
    return names


def _exported_names(tree):
    return next((ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "__all__"
                         for t in node.targets)), [])


def test_every_exported_name_is_defined_in_its_module():
    # only the package's __init__ re-exports; a module's __all__ lists
    # what the module itself defines, so each name has one home
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in SOURCES if path.name != "__init__.py"}
    exports = {name: _exported_names(tree) for name, tree in trees.items()}
    foreign = [f"{name}:{export}" for name, tree in trees.items()
               for export in exports[name]
               if export not in _defined_names(tree)]
    assert sum(1 for names in exports.values() if names) >= 3
    assert foreign == []


def test_every_imported_name_is_read_in_its_module():
    # an import nothing reads is left over from code that has moved;
    # only the package's __init__ imports names to re-export them
    bound, unread = 0, []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) \
                    and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    bound += 1
                    if name not in read:
                        unread.append(f"{path.name}:{node.lineno}:{name}")
    assert bound > 30
    assert unread == []


def test_a_class_binds_a_method_twice_only_as_a_reflected_operator():
    # `__radd__ = __add__` serves Python's operator protocol; any other
    # second name for a method is an alias, and each operation has one
    aliases, reflected = [], 0
    for path in SOURCES:
        for cls in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(cls, ast.ClassDef):
                continue
            methods = {node.name for node in cls.body
                       if isinstance(node, ast.FunctionDef)}
            for node in cls.body:
                if not (isinstance(node, ast.Assign)
                        and isinstance(node.value, ast.Name)
                        and node.value.id in methods):
                    continue
                for target in node.targets:
                    name = getattr(target, "id", None)
                    # __radd__ = __add__, but not __repr__ = __str__
                    if name == "__r" + node.value.id[2:]:
                        reflected += 1
                    else:
                        aliases.append(f"{path.name}:{cls.name}.{name}")
    assert reflected >= 4
    assert aliases == []


def test_src_imports_only_the_standard_library():
    # the package is pure Python with no dependencies (pyproject.toml
    # lists none): every absolute import names a standard-library module
    absolute, relative, foreign = 0, 0, []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                relative += isinstance(node, ast.ImportFrom)
                continue
            absolute += len(modules)
            foreign += [f"{path.name}:{node.lineno}:{module}"
                        for module in modules
                        if module.split(".")[0] not in sys.stdlib_module_names]
    assert absolute > 20 and relative > 10
    assert foreign == []


def _package_imports(tree):
    """(module, name) of each name the module imports from the package;
    ``from . import mod`` imports the name mod from mod."""
    return [(node.module or alias.name, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for alias in node.names]


def _identifiers(tree):
    """Every name the module's code binds, reads or imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(filter(None, (node.name, node.asname)))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def test_the_import_graph_keeps_the_brute_force_side_apart():
    # arith is the bottom; the brute-force oracle checks the series
    # pipeline, so it loads only arith and no series layer loads it; the
    # census engine and both censuses that read its keys live in fforacle,
    # and combinatorics takes only the permutation census from it
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in SOURCES}
    imports = {stem: _package_imports(tree) for stem, tree in trees.items()}
    assert imports["arith"] == []
    assert {module for module, _ in imports["fforacle"]} == {"arith"}
    assert [f"{stem}:{name}" for stem in ("qpoly", "tseries", "plethystic",
                                          "counting")
            for module, name in imports[stem] if module == "fforacle"] == []
    assert [name for module, name in imports["combinatorics"]
            if module == "fforacle"] == ["perm_rep_census"]
    engine = {"_orbit_levels", "_group_table", "_orbits"}
    naming = {stem: sorted(engine & _identifiers(tree))
              for stem, tree in trees.items()}
    assert naming.pop("fforacle") == sorted(engine)
    assert {stem: names for stem, names in naming.items() if names} == {}


def _static_closure(stem):
    """The package modules that importing stem loads by its own imports:
    stem and, transitively, every module its relative imports name."""
    imports = {path.stem: _package_imports(ast.parse(path.read_text(),
                                                     str(path)))
               for path in SOURCES}
    closure, todo = set(), [stem]
    while todo:
        module = todo.pop()
        if module not in closure:
            closure.add(module)
            todo += [imported for imported, _ in imports[module]]
    return closure


@pytest.mark.parametrize("module", ["charvar"] + [
    f"charvar.{path.stem}" for path in SOURCES if path.stem != "__init__"])
def test_an_import_loads_only_the_modules_its_source_imports(module):
    # the package resolves its names on first read, so at runtime too the
    # oracle loads only arith and no series layer loads the oracle: a
    # fresh interpreter holds the package, the module and its closure
    src = str(Path(charvar.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", f"import sys, {module}; print(*("
         "name for name in sys.modules if name.split('.')[0] == 'charvar'))"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    stem = module.partition(".")[2]
    closure = _static_closure(stem) if stem else set()
    assert set(run.stdout.split()) == {"charvar"} | {
        f"charvar.{name}" for name in closure}


TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced_names():
    """(module, name) of each module-level function that the benchmark's
    tracer patches by its TIMED and COUNTED lists, read from its text."""
    traced = set()
    for node in ast.parse(TRACER.read_text(), str(TRACER)).body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) in ("TIMED", "COUNTED")
                for target in node.targets):
            traced |= {(module, name)
                       for module, names in ast.literal_eval(node.value).items()
                       for name in names if "." not in name}
    return traced


def test_every_public_name_has_a_reader_in_the_package():
    # public code only the tests call is an API nobody in the package
    # needs; the tracer's names stay importable until the package traces
    # itself, and arith.partitions waits for a second route to M_d(q)
    keep = _traced_names() | {("arith", "partitions")}
    statements = [(path.stem, node, _read_names(node)) for path in SOURCES
                  if path.name != "__init__.py"
                  for node in ast.parse(path.read_text(), str(path)).body]
    public = [(module, node) for module, node, _ in statements
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")]
    unread = sorted((module, node.name) for module, node in public
                    if not any(node.name in names
                               for _, other, names in statements
                               if other is not node))
    assert len(public) > 60 and len(keep) > 20
    assert [name for name in unread if name not in keep] == []
