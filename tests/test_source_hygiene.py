"""Every name an import binds in a ``tmf3`` module is used in that module,
and every module-level ``_private`` name is read somewhere."""

import ast
from pathlib import Path

import pytest

import tmf3.record

SOURCES = sorted(Path(tmf3.record.__file__).parent.glob("*.py"))
# the benchmark's tracer wraps private caches by name
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def unused_imports(source):
    """The names that the imports of ``source`` bind and nothing reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = ("from __future__ import annotations\n"
              "import os.path, re\n"
              "from math import gcd, lcm as l\n"
              "print(re, l)\n")
    assert unused_imports(source) == [(2, "os"), (3, "gcd")]


def _private_bindings(tree):
    """{name: line} of the _private names a module's top level binds."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        out.update((n, node.lineno) for n in names
                   if n.startswith("_") and not n.startswith("__"))
    return out


def _reads_from_outside(tree):
    """The names a module can read from another module: attributes,
    imported names, and the dotted parts of string constants."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(node.value.split("."))
    return out


def orphans(modules, readers=()):
    """(module, line, name) for each module-level _private name of
    ``modules`` ({name: source}) that is read neither in its own module nor,
    through an attribute, an import or a string, in any module or reader."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    outside = set().union(*map(_reads_from_outside,
                               [*trees.values(), *map(ast.parse, readers)]))
    found = []
    for module, tree in trees.items():
        local = {n.id for n in ast.walk(tree)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [(module, line, name) for name, line in _private_bindings(tree).items()
                  if name not in local | outside]
    return sorted(found)


def test_every_private_name_is_read():
    modules = {p.name: p.read_text() for p in SOURCES}
    assert orphans(modules, [TRACER.read_text()]) == []


def test_an_orphaned_private_name_is_found():
    modules = {
        "a.py": ("_KEPT = 1\n_DROPPED, _PAIR = 2, 3\n"
                 "def _helper():\n    return _KEPT\n"
                 "class _Orphan:\n    pass\n"
                 "def public():\n    return _helper()\n"
                 "_BY_ATTRIBUTE = 4\n"),
        "b.py": ("from .a import _PAIR\n"
                 "def _unused():\n    _DROPPED = 5\n    return _DROPPED\n"),
        "c.py": "import a\nprint(a._BY_ATTRIBUTE)\n",
    }
    assert orphans(modules) == [("a.py", 2, "_DROPPED"), ("a.py", 5, "_Orphan"),
                                ("b.py", 2, "_unused")]
    # a string in a reader, as the tracer names the caches it wraps, reads it
    assert orphans(modules, ["WRAP = ('b', '_unused')"]) == [
        ("a.py", 2, "_DROPPED"), ("a.py", 5, "_Orphan")]
