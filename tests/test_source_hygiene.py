"""Every name an import binds in a ``tmf3`` module is used in that module,
every module-level ``_private`` name is read somewhere, no ring lifts an
operand of another class, and no polynomial keeps its variables per
instance."""

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


def subclass_lifts(source):
    """(line, call) of each ``isinstance`` call in a ``_lift`` that tests for
    more than the scalars (int, Fraction). A ring lifts an element only of
    exactly its own class, with ``type(x) is``: an isinstance would take a
    subclass, such as a polynomial in another variable set, as its own."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name == "_lift":
            found += [(call.lineno, ast.unparse(call)) for call in ast.walk(node)
                      if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                      and call.func.id == "isinstance"
                      and ast.unparse(call.args[1]) != "(int, Fraction)"]
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_ring_lifts_a_subclass(path):
    assert subclass_lifts(path.read_text()) == []


def test_a_subclass_lift_is_found():
    source = ("class A(Ring):\n"
              "    def _lift(self, x):\n"
              "        if isinstance(x, (int, Fraction)):\n"
              "            return self.one() * x\n"
              "        return x if isinstance(x, type(self)) else None\n"
              "class B(Ring):\n"
              "    def _lift(self, x):\n"
              "        return B(x) if isinstance(x, (MultiPoly, int)) else None\n"
              "    def __add__(self, other):\n"
              "        return isinstance(other, B)\n")
    assert subclass_lifts(source) == [(5, "isinstance(x, type(self))"),
                                      (8, "isinstance(x, (MultiPoly, int))")]


def instance_variable_sets(source):
    """(line, what) for each ``__slots__`` that lists ``vars`` or ``weights``
    and each assignment to ``self.vars`` or ``self.weights``. A polynomial's
    variable set is its type: a class attribute, fixed by a subclass."""
    names = {"vars", "weights"}
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__slots__":
                slots = {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
                found += [(node.lineno, f"__slots__ {n}") for n in sorted(slots & names)]
            found += [(node.lineno, ast.unparse(t)) for t in ast.walk(target)
                      if isinstance(t, ast.Attribute) and t.attr in names
                      and isinstance(t.value, ast.Name) and t.value.id == "self"]
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_polynomial_keeps_its_variables_per_instance(path):
    assert instance_variable_sets(path.read_text()) == []


def test_a_per_instance_variable_set_is_found():
    source = ("class A(Ring):\n"
              "    __slots__ = ('vars', 'monos')\n"
              "    def __init__(self, monos, vars):\n"
              "        self.vars = tuple(vars)\n"
              "class B(MultiPoly):\n"
              "    __slots__ = ()\n"
              "    vars = ('a1', 'x')\n"
              "    def __init__(self, other):\n"
              "        self.weights, self.monos = (1, 2), ()\n"
              "        self.vars_seen = other.vars\n"
              "class C:\n"
              "    __slots__ = 'weights'\n"
              "    def f(self):\n"
              "        self.weights: tuple = ()\n")
    assert instance_variable_sets(source) == [
        (2, "__slots__ vars"), (4, "self.vars"), (9, "self.weights"),
        (12, "__slots__ weights"), (14, "self.weights")]
