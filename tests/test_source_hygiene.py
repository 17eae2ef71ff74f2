"""Every name an import binds in a ``tmf3`` module is used in that module."""

import ast
from pathlib import Path

import pytest

import tmf3.record

SOURCES = sorted(Path(tmf3.record.__file__).parent.glob("*.py"))


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
