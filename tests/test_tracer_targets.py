"""Every name that `perfbench/tracer.py` wraps or reads exists in tmf3, so
renaming a traced function or cache fails here and not only under the
tracer; and tmf3 itself uses each of them, so none stays alive only
because the tracer wraps it."""

import ast
import importlib.util
from pathlib import Path

import pytest

from tmf3 import verify

_ROOT = Path(__file__).resolve().parents[1]
_PATH = _ROOT / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(mod_name, path):
    owner = importlib.import_module(mod_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_span_target_resolves(tracer):
    for mod_name, path, _, _ in tracer.SPANS:
        assert callable(_resolve(mod_name, path)), (mod_name, path)
    spans = {name for _, _, name, _ in tracer.SPANS}
    assert set(tracer.COUNTERS) <= spans
    assert tracer.VERIFY_ITEMS == len(verify.ITEMS)


def test_every_cache_resolves_to_an_lru_cache(tracer):
    for mod_name, attr in tracer.CACHES.values():
        assert hasattr(_resolve(mod_name, attr), "cache_info"), (mod_name, attr)


def _names_read_in_src():
    """The names that src/tmf3 loads (a bare name or an attribute), except
    inside a definition of the same name."""
    read = set()

    def visit(node, defining):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defining = defining | {node.name}
        elif (isinstance(node, (ast.Name, ast.Attribute))
              and isinstance(node.ctx, ast.Load)):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name not in defining:
                read.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    for path in sorted((_ROOT / "src" / "tmf3").glob("*.py")):
        visit(ast.parse(path.read_text()), frozenset())
    return read


def test_every_span_target_is_read_in_src(tracer):
    targets = [path.split(".")[-1] for _, path, _, _ in tracer.SPANS]
    targets += [attr for _, attr in tracer.CACHES.values()]
    read = _names_read_in_src()
    unread = [name for name in targets
              if not name.startswith("__") and name not in read]
    assert not unread
