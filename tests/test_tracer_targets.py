"""Every name that `perfbench/tracer.py` wraps or reads exists in tmf3, so
renaming a traced function or cache fails here and not only under the
tracer."""

import importlib.util
from pathlib import Path

import pytest

from tmf3 import verify

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
