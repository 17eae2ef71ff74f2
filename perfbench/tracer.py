"""Per-layer tracing for the tmf3 benchmark, applied from outside the package.

Run as a script, this module installs an import hook, then calls
``tmf3.cli.main`` with the remaining arguments, exactly as the ``tmf3``
console script would:

    PYTHONPATH=src python3 perfbench/tracer.py chart --page E4 --json

Each tmf3 module is instrumented right after it executes, before any other
module can copy names out of it. So ``from .multipoly import mod2`` in
``levelmaps`` and the function-level imports in ``verify`` bind the
wrapper. Methods are wrapped on their class, under every attribute that
binds them (``__rmul__ = __mul__`` included). A span records calls, total
time and self time (total minus the time of wrapped spans called inside it).
Recursive calls of one span add to ``calls`` and ``self`` but only the
outermost call adds to ``total``.

At exit one line ``perfbench-trace <json>`` goes to stderr, after the
program's own stderr: span aggregates, module import times, the hit and miss
counts of the level-map ``lru_cache``s and the tmf3 modules loaded. The
program's stdout is untouched, so the benchmark checks it as usual.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import json
import sys
import time

REPORT_PREFIX = "perfbench-trace "

# (module, attribute path, span name, reported stats). The span name is the
# module's short name plus the function, with dunder methods named by their
# operator. Stats: calls, total_s, self_s and the counters below.
SPANS = [
    ("tmf3.rationals", "bernoulli", "rationals.bernoulli", ("calls", "self_s")),
    ("tmf3.rationals", "sigma_pow", "rationals.sigma_pow", ("calls", "self_s")),
    ("tmf3.rationals", "val_p_int", "rationals.val_p_int", ("calls", "self_s")),
    ("tmf3.multipoly", "MultiPoly.__mul__", "multipoly.MultiPoly.mul",
     ("calls", "self_s", "terms_out")),
    ("tmf3.multipoly", "MultiPoly.__pow__", "multipoly.MultiPoly.pow", ("calls", "total_s")),
    ("tmf3.multipoly", "divide_exact", "multipoly.divide_exact",
     ("calls", "self_s", "none_frac")),
    ("tmf3.multipoly", "LocElem.__init__", "multipoly.LocElem.init", ("calls", "total_s")),
    ("tmf3.multipoly", "LocElem.__add__", "multipoly.LocElem.add", ("calls", "total_s")),
    ("tmf3.multipoly", "GF2Poly.__mul__", "multipoly.GF2Poly.mul", ("calls", "self_s")),
    ("tmf3.weierstrass", "WCurve.smul", "weierstrass.WCurve.smul", ("calls", "total_s")),
    ("tmf3.weierstrass", "gamma1_normalize", "weierstrass.gamma1_normalize",
     ("calls", "total_s")),
    ("tmf3.weierstrass", "is_flex", "weierstrass.is_flex", ("calls",)),
    ("tmf3.levelmaps", "fstar", "levelmaps.fstar", ("calls", "total_s")),
    ("tmf3.levelmaps", "qstar", "levelmaps.qstar", ("calls", "total_s")),
    ("tmf3.levelmaps", "tstar", "levelmaps.tstar", ("calls", "total_s")),
    ("tmf3.levelmaps", "cochain_D1", "levelmaps.cochain_D1", ("calls", "total_s")),
    ("tmf3.levelmaps", "val2_delta_c4pow", "levelmaps.val2_delta_c4pow", ("total_s",)),
    ("tmf3.levelmaps", "val_delta_c4c6", "levelmaps.val_delta_c4c6", ("total_s",)),
    ("tmf3.levelmaps", "delta_mod2_Delta_pow", "levelmaps.delta_mod2_Delta_pow",
     ("total_s",)),
    ("tmf3.levelmaps", "lemma_binomial_check", "levelmaps.lemma_binomial_check",
     ("total_s",)),
    ("tmf3.qexp", "QSeries.__mul__", "qexp.QSeries.mul", ("calls", "self_s")),
    ("tmf3.qexp", "QSeries.__pow__", "qexp.QSeries.pow", ("calls",)),
    ("tmf3.qexp", "series_delta", "qexp.series_delta", ("calls", "total_s")),
    ("tmf3.qexp", "eisenstein_in_c4c6", "qexp.eisenstein_in_c4c6", ("calls", "total_s")),
    ("tmf3.qexp", "e_alpha", "qexp.e_alpha", ("total_s",)),
    ("tmf3.funfield", "verify_isogeny", "funfield.verify_isogeny", ("total_s",)),
    ("tmf3.funfield", "sigma_pullback", "funfield.sigma_pullback", ("calls", "total_s")),
    ("tmf3.funfield", "FFElem.__mul__", "funfield.FFElem.mul", ("calls", "self_s")),
    ("tmf3.funfield", "FFElem.inv", "funfield.FFElem.inv", ("calls", "total_s")),
    ("tmf3.sseq", "build_E2", "sseq.build_E2", ("total_s",)),
    ("tmf3.sseq", "apply_d3", "sseq.apply_d3", ("total_s",)),
    ("tmf3.sseq", "localize_stabilize", "sseq.localize_stabilize", ("total_s",)),
    ("tmf3.sseq", "e7_model_and_d7", "sseq.e7_model_and_d7", ("total_s",)),
    ("tmf3.sseq", "pi_table", "sseq.pi_table", ("total_s",)),
    ("tmf3.sseq", "kernel_f2", "sseq.kernel_f2", ("calls", "self_s")),
    ("tmf3.sseq", "row_space_f2", "sseq.row_space_f2", ("calls", "self_s")),
    ("tmf3.sseq", "in_span_f2", "sseq.in_span_f2", ("calls",)),
    ("tmf3.cli", "parse", "cli.parse", ("calls", "total_s")),
    ("tmf3.cli", "evaluate", "cli.evaluate", ("calls", "total_s")),
]

# The nine items of `verify.ITEMS`, wrapped as verify.item1 ... verify.item9.
VERIFY_ITEMS = 9

# Size counters kept beside a span: span name -> (counter, result -> amount).
COUNTERS = {
    "multipoly.MultiPoly.mul": ("terms_out", lambda r: len(r.terms)),
    "multipoly.divide_exact": ("none", lambda r: r is None),
    "sseq.build_E2": ("cells", lambda r: len(r.cells)),
}

# lru_caches read at exit: name -> (module, attribute).
CACHES = {
    "cached_pow": ("tmf3.levelmaps", "_cached_pow"),
    "tpow": ("tmf3.levelmaps", "_tpow_cached"),
}


class Tracer:
    """Span aggregates for one process, kept in memory until `report`."""

    def __init__(self):
        self.spans = {}       # name -> {"calls", "total", "self", "active", counter...}
        self.imports = {}     # module name -> seconds spent executing it
        self._stack = []      # child time accumulated by each open span
        self._wrapped = {}    # id(original) -> wrapper, which keeps it alive

    def wrap(self, fn, name):
        agg = self.spans.setdefault(name, {"calls": 0, "total": 0.0,
                                           "self": 0.0, "active": 0})
        counter = COUNTERS.get(name)
        if counter:
            agg[counter[0]] = 0
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            agg["active"] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                agg["active"] -= 1
                agg["calls"] += 1
                agg["self"] += dt - child
                if not agg["active"]:
                    agg["total"] += dt
            if counter:
                agg[counter[0]] += counter[1](result)
            return result

        self._wrapped[id(fn)] = span
        return span

    def instrument(self, module):
        """Wrap the spans `module` defines, then rebind every attribute of
        the loaded tmf3 modules (and their classes and lists) that still
        binds an original."""
        for mod_name, path, name, _ in SPANS:
            if mod_name != module.__name__:
                continue
            owner = module
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            self.wrap(getattr(owner, attr), name)
        if module.__name__ == "tmf3.verify":
            for i, item in enumerate(module.ITEMS, start=1):
                self.wrap(item, f"verify.item{i}")
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("tmf3."):
                self._rebind(vars(mod))

    def _rebind(self, namespace):
        wrapped = self._wrapped
        for key, value in list(namespace.items()):
            if id(value) in wrapped:
                namespace[key] = wrapped[id(value)]
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    if id(item) in wrapped:
                        value[i] = wrapped[id(item)]
            elif isinstance(value, type) and value.__module__.startswith("tmf3."):
                for attr, member in list(vars(value).items()):
                    if id(member) in wrapped:
                        setattr(value, attr, wrapped[id(member)])

    def report(self):
        caches = {}
        for name, (mod_name, attr) in CACHES.items():
            mod = sys.modules.get(mod_name)
            if mod is not None:
                info = getattr(mod, attr).cache_info()
                caches[name] = [info.hits, info.misses]
        spans = {name: {k: v for k, v in agg.items() if k != "active"}
                 for name, agg in self.spans.items()}
        modules = sorted(m for m in sys.modules if m.startswith("tmf3."))
        return {"spans": spans, "imports": self.imports, "caches": caches,
                "modules": modules}


class _InstrumentingFinder(importlib.abc.MetaPathFinder):
    """Finds tmf3 submodules as usual and instruments each one right after
    it executes, timing the execution for the import metrics."""

    def __init__(self, tracer):
        self.tracer = tracer

    def find_spec(self, name, path, target=None):
        if not name.startswith("tmf3."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path, target)
        if spec is None or spec.loader is None:
            return spec
        execute = spec.loader.exec_module
        tracer = self.tracer

        def exec_module(module):
            t0 = time.perf_counter()
            execute(module)
            tracer.imports[name] = time.perf_counter() - t0
            tracer.instrument(module)

        spec.loader.exec_module = exec_module
        return spec


def main(argv):
    tracer = Tracer()
    sys.meta_path.insert(0, _InstrumentingFinder(tracer))
    try:
        from tmf3.cli import main as tmf3_main
        return tmf3_main(argv)
    finally:
        sys.stdout.flush()
        print(REPORT_PREFIX + json.dumps(tracer.report()), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
