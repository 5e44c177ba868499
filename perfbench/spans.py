"""Spans around the public functions of each twistell module, recorded from outside.

`Tracer.install` replaces every binding of a public function of the six
layer modules, in every twistell module and in the package itself, with a
wrapper that records one span per call: function, start, end, parent span,
item id and whether it raised. The library imports many functions by name,
so wrapping only the defining module would miss calls made through those
other bindings. `uninstall` puts the original objects back. Spans stay in
memory; `layer_metrics` turns them into per-layer figures.

A span's self time is its duration minus the time its child spans cover,
so the self times of all spans add up to the time spent inside item spans.
"""

from __future__ import annotations

import importlib
import time

LAYERS = ("numeric", "classical", "twisted", "fermion", "identities", "cli")
ITEM = "bench.item"
# functions whose argument tuples are recorded, keyed by the arguments that
# determine the value (everything but the truncation config)
KEYED = {"twisted.twisted_pk": 4}


class Tracer:
    def __init__(self):
        self.package = importlib.import_module("twistell")
        self.modules = [importlib.import_module(f"twistell.{m}") for m in LAYERS]
        self.names: list[str] = [ITEM]
        self.spans: list[list] = []    # [name id, start, end, parent, item, raised]
        self.keys: dict[str, list] = {name: [] for name in KEYED}
        self._stack = [-1]
        self._item = -1
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fid: int, fn, keyed: list | None, nargs: int):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if keyed is not None:
                keyed.append((args[:nargs],
                              tuple(sorted((k, v) for k, v in kwargs.items() if k != "cfg"))))
            rec = [fid, 0.0, 0.0, stack[-1], self._item, False]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        layer_modules = {f"twistell.{m}" for m in LAYERS}
        wrappers: dict[int, object] = {}
        for mod in [self.package] + self.modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                owner = getattr(obj, "__module__", None)
                if owner not in layer_modules:
                    continue
                if id(obj) not in wrappers:
                    name = f"{owner.rsplit('.', 1)[1]}.{obj.__name__}"
                    self.names.append(name)
                    nargs = KEYED.get(name)
                    keyed = self.keys[name] if nargs else None
                    wrappers[id(obj)] = self._wrap(len(self.names) - 1, obj, keyed, nargs or 0)
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    def item(self, item_id: int, call):
        """Run call() inside a root span for one benchmark item."""
        self._item = item_id
        rec = [0, 0.0, 0.0, -1, item_id, False]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            return call()
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
            self._item = -1


def self_times(spans: list[list]) -> list[float]:
    """Per span: duration minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            covered[s[3]] += s[2] - s[1]
    return [s[2] - s[1] - c for s, c in zip(spans, covered)]


def layer_metrics(tracer: Tracer, items: int, cache_hits: dict[str, tuple[int, int]],
                  wall_s: float) -> dict[str, float]:
    """Per-layer figures for one traced pass of `items` benchmark items.

    cache_hits maps a cached function's name to its (hits, misses) during
    the pass; wall_s is the pass's traced wall time.
    """
    spans, names = tracer.spans, tracer.names
    selfs = self_times(spans)
    by_fn_calls: dict[str, int] = {}
    by_fn_self: dict[str, float] = {}
    by_layer = {layer: [0, 0.0, 0] for layer in LAYERS + ("bench",)}
    for s, own in zip(spans, selfs):
        name = names[s[0]]
        by_fn_calls[name] = by_fn_calls.get(name, 0) + 1
        by_fn_self[name] = by_fn_self.get(name, 0.0) + own
        agg = by_layer[name.split(".", 1)[0]]
        agg[0] += 1
        agg[1] += own
        agg[2] += s[5]
    out: dict[str, float] = {}
    for layer in LAYERS:
        calls, own, failed = by_layer[layer]
        out[f"{layer}.calls"] = calls
        out[f"{layer}.self_s"] = own
        out[f"{layer}.failed"] = failed
    out["bench.self_s"] = by_layer["bench"][1]
    for name in ("numeric.pfaffian", "numeric.determinant", "classical.eisenstein",
                 "classical.p0", "classical.theta_char", "twisted.twisted_pk",
                 "twisted.twisted_eisenstein"):
        out[f"{name}.self_s"] = by_fn_self.get(name, 0.0)
    out["numeric.pfaffian_pair_sum.calls"] = by_fn_calls.get("numeric.pfaffian_pair_sum", 0)
    out["twisted.oracle.self_s"] = (by_fn_self.get("twisted.twisted_pk_oracle", 0.0)
                                    + by_fn_self.get("twisted.twisted_eisenstein_oracle", 0.0))
    for name, (hits, misses) in cache_hits.items():
        out[f"{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    pk_calls = by_fn_calls.get("twisted.twisted_pk", 0)
    pk_keys = tracer.keys["twisted.twisted_pk"]
    out["twisted.twisted_pk.calls"] = pk_calls
    out["twisted.twisted_pk.calls_per_item"] = pk_calls / items
    out["twisted.twisted_pk.distinct_ratio"] = len(set(pk_keys)) / len(pk_keys) if pk_keys else 0.0
    out["trace.accounted_frac"] = sum(selfs) / wall_s
    return out
