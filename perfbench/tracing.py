"""Span tracer for the traced benchmark run.

``Tracer.install`` wraps every module-level function of each
``gsp4weights`` module at every binding (the defining module and each
``from .x import y`` alias), the arithmetic methods of ``LaurentPoly`` and
``PolyMat``, and ``WeightGraph.neighbors``.  Each call records a span
``(name, start_ns, end_ns, parent, outermost)``: ``parent`` indexes the
caller's span in the same op (-1 for the benchmark's own op code), and
``outermost`` is false for a recursive call nested in a span of the same
name.  Spans are folded into per-name and per-layer totals when each op
ends; the first ``KEEP_SPANS`` of them stay in memory and are written out
with the totals when the run ends.

A layer is a module of the package; a span's layer is the module that
defines the function.  Layer self time is the time in which the innermost
open span belongs to the layer: each span's duration minus the durations
of its direct children, summed over the layer's spans.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

PACKAGE = "gsp4weights"
KEEP_SPANS = 200_000  # spans kept in memory and written out with the totals

# class methods wrapped in addition to module-level functions
CLASS_METHODS = {
    "exactalg": {
        "LaurentPoly": ("__init__", "__add__", "__neg__", "__sub__", "__rsub__",
                        "__mul__", "__pow__", "scale", "shift", "derivative",
                        "truncate", "evaluate"),
        "RatFunc": ("__init__", "__add__", "__neg__", "__sub__", "__rsub__",
                    "__mul__", "__truediv__", "__rtruediv__"),
    },
    "localmodel": {
        "PolyMat": ("__init__", "__mul__", "__rmul__", "__add__", "__sub__",
                    "transpose", "det", "adjugate", "derivative",
                    "inverse_unit_det"),
    },
    "adjacency": {"WeightGraph": ("neighbors", "components")},
}


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def fold_spans(spans, names) -> dict:
    """Totals of one op's spans.

    Returns ``{"calls": {name: n}, "incl_ns": {name: ns},
    "self_ns": {layer: ns}}``, where ``incl_ns`` sums only outermost spans
    of each name, so recursion is not counted twice.
    """
    child_ns = [0] * len(spans)
    for nid, t0, t1, parent, outer in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    calls: dict[str, int] = defaultdict(int)
    incl: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    for i, (nid, t0, t1, parent, outer) in enumerate(spans):
        name = names[nid]
        calls[name] += 1
        if outer:
            incl[name] += t1 - t0
        self_ns[layer_of(name)] += (t1 - t0) - child_ns[i]
    return {"calls": dict(calls), "incl_ns": dict(incl), "self_ns": dict(self_ns)}


def merge_totals(acc: dict, part: dict) -> None:
    for key, table in part.items():
        dst = acc.setdefault(key, {})
        for k, v in table.items():
            dst[k] = dst.get(k, 0) + v


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_ids: list[int] = []
        self.layers: list[str] = []
        self.spans: list[tuple] = []
        self.kept: list[tuple] = []
        self.errors: dict[str, int] = defaultdict(int)
        self.totals: dict = {}
        self.op_id = 0
        self._stack = [-1]
        self._layer_stack = [-1]
        self._active: list[int] = []
        self.bindings = 0

    # -- recording

    def _name_id(self, name: str) -> int:
        nid = len(self.names)
        self.names.append(name)
        self._active.append(0)
        layer = layer_of(name)
        if layer not in self.layers:
            self.layers.append(layer)
        self.layer_ids.append(self.layers.index(layer))
        return nid

    def wrap(self, fn, name: str):
        nid = self._name_id(name)
        lid = self.layer_ids[nid]
        public = not name.rsplit(".", 1)[1].startswith("_") or name.endswith("__")
        spans, stack, layer_stack, active = self.spans, self._stack, self._layer_stack, self._active
        clock = time.perf_counter_ns
        errors, layers = self.errors, self.layers

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            outer = active[nid] == 0
            active[nid] += 1
            parent = stack[-1]
            stack.append(idx)
            layer_stack.append(lid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                if public and layer_stack[-2] != lid:
                    errors[layers[lid]] += 1
                raise
            finally:
                t1 = clock()
                layer_stack.pop()
                stack.pop()
                active[nid] -= 1
                spans[idx] = (nid, t0, t1, parent, outer)

        traced.__wrapped_by_tracer__ = True
        return traced

    def end_op(self) -> None:
        """Fold the spans of the op that just finished into the totals."""
        merge_totals(self.totals, fold_spans(self.spans, self.names))
        room = KEEP_SPANS - len(self.kept)
        if room > 0:
            self.kept.extend((self.op_id,) + s for s in self.spans[:room])
        self.spans.clear()
        self.op_id += 1

    def discard(self) -> None:
        """Drop the spans recorded since the last ``end_op``: those of the
        benchmark's own output check, which is not part of any op."""
        self.spans.clear()

    # -- installation

    def install(self, modules) -> int:
        """Wrap every package function bound at module level in ``modules``
        (module objects of the package), plus CLASS_METHODS."""
        wrapped: dict[int, object] = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if not _is_package_function(obj):
                    continue
                if id(obj) not in wrapped:
                    home = obj.__module__.rsplit(".", 1)[1]
                    wrapped[id(obj)] = self.wrap(obj, "%s.%s" % (home, obj.__name__))
                setattr(mod, attr, wrapped[id(obj)])
                self.bindings += 1
            for cls_name, methods in CLASS_METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    fn = cls.__dict__.get(meth)
                    if fn is None:
                        continue
                    setattr(cls, meth, self.wrap(fn, "%s.%s.%s" % (short, cls_name, meth)))
                    self.bindings += 1
        return self.bindings


def _is_package_function(obj) -> bool:
    if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
        return False
    if getattr(obj, "__wrapped_by_tracer__", False):
        return False
    return getattr(obj, "__module__", "").startswith(PACKAGE + ".")


def find_caches(modules) -> dict:
    """Every lru_cache and every module-level ``*_CACHE`` dict of the
    package, keyed by layer.name.  Call before ``Tracer.install``, which
    hides the lru_cache objects behind wrappers."""
    out = {}
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[1]
        for attr, obj in vars(mod).items():
            if hasattr(obj, "cache_info") and obj.__module__ == mod.__name__:
                out["%s.%s" % (short, attr)] = obj
            elif attr.endswith("_CACHE") and isinstance(obj, dict):
                out["%s.%s" % (short, attr)] = obj
    return out


def cache_snapshot(caches: dict) -> dict:
    out = {}
    for key, obj in caches.items():
        if isinstance(obj, dict):
            out[key] = {"size": len(obj)}
        else:
            ci = obj.cache_info()
            out[key] = {"hits": ci.hits, "misses": ci.misses, "size": ci.currsize}
    return out
