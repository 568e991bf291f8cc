"""Spans around the public functions of each tamearc layer.

``Tracer.install`` rebinds every module-level binding that *is* one of the
target functions (``poly_gcd`` is bound in ``tamearc``, ``tamearc.poly``,
``tamearc.factor`` and ``tamearc.ksymbols``, among others) and patches class
attributes for methods, aliases such as ``__rmul__ = __mul__`` included.
Nothing under ``src/`` is edited; ``uninstall`` puts every original back.

A span is (layer, start, end, parent span, instance id).  Spans live in
flat arrays while the run lasts and are written out once at the end.
"""

import json
import os
import sys
import time
from array import array

# (layer, module, attribute path).  A dotted path names a method of a class
# defined in that module.
TARGETS = (
    ("poly.gcd", "tamearc.poly", "poly_gcd"),
    ("poly.ratfunc_normalize", "tamearc.poly", "RatFunc.__init__"),
    ("poly.mul", "tamearc.poly", "MultiPoly.__mul__"),
    ("poly.div_exact", "tamearc.poly", "MultiPoly.div_exact"),
    ("poly.resultant", "tamearc.poly", "resultant"),
    ("factor.plane", "tamearc.factor", "factor_plane_curve"),
    ("factor.univariate", "tamearc.factor", "factor_univariate"),
    ("geometry.intersection_cycle", "tamearc.geometry", "intersection_cycle"),
    ("geometry.valuation", "tamearc.geometry", "valuation"),
    ("ksymbols.tame", "tamearc.ksymbols", "tame"),
    ("ksymbols.d_eps", "tamearc.ksymbols", "d_eps"),
    ("tangent.tangent2", "tamearc.tangent", "tangent2"),
    ("tangent.tangent3", "tamearc.tangent", "tangent3"),
    ("tangent.class_of", "tamearc.tangent", "LocalCohClass.of"),
    ("tangent.class_addsub", "tamearc.tangent", "LocalCohClass.__add__"),
    ("tangent.class_addsub", "tamearc.tangent", "LocalCohClass.__sub__"),
    ("tangent.boundary_forms", "tamearc.tangent", "boundary_forms"),
    ("tangent.diagram_check", "tamearc.tangent", "diagram_check"),
    ("gersten.complex_check", "tamearc.gersten", "complex_check_q2"),
    ("expr.parse", "tamearc.expr", "parse_expr"),
    ("cli.main", "tamearc.cli", "main"),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))

_MARK = "__bench_layer__"


def _resolve(module, path):
    """(original function, owning class or None) of one target."""
    mod = sys.modules[module]
    if "." not in path:
        return getattr(mod, path), None
    cls_name, attr = path.split(".")
    cls = getattr(mod, cls_name)
    raw = cls.__dict__[attr]
    return getattr(raw, "__func__", raw), cls


def is_installed():
    """True when any imported target is a span wrapper."""
    return any(module in sys.modules
               and hasattr(_resolve(module, path)[0], _MARK)
               for _, module, path in TARGETS)


class Tracer:
    """Spans of one run: one thread, one stack of open spans."""

    def __init__(self):
        self.layer_ids = {layer: i for i, layer in enumerate(LAYERS)}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.instance_of = array("l")
        self.stack = []
        self.instance = 0
        self.gcd_trivial = 0
        self.max_degree = -1
        self._undo = []

    def _wrap(self, fn, layer):
        lid = self.layer_ids[layer]
        name, start, end = self.name, self.start, self.end
        parent, instance_of, stack = self.parent, self.instance_of, self.stack
        clock = time.perf_counter
        tracer = self

        def span(*args, **kwargs):
            idx = len(name)
            name.append(lid)
            parent.append(stack[-1] if stack else -1)
            instance_of.append(tracer.instance)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        if layer == "poly.gcd":
            timed = span

            def span(a, b):
                if a.is_zero() or b.is_zero() or a.is_const() or b.is_const():
                    tracer.gcd_trivial += 1
                return timed(a, b)
        elif layer == "poly.mul":
            timed = span

            def span(a, b):
                out = timed(a, b)
                if out.terms:
                    tracer.max_degree = max(tracer.max_degree, out.degree())
                return out

        setattr(span, _MARK, layer)
        span.__wrapped__ = fn
        return span

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "tamearc" or key.startswith("tamearc."))]
        for layer, module, path in TARGETS:
            if module not in sys.modules:
                continue
            fn, cls = _resolve(module, path)
            wrapper = self._wrap(fn, layer)
            owners = [cls] if cls is not None else modules
            for owner in owners:
                for key, raw in list(vars(owner).items()):
                    if getattr(raw, "__func__", raw) is fn:
                        self._undo.append((owner, key, raw))
                        setattr(owner, key, classmethod(wrapper)
                                if isinstance(raw, classmethod) else wrapper)

    def uninstall(self):
        for owner, key, raw in reversed(self._undo):
            setattr(owner, key, raw)
        self._undo.clear()

    def layer_metrics(self):
        """calls and self_s per layer, plus the gcd and degree counters.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because there is one stack.
        """
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        own = list(dur)
        for i in range(n):
            if self.parent[i] >= 0:
                own[self.parent[i]] -= dur[i]
        calls = [0] * len(LAYERS)
        self_s = [0.0] * len(LAYERS)
        for i in range(n):
            calls[self.name[i]] += 1
            self_s[self.name[i]] += own[i]
        out = {}
        for layer, lid in self.layer_ids.items():
            out[f"{layer}.calls"] = calls[lid]
            out[f"{layer}.self_s"] = self_s[lid]
        gcd_calls = calls[self.layer_ids["poly.gcd"]]
        out["poly.gcd.trivial_frac"] = self.gcd_trivial / gcd_calls if gcd_calls else 0.0
        out["poly.max_degree"] = max(self.max_degree, 0)
        return out

    def _columns(self):
        return (("layer", self.name), ("start", self.start), ("end", self.end),
                ("parent", self.parent), ("instance", self.instance_of))

    def write(self, path, **extra):
        """One JSON header line, then the five columns as raw arrays."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        header = dict(extra, layers=list(LAYERS), count=len(self.name),
                      columns=[[key, col.typecode] for key, col in self._columns()],
                      gcd_trivial=self.gcd_trivial, max_degree=self.max_degree)
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, col in self._columns():
                col.tofile(fh)

    def absorb(self, path, instance):
        """Append the spans of a file ``write`` made; returns its header."""
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            cols = []
            for _, code in header["columns"]:
                col = array(code)
                col.fromfile(fh, header["count"])
                cols.append(col)
        layer, start, end, parent, _ = cols
        offset = len(self.name)
        ids = [self.layer_ids[key] for key in header["layers"]]
        self.name.extend(ids[i] for i in layer)
        self.start.extend(start)
        self.end.extend(end)
        self.parent.extend(p + offset if p >= 0 else -1 for p in parent)
        self.instance_of.extend([instance] * header["count"])
        self.gcd_trivial += header["gcd_trivial"]
        self.max_degree = max(self.max_degree, header["max_degree"])
        return header
