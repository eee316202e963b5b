"""Per-layer spans of gradix's request path, recorded from outside the package.

install() replaces each public function of the layer modules with a wrapper
that records a span (name, start, end, parent span, request id), both in
the module that defines it and in every gradix module that bound the name
at import.  Counts are read at the same boundary: rows in and out of
np_rref and Echelon.extend, and the `checked` field of returned verdicts.
Generator functions are left alone (their work runs in the caller's frame),
and so is `fields`, whose calls are per scalar.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("jsonio", "algebra", "linalg", "graded", "crossed", "cayley", "laurent")

# the payload parsers, reported together as jsonio.parse
PARSERS = ("parse_algebra", "parse_gradation", "parse_crossed", "parse_laurent",
           "parse_tower", "parse_field", "parse_group")

# (metric, unit, better); "<span>.<stat>" with the stats summarize() gives
PER_LAYER = [
    ("linalg.np_rref.calls", "count", "lower"),
    ("linalg.np_rref.rows_in", "count", "lower"),
    ("linalg.np_rref.rows_kept_frac", "frac", "higher"),
    ("linalg.np_rref.self_s", "s", "lower"),
    ("algebra.simple_under.calls", "count", "lower"),
    ("algebra.simple_under.points_checked", "count", "lower"),
    ("algebra.simple_under.self_s", "s", "lower"),
    ("graded.validate_gradation.calls", "count", "lower"),
    ("graded.validate_gradation.self_s", "s", "lower"),
    ("cayley.cayley_double.calls", "count", "lower"),
    ("cayley.cayley_double.self_s", "s", "lower"),
    ("cayley.doubling_report.calls", "count", "lower"),
    ("cayley.doubling_report.self_s", "s", "lower"),
    ("cayley.star_centers.calls", "count", "lower"),
    ("cayley.star_centers.self_s", "s", "lower"),
    ("algebra.nucleus_and_center.calls", "count", "lower"),
    ("algebra.nucleus_and_center.self_s", "s", "lower"),
    ("algebra.associator_defect.self_s", "s", "lower"),
    ("linalg.kernel.calls", "count", "lower"),
    ("linalg.kernel.self_s", "s", "lower"),
    ("graded.is_graded_simple.points_checked", "count", "lower"),
    ("graded.is_graded_simple.self_s", "s", "lower"),
    ("crossed.validate_crossed_system.self_s", "s", "lower"),
    ("crossed.build_crossed_product.self_s", "s", "lower"),
    ("crossed.crossed_center.self_s", "s", "lower"),
    ("crossed.is_G_simple.self_s", "s", "lower"),
    ("jsonio.parse_request.self_s", "s", "lower"),
    ("jsonio.parse.self_s", "s", "lower"),
    ("jsonio.run_request.self_s", "s", "lower"),
    ("jsonio.render_report.self_s", "s", "lower"),
    ("algebra.make_algebra.self_s", "s", "lower"),
    ("laurent.make_laurent_ring.self_s", "s", "lower"),
    ("laurent.laurent_simplicity_verdict.self_s", "s", "lower"),
    ("laurent.verify_central.self_s", "s", "lower"),
    ("laurent.laurent_center_structure.self_s", "s", "lower"),
    ("linalg.Echelon.extend.calls", "count", "lower"),
    ("linalg.Echelon.extend.rows_in", "count", "lower"),
    ("linalg.Echelon.extend.self_s", "s", "lower"),
    ("algebra.subfield_check.self_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, request]
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.request = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name, fn, counter=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.request])
            stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1], spans[idx][2] = start, end
            if counter is not None:
                counter(counts[name], args, out)
            return out
        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "gradix" or n.startswith("gradix.")]
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"gradix.{layer}"]
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_")
                        and not inspect.isgeneratorfunction(fn)):
                    wrapped[fn] = self._wrap(f"{layer}.{name}", fn,
                                             COUNTERS.get(f"{layer}.{name}"))
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._undo.append((mod, name, value))
                    setattr(mod, name, wrapped[value])
        echelon = sys.modules["gradix.linalg"].Echelon
        extend = echelon.extend
        traced = self._wrap("linalg.Echelon.extend", extend, _count_extend)

        def listed_extend(ech, vectors):    # so the span can count the rows
            return traced(ech, list(vectors))
        self._undo.append((echelon, "extend", extend))
        echelon.extend = listed_extend

    def uninstall(self):
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()

    def summarize(self) -> dict:
        """{span name: {"calls", "self_s", counters...}}; self time is the
        span's duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name]["calls"] += 1
            out[name]["self_s"] += end - start - child[i]
        for name, counts in self.counts.items():
            out[name].update(counts)
        parse = out["jsonio.parse"]
        for p in PARSERS:
            parse["self_s"] += out.get(f"jsonio.{p}", {}).get("self_s", 0.0)
            parse["calls"] += out.get(f"jsonio.{p}", {}).get("calls", 0)
        return dict(out)

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "request"],
                       "spans": self.spans}, fh)


def _count_np_rref(c, args, out):
    c["rows_in"] += len(args[0])
    c["rows_out"] += len(out[0])


def _count_extend(c, args, out):
    c["rows_in"] += len(args[1])


def _count_checked(c, args, out):
    c["points_checked"] += out.checked


COUNTERS = {
    "linalg.np_rref": _count_np_rref,
    "algebra.simple_under": _count_checked,
    "graded.is_graded_simple": _count_checked,
}


def layer_metrics(stats: dict, overhead: float) -> dict:
    """The PER_LAYER metrics from summarize() output."""
    out = {}
    for metric, unit, _ in PER_LAYER:
        if metric == "trace.overhead_frac":
            value = overhead
        elif metric == "linalg.np_rref.rows_kept_frac":
            s = stats.get("linalg.np_rref", {})
            value = s.get("rows_out", 0) / s["rows_in"] if s.get("rows_in") else 0.0
        else:
            span, stat = metric.rsplit(".", 1)
            value = stats.get(span, {}).get(stat, 0)
        out[metric] = {"value": value, "unit": unit}
    return out
