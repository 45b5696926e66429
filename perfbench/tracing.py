"""Spans around the library's public layer functions, recorded from outside.

The tracer replaces each public layer function at every module attribute
that holds it (``tetrametric.intrinsic.star_unfold``,
``tetrametric.svg.star_unfold``, ``tetrametric.star_unfold``, ...), so calls
the library makes internally are recorded as well as the benchmark's own.
Nothing under ``src/`` is edited; ``uninstall`` puts the originals back.

A span is ``[name, start_ns, end_ns, parent_index, op_id, error_class,
attr]``.  Spans stay in memory until the run ends; ``layer_totals`` derives
self time (duration minus the time covered by direct children) from them.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from collections import Counter, defaultdict

# (module, function) -> layer name.  The module is where the function is
# defined; the tracer finds every other module attribute bound to it.
LAYER_FUNCTIONS = {
    ("geodesics", "geodesic_distance"): "geodesics.search",
    ("geodesics", "all_geodesic_segments"): "geodesics.search",
    ("intrinsic", "star_unfold"): "intrinsic.star_unfold",
    ("intrinsic", "cut_locus"): "intrinsic.cut_locus",
    ("intrinsic", "intrinsic_radius_at"): "intrinsic.radius_at",
    ("intrinsic", "intrinsic_diameter"): "intrinsic.diameter",
    ("intrinsic", "intrinsic_radius"): "intrinsic.radius",
    ("extrinsic", "extrinsic_diameter"): "extrinsic.diameter",
    ("extrinsic", "extrinsic_radius"): "extrinsic.radius",
    ("extrinsic", "extrinsic_radius_at"): "extrinsic.radius_at",
    ("generators", "generate"): "generators",
    ("generators", "make_regular"): "generators",
    ("generators", "make_isosceles"): "generators",
    ("generators", "make_eps_thick"): "generators",
    ("generators", "make_normal_eps_thick"): "generators",
    ("generators", "random_tetrahedron"): "generators",
    ("generators", "normalize"): "generators",
    ("report", "compute_report"): "report.compute",
    ("report", "check_inequalities"): "report.checks",
    ("report", "report_margins"): "report.checks",
}

# layer -> function reading a work count off the layer's return value
LAYER_ATTRS = {
    "intrinsic.radius": lambda result: result.evaluations,
}

OP = "op"
NAME, START, END, PARENT, OP_ID, ERROR, ATTR = range(7)


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []
        self.op_id = None

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter_ns(), 0, parent, self.op_id, None,
                None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[END] = time.perf_counter_ns()
        self._stack.pop()

    def op(self, op_id, fn, *args):
        """Run fn(*args) as the root span of operation op_id."""
        self.op_id = op_id
        span = self._open(OP)
        try:
            return fn(*args)
        finally:
            self._close(span)
            self.op_id = None

    def _wrap(self, name, fn):
        attr = LAYER_ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                self._close(span)
            if attr is not None:
                span[ATTR] = attr(result)
            return result

        traced.__wrapped_layer__ = fn
        return traced

    # -- patching ----------------------------------------------------------

    def install(self):
        """Wrap every layer function at every tetrametric module attribute."""
        if self._patched:
            return
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "tetrametric"
                                         or name.startswith("tetrametric."))]
        for (mod, fname), layer in LAYER_FUNCTIONS.items():
            original = getattr(sys.modules["tetrametric." + mod], fname)
            wrapper = self._wrap(layer, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    # -- output ------------------------------------------------------------

    def write(self, path):
        """Write the spans as gzipped tab-separated rows."""
        with gzip.open(path, "wt") as out:
            out.write("index\tname\tstart_ns\tend_ns\tparent\top\terror"
                      "\tattr\n")
            for i, s in enumerate(self.spans):
                out.write("%d\t%s\t%d\t%d\t%d\t%s\t%s\t%s\n" % (
                    i, s[NAME], s[START], s[END], s[PARENT], s[OP_ID],
                    s[ERROR] or "", "" if s[ATTR] is None else s[ATTR]))


def layer_totals(spans, op_filter=None):
    """Per-layer totals over the spans whose op id passes op_filter.

    Returns {layer: {"calls", "incl_ns", "self_ns", "fail", "attr"}} and a
    Counter of (layer, error class) for failures that originated in that
    layer, i.e. raised by a span none of whose children raised the same
    class.  Inclusive time counts only the outermost span of each layer, so
    a layer calling itself is not counted twice.
    """
    child_ns = [0] * len(spans)
    child_err = [set() for _ in spans]
    for s in spans:
        if s[PARENT] >= 0:
            child_ns[s[PARENT]] += s[END] - s[START]
            if s[ERROR]:
                child_err[s[PARENT]].add(s[ERROR])
    totals = defaultdict(lambda: {"calls": 0, "incl_ns": 0, "self_ns": 0,
                                  "fail": 0, "attr": 0})
    origins = Counter()
    for i, s in enumerate(spans):
        if op_filter is not None and not op_filter(s[OP_ID]):
            continue
        t = totals[s[NAME]]
        dur = s[END] - s[START]
        t["calls"] += 1
        t["self_ns"] += dur - child_ns[i]
        if not _inside_same_layer(spans, i):
            t["incl_ns"] += dur
        if s[ATTR] is not None:
            t["attr"] += s[ATTR]
        if s[ERROR]:
            t["fail"] += 1
            if s[ERROR] not in child_err[i]:
                origins[(s[NAME], s[ERROR])] += 1
    return dict(totals), origins


def _inside_same_layer(spans, i):
    name = spans[i][NAME]
    j = spans[i][PARENT]
    while j >= 0:
        if spans[j][NAME] == name:
            return True
        j = spans[j][PARENT]
    return False
