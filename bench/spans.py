"""Spans around the library's public functions, for the benchmark's traced runs.

The tracer wraps, by name, the functions listed in LAYERS in every `ffsalem`
module namespace that binds them, so `randomsets.intersection_profile` is
attributed to `analysis` just like `analysis.intersection_profile`.
`Class.attr` names are wrapped on the class.  A listed name the library no
longer has is reported in `missing` rather than failing the run.

Each span records its name, layer, start, end, parent span and thread.  A
span opened on a worker thread with nothing open on that thread takes the
innermost open span of the main thread as parent, which is how
`monte_carlo` pool workers are attributed.  Spans stay in memory until
`layer_metrics()` reads them.

Layer times are busy times: each span takes its thread's CPU time
(`time.thread_time`), and a span's self time is that minus the CPU time of
its children on the same thread.  A pool worker waiting for the GIL is
therefore not counted as busy, and self times over all layers add up to at
most the process CPU time.  `randomsets.pool_speedup` (CPU seconds of the
spans under `monte_carlo` over its wall time) reads 1 when the GIL
serialises the workers and 2 when two of them really overlap.

Names in AGGREGATED are hot leaves (weil_poly_sum runs about 89k times per
sweep pass): they get one counter per call instead of a span, and their
time is subtracted from the enclosing span's self time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from collections import defaultdict

LAYERS = {
    "field": (
        "FieldContext.__init__", "FieldContext.coords", "FieldContext.roots",
        "FieldContext.inverse_table", "gauss_sum", "kloosterman", "weil_poly_sum", "legendre",
    ),
    "curves": ("make_curve", "Quadratic.zero_set", "classify_quadratic", "reduce_quadratic"),
    "pointset": (
        "fourier_spectrum", "salem_report", "PointSet.translate", "PointSet.negate",
        "PointSet.is_symmetric",
    ),
    "analysis": (
        "convolve", "edge_count", "intersection_profile", "prune", "build_cube",
        "find_rhombus", "bilinear_form", "triple_count",
    ),
    "shatter": (
        "shatter_search", "vc_bounds", "witness_for_points", "construct_shatter3", "verify_witness",
    ),
    "randomsets": ("monte_carlo", "sample_subset", "hayes_check", "symmetrize"),
    "presets": ("f11_table", "x_tuple_check", "conic_census", "weil_suite"),
    "cli": ("main",),
}

AGGREGATED = frozenset({"gauss_sum", "kloosterman", "weil_poly_sum", "legendre"})

PER_LAYER = (
    ("field.self_s", "s"), ("field.calls", "count"),
    ("curves.self_s", "s"), ("curves.calls", "count"),
    ("pointset.self_s", "s"), ("pointset.fft_s", "s"), ("pointset.fft_calls", "count"),
    ("pointset.fft_cells_per_s", "1/s"),
    ("analysis.self_s", "s"), ("analysis.calls", "count"), ("analysis.cells_per_s", "1/s"),
    ("analysis.share", "ratio"),
    ("shatter.self_s", "s"), ("shatter.calls", "count"), ("shatter.tuples", "count"),
    ("shatter.tuples_per_s", "1/s"), ("shatter.verify_s", "s"),
    ("randomsets.self_s", "s"), ("randomsets.sample_s", "s"), ("randomsets.trials", "count"),
    ("randomsets.pool_speedup", "ratio"),
    ("presets.self_s", "s"),
    ("cli.self_s", "s"), ("cli.output_bytes", "count"),
    ("trace.overhead_frac", "ratio"), ("trace.missing", "count"),
)


class Span:
    __slots__ = ("name", "layer", "start", "end", "cpu", "parent", "thread", "leaf_s", "work")

    def __init__(self, name, layer, parent, thread):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.thread = thread
        self.leaf_s = 0.0
        self.work = 0
        self.cpu = time.thread_time()  # this thread's CPU seconds, made a duration on close
        self.start = time.perf_counter()
        self.end = self.start


def _shape_cells(fn):
    """|S| * q^d for the shape argument S: the cost of one shift-and-add pass."""
    sig = inspect.signature(fn)

    def work(args, kwargs, result):
        S = sig.bind(*args, **kwargs).arguments["S"]
        return S.size * S.context.order

    return work


def _work_hook(layer: str, name: str, fn):
    if layer == "analysis":
        return _shape_cells(fn)
    if name == "fourier_spectrum":
        return lambda args, kwargs, result: args[0].context.order
    if name == "monte_carlo":
        return lambda args, kwargs, result: result.trials
    if layer == "shatter":
        return lambda args, kwargs, result: getattr(getattr(result, "stats", None), "tuples_examined", 0)
    return None


class Tracer:
    def __init__(self):
        self._patches: list = []
        self._stacks: dict = {}
        self._main = threading.main_thread().ident
        self.missing: list = []
        self.spans: list = []
        self._leaves: dict = {}  # (thread, layer) -> [calls, seconds]

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "ffsalem" or n.startswith("ffsalem.")]
        self.missing = []
        for layer, names in LAYERS.items():
            home = sys.modules.get(f"ffsalem.{layer}")
            for name in names:
                if not self._wrap_name(home, modules, layer, name):
                    self.missing.append(f"{layer}.{name}")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _wrap_name(self, home, modules, layer, name) -> bool:
        owner_name, _, attr = name.rpartition(".")
        if owner_name:
            cls = getattr(home, owner_name, None)
            raw = getattr(cls, "__dict__", {}).get(attr)
            if isinstance(raw, functools.cached_property):
                prop = functools.cached_property(self._wrap(raw.func, layer, name))
                prop.__set_name__(cls, attr)
                self._patch(cls, attr, raw, prop)
                return True
            if not inspect.isfunction(raw):
                return False
            self._patch(cls, attr, raw, self._wrap(raw, layer, name))
            return True
        fn = getattr(home, name, None)
        if not inspect.isfunction(fn):
            return False
        wrapped = self._wrap(fn, layer, name)
        for mod in modules:
            if mod.__dict__.get(name) is fn:
                self._patch(mod, name, fn, wrapped)
        return True

    def _patch(self, owner, attr, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def _wrap(self, fn, layer, name):
        tracer = self
        if name in AGGREGATED:
            # inlined bookkeeping: these run ~10^5 times a pass
            clock, ident = time.thread_time, threading.get_ident
            stacks, leaves = self._stacks, self._leaves

            @functools.wraps(fn)
            def leaf(*args, **kwargs):
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    seconds = clock() - start
                    tid = ident()
                    stack = stacks.get(tid)
                    if stack:
                        stack[-1].leaf_s += seconds
                    acc = leaves.get((tid, layer))
                    if acc is None:
                        acc = leaves[(tid, layer)] = [0, 0.0]
                    acc[0] += 1
                    acc[1] += seconds

            return leaf

        hook = _work_hook(layer, name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if hook is not None:
                span.work = hook(args, kwargs, result)
            return result

        return traced

    # -- recording -------------------------------------------------------------------

    def _open(self, name: str, layer: str) -> Span:
        tid = threading.get_ident()
        stack = self._stacks.get(tid)
        if stack is None:
            stack = self._stacks.setdefault(tid, [])
        parent = stack[-1] if stack else None
        if parent is None and tid != self._main:
            main = self._stacks.get(self._main)
            parent = main[-1] if main else None
        span = Span(name, layer, parent, tid)
        stack.append(span)
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.cpu = time.thread_time() - span.cpu
        self._stacks[span.thread].pop()

    def reset(self) -> None:
        self.spans = []
        self._leaves.clear()

    # -- per-layer metrics -----------------------------------------------------------

    def layer_metrics(self, pass_wall: float) -> dict:
        """Per-layer metrics of the spans recorded since the last reset().

        The caller adds cli.output_bytes and the trace.* entries."""
        children = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[id(s.parent)].append(s)
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for (_, layer), (n, secs) in self._leaves.items():
            self_s[layer] += secs
            calls[layer] += n
        by_name = defaultdict(lambda: [0, 0.0, 0])  # calls, inclusive CPU seconds, work
        analysis_cells = 0
        pool_cpu = pool_wall = 0.0
        for s in self.spans:
            nested = sum(c.cpu for c in children[id(s)] if c.thread == s.thread)
            self_s[s.layer] += max(0.0, s.cpu - nested - s.leaf_s)
            calls[s.layer] += 1
            rec = by_name[s.name]
            rec[0] += 1
            rec[1] += s.cpu
            rec[2] += s.work
            if s.layer == "analysis" and (s.parent is None or s.parent.layer != "analysis"):
                analysis_cells += s.work
            if s.name == "monte_carlo":
                pool_cpu += sum(c.cpu for c in children[id(s)])
                pool_wall += s.end - s.start

        def ratio(a, b):
            return a / b if b > 0 else 0.0

        fft_calls, fft_s, fft_cells = by_name["fourier_spectrum"]
        tuples = sum(by_name[n][2] for n in LAYERS["shatter"])
        trials = by_name["monte_carlo"][2]
        return {
            "field.self_s": self_s["field"],
            "field.calls": calls["field"],
            "curves.self_s": self_s["curves"],
            "curves.calls": calls["curves"],
            "pointset.self_s": self_s["pointset"],
            "pointset.fft_s": fft_s,
            "pointset.fft_calls": fft_calls,
            "pointset.fft_cells_per_s": ratio(fft_cells, fft_s),
            "analysis.self_s": self_s["analysis"],
            "analysis.calls": calls["analysis"],
            "analysis.cells_per_s": ratio(analysis_cells, self_s["analysis"]),
            "analysis.share": ratio(self_s["analysis"], pass_wall),
            "shatter.self_s": self_s["shatter"],
            "shatter.calls": calls["shatter"],
            "shatter.tuples": tuples,
            "shatter.tuples_per_s": ratio(tuples, self_s["shatter"]),
            "shatter.verify_s": by_name["verify_witness"][1],
            "randomsets.self_s": self_s["randomsets"],
            "randomsets.sample_s": by_name["sample_subset"][1],
            "randomsets.trials": trials,
            "randomsets.pool_speedup": ratio(pool_cpu, pool_wall),
            "presets.self_s": self_s["presets"],
            "cli.self_s": self_s["cli"],
        }
