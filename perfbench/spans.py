"""Outside-in span tracing of uberhom's layers, and the per-layer numbers.

The package itself carries no timers.  `Tracer.install` replaces each layer
function named in LAYERS by a timing wrapper in every uberhom module that
holds a reference to it: the modules import by name (`from .coloured import
horizontal_homology`), so patching only the defining module would miss most
calls.  Functions reached as `f2.x` are covered by patching `uberhom.f2`.

Spans live in flat arrays in entry order (which is also start order in one
thread) and are written out once, after the job's output.  Each span has a
name, start, end and parent index; one file holds one job.  Small helpers
(`vertices_of`, `echelon`, ...) are deliberately not wrapped: a wrapper costs
about a microsecond, which would swamp them; their time counts as self
time of the layer that called them.
"""

from __future__ import annotations

import json
import sys
from array import array
from functools import cached_property
from time import perf_counter

# (module, function) pairs, in the order the per-layer report lists them.
LAYERS = (
    ("cli", "main"), ("cli", "_load"), ("cli", "_render"),
    ("complexes", "read_complex"), ("planar", "parse_plane_graph"),
    ("graphs", "parse_graph6"), ("graphs", "dissimilarity"), ("graphs", "theta"),
    ("graphs", "closed_form_signature"), ("graphs", "matching_complex_of_edges"),
    ("planar", "theorem42_verify"), ("planar", "tait_graph"),
    ("uber", "uber_homology"), ("uber", "d_eta_matrix"),
    ("coloured", "horizontal_homology_with_bases"), ("coloured", "horizontal_homology"),
    ("coloured", "simplicial_homology"),
    ("f2", "homology_at"), ("f2", "kernel_and_image"), ("f2", "rank_of"),
)
LAYER_NAMES = tuple(f"{mod}.{fn}" for mod, fn in LAYERS)
NO_PARENT = -1


class Tracer:
    """Span recorder plus the per-layer counters measured at the same calls."""

    def __init__(self):
        self.name_ids = array("H")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counters = {"f2.rank_of.columns": 0, "f2.rank_of.rank": 0,
                         "f2.kernel_and_image.columns": 0,
                         "uber.d_eta_matrix.columns": 0, "uber.colourings": 0,
                         "coloured.blocks_returned": 0, "coloured.blocks_wanted": 0,
                         "graphs.matching_complex_of_edges.simplices": 0}
        self.distinct = {"graphs.parse_graph6": set(), "graphs.theta": set()}
        self._stack = [NO_PARENT]
        self._wanted = [None]  # bidegrees asked for by the enclosing uber_homology
        self._patched: list = []

    # -- recording --

    def _wrapper(self, name_id: int, fn, before=None, after=None):
        name_ids, parents = self.name_ids, self.parents
        starts, ends, stack = self.starts, self.ends, self._stack

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = len(name_ids)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def _hooks(self, name: str):
        """(before, after) callbacks that feed the counters for one layer."""
        c = self.counters
        if name == "f2.rank_of":
            def before(args, kwargs):
                return (list(args[0]),), kwargs  # count columns of any iterable

            def after(args, kwargs, rank):
                c["f2.rank_of.columns"] += len(args[0])
                c["f2.rank_of.rank"] += rank
            return before, after
        if name == "f2.kernel_and_image":
            def before(args, kwargs):
                return (list(args[0]),), kwargs

            def after(args, kwargs, result):
                c["f2.kernel_and_image.columns"] += len(args[0])
            return before, after
        if name == "uber.d_eta_matrix":
            def after(args, kwargs, matrix):
                c["uber.d_eta_matrix.columns"] += matrix.cols
            return None, after
        if name == "uber.uber_homology":
            def before(args, kwargs):
                X = args[0]
                c["uber.colourings"] += 1 << X.vertex_count
                bidegrees = kwargs.get("bidegrees", args[2] if len(args) > 2 else None)
                self._wanted.append(bidegrees)
                return args, kwargs

            def after(args, kwargs, result):
                self._wanted.pop()
            return before, after
        if name == "coloured.horizontal_homology_with_bases":
            def after(args, kwargs, blocks):
                wanted = self._wanted[-1]
                c["coloured.blocks_returned"] += len(blocks)
                c["coloured.blocks_wanted"] += (len(blocks) if wanted is None else
                                                sum(1 for bg in blocks if bg in wanted))
            return None, after
        if name == "graphs.matching_complex_of_edges":
            def after(args, kwargs, M):
                c["graphs.matching_complex_of_edges.simplices"] += len(M.simplices)
            return None, after
        if name == "graphs.parse_graph6":
            seen = self.distinct[name]

            def after(args, kwargs, G):
                seen.add(args[0])
            return None, after
        if name == "graphs.theta":
            seen = self.distinct[name]

            def after(args, kwargs, level):
                G = args[0]
                seen.add((G.vertex_count, G.edges, args[1]))
            return None, after
        return None, None

    def install(self):
        """Patch every uberhom module that refers to a layer function."""
        import uberhom  # noqa: F401  (loads every submodule)
        mods = {n: m for n, m in sys.modules.items()
                if n == "uberhom" or n.startswith("uberhom.")}
        for name_id, (mod, fn_name) in enumerate(LAYERS):
            original = getattr(sys.modules[f"uberhom.{mod}"], fn_name)
            wrapper = self._wrapper(name_id, original, *self._hooks(f"{mod}.{fn_name}"))
            for module in mods.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- output --

    def write(self, path, job_id: int):
        """One JSON header line, then the span arrays back to back."""
        header = {"job": job_id, "names": list(LAYER_NAMES), "count": len(self.name_ids),
                  "counters": self.counters,
                  "distinct": {k: len(v) for k, v in self.distinct.items()}}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_ids, self.parents, self.starts, self.ends):
                arr.tofile(fh)


class Spans:
    """Spans of one job read back from a file written by Tracer.write."""

    def __init__(self, name_ids, parents, starts, ends, job=0, counters=None,
                 distinct=None):
        self.name_ids, self.parents = name_ids, parents
        self.starts, self.ends = starts, ends
        self.job = job
        self.counters = counters or {}
        self.distinct = distinct or {}

    @classmethod
    def read(cls, path) -> "Spans":
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            if header["names"] != list(LAYER_NAMES):
                raise ValueError(f"{path}: span names do not match this harness")
            n = header["count"]
            arrays = []
            for code in ("H", "i", "d", "d"):
                arr = array(code)
                arr.fromfile(fh, n)
                arrays.append(arr)
        return cls(*arrays, job=header["job"], counters=header["counters"],
                   distinct=header["distinct"])

    @cached_property
    def totals(self) -> dict:
        """{layer name: (calls, self seconds)} for this job."""
        calls = [0] * len(LAYER_NAMES)
        self_s = [0.0] * len(LAYER_NAMES)
        for name_id, t in zip(self.name_ids, self_times(self)):
            calls[name_id] += 1
            self_s[name_id] += t
        return {name: (calls[i], self_s[i]) for i, name in enumerate(LAYER_NAMES)}


def self_times(spans: Spans) -> array:
    """Per span: duration minus the part of it that child spans cover.

    Spans must be in start order, so each parent's children arrive sorted by
    start; overlapping children are merged, and children are clipped to
    their parent's interval.
    """
    n = len(spans.name_ids)
    covered = array("d", bytes(8 * n))
    covered_to = array("d", bytes(8 * n))  # end of the covered union so far
    starts, ends, parents = spans.starts, spans.ends, spans.parents
    for i in range(n):
        p = parents[i]
        if p == NO_PARENT:
            continue
        lo = max(starts[i], starts[p], covered_to[p])
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            covered_to[p] = hi
    return array("d", (ends[i] - starts[i] - covered[i] for i in range(n)))


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer_metrics(all_spans, traced_wall_s: float, untraced_wall_s: float) -> dict:
    """The per-layer metrics of BENCHMARK.json, as {name: (value, unit)}."""
    all_spans = list(all_spans)
    out = {}
    for name in LAYER_NAMES:
        out[f"{name}.calls"] = (sum(s.totals[name][0] for s in all_spans), "count")
        out[f"{name}.self_s"] = (sum(s.totals[name][1] for s in all_spans), "s")
    counters: dict = {}
    distinct: dict = {}
    for spans in all_spans:
        for key, value in spans.counters.items():
            counters[key] = counters.get(key, 0) + value
        for key, value in spans.distinct.items():
            distinct[key] = distinct.get(key, 0) + value
    for key in ("f2.rank_of.columns", "f2.kernel_and_image.columns",
                "uber.d_eta_matrix.columns", "uber.colourings",
                "graphs.matching_complex_of_edges.simplices"):
        out[key] = (counters.get(key, 0), "count")
    out["f2.rank_of.yield"] = (_ratio(counters.get("f2.rank_of.rank", 0),
                                      counters.get("f2.rank_of.columns", 0)), "ratio")
    out["coloured.blocks_wanted_ratio"] = (
        _ratio(counters.get("coloured.blocks_wanted", 0),
               counters.get("coloured.blocks_returned", 0)), "ratio")
    for key in ("graphs.parse_graph6", "graphs.theta"):
        out[f"{key}.reuse"] = (_ratio(distinct.get(key, 0),
                                      out[f"{key}.calls"][0]), "ratio")
    out["trace.overhead_ratio"] = (_ratio(traced_wall_s, untraced_wall_s), "ratio")
    return out

