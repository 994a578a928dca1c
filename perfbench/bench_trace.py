"""Outside-in tracing: spans around the public functions of each layer.

`Patched` rebinds every module attribute of `crossnum.*` that refers to a
traced function (so `crossnum.pipeline.enumerate_embeddings`, bound by
`from .enumeration import ...`, is covered as well as
`crossnum.enumeration.enumerate_embeddings`), and puts everything back on
exit.  Spans are kept in memory as parallel arrays (name, start, end,
parent, instance id); self time is each span's duration minus the time
covered by its direct children.  For generator functions every `next()` is
its own span, so the consumer's work between items is not charged to the
producer.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
from array import array
from time import perf_counter
from types import FunctionType

LAYERS = ("graphs", "enumeration", "embedding", "drawing", "iqp", "geometry",
          "pipeline", "oracle")

# Helpers called once per router step or per face; a span there would cost
# more than the work, so their time stays in the caller's self time.
PER_STEP_HELPERS = {
    "embedding": {"vnode", "xnode"},
    "enumeration": {"rotations", "cyclic_orders", "mask_members"},
    "drawing": {"zee", "canonical_cycle"},
}
EMB_METHODS = ("dart_face_map", "copy", "insert_edge", "euler_ok")


def traced_functions():
    """(qualified span name, owner, attribute) for every traced function."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"crossnum.{layer}")
        skip = PER_STEP_HELPERS.get(layer, set())
        for name, fn in vars(mod).items():
            if (isinstance(fn, FunctionType) and not name.startswith("_")
                    and fn.__module__ == mod.__name__ and name not in skip):
                out.append((f"{layer}.{name}", mod, name))
    emb = importlib.import_module("crossnum.embedding").Emb
    out += [(f"embedding.Emb.{m}", emb, m) for m in EMB_METHODS
            if m in vars(emb)]
    return out


class Tracer:
    """Span store plus per-name aggregates, filled by the wrappers."""

    def __init__(self, names):
        self.names = list(names)
        self.instance = 0
        self.reset()

    def reset(self):
        n = len(self.names)
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_instance = array("H")
        self._stack = []  # [span index, time covered by direct children]
        self._depth = [0] * n
        self.calls = [0] * n  # spans (for generators: next() calls)
        self.starts = [0] * n  # generator objects created
        self.yields = [0] * n  # items produced by generators
        self.incl = [0.0] * n  # outermost spans only, so recursion counts once
        self.self_time = [0.0] * n

    def enter(self, nid):
        stack = self._stack
        self.span_name.append(nid)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_instance.append(self.instance)
        self.span_end.append(0.0)
        stack.append([len(self.span_start), 0.0])
        self._depth[nid] += 1
        self.span_start.append(perf_counter())

    def exit(self):
        t = perf_counter()
        i, child = self._stack.pop()
        self.span_end[i] = t
        nid = self.span_name[i]
        dur = t - self.span_start[i]
        self.calls[nid] += 1
        self.self_time[nid] += dur - child
        self._depth[nid] -= 1
        if not self._depth[nid]:
            self.incl[nid] += dur
        if self._stack:
            self._stack[-1][1] += dur

    def summary(self) -> dict:
        """Aggregates of the spans recorded since the last reset."""
        return {
            name: {"calls": self.calls[i], "starts": self.starts[i],
                   "yields": self.yields[i], "incl": self.incl[i],
                   "self": self.self_time[i]}
            for i, name in enumerate(self.names)
        }

    def write(self, path):
        """All spans, one per line: name, start, end, parent, instance."""
        t0 = self.span_start[0] if self.span_start else 0.0
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tstart_us\tend_us\tparent\tinstance\n")
            fh.writelines(
                f"{i}\t{names[n]}\t{(s - t0) * 1e6:.1f}\t{(e - t0) * 1e6:.1f}"
                f"\t{p}\t{k}\n"
                for i, (n, s, e, p, k) in enumerate(zip(
                    self.span_name, self.span_start, self.span_end,
                    self.span_parent, self.span_instance))
            )


class _StepSpans:
    """Iterator proxy: one span per next() of the wrapped generator."""

    __slots__ = ("_it", "_nid", "_tracer")

    def __init__(self, it, nid, tracer):
        self._it, self._nid, self._tracer = it, nid, tracer

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        tracer.enter(self._nid)
        try:
            item = next(self._it)
        finally:
            tracer.exit()
        tracer.yields[self._nid] += 1
        return item


def _wrap(fn, nid, tracer):
    if inspect.isgeneratorfunction(fn):
        def traced(*args, **kwargs):
            tracer.starts[nid] += 1
            return _StepSpans(fn(*args, **kwargs), nid, tracer)
    else:
        def traced(*args, **kwargs):
            tracer.enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()
    return functools.update_wrapper(traced, fn)


class Patched:
    """Context manager installing the wrappers on every binding site."""

    def __init__(self):
        self.targets = traced_functions()
        self.tracer = Tracer(name for name, _, _ in self.targets)
        self.undo = []  # (owner, attribute, original)

    def __enter__(self):
        wrappers = {}
        for nid, (_, owner, attr) in enumerate(self.targets):
            fn = getattr(owner, attr)
            wrappers[id(fn)] = (fn, _wrap(fn, nid, self.tracer))
        owners = [m for name, m in sorted(sys.modules.items())
                  if name == "crossnum" or name.startswith("crossnum.")]
        owners.append(importlib.import_module("crossnum.embedding").Emb)
        for owner in owners:
            for attr, val in list(vars(owner).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self.undo.append((owner, attr, val))
                    setattr(owner, attr, hit[1])
        return self.tracer

    def __exit__(self, *exc):
        for owner, attr, val in reversed(self.undo):
            setattr(owner, attr, val)
        return False

    def restored(self) -> bool:
        return all(vars(o)[a] is v for o, a, v in self.undo)


# ---------------------------------------------------------------------------
# per-layer metrics


def _get(s, name, key):
    """A function that no longer exists reads as never called."""
    return s.get(name, {}).get(key, 0)


def layer_metrics(s: dict, rep_set_counts, clusterings_seen, components,
                  probe_failures):
    """Per-layer metrics of one traced pass.  `X_s` is inclusive time,
    `X_self_s` self time; counts are exact."""
    def incl(n):
        return _get(s, n, "incl")

    def calls(n):
        return _get(s, n, "calls")

    emitted = _get(s, "enumeration.enumerate_embeddings", "yields")
    competitive = calls("drawing.structural_key") - components
    rep_sets = len(rep_set_counts)
    m = {
        "graphs.parse_s": (incl("graphs.parse_compressed")
                           + incl("graphs.parse_edge_list"), "s"),
        "graphs.find_vertex_cover_s": (incl("graphs.find_vertex_cover"), "s"),
        "graphs.find_vertex_cover_calls": (calls("graphs.find_vertex_cover"), "count"),
        "graphs.compress_s": (incl("graphs.compress"), "s"),
        "enumeration.rep_sets": (rep_sets, "count"),
        "enumeration.rep_sets_productive": (
            sum(1 for c in rep_set_counts if c) / rep_sets if rep_sets else 0.0,
            "ratio"),
        "enumeration.router_self_s": (
            _get(s, "enumeration.enumerate_embeddings", "self"), "s"),
        "enumeration.router_emitted": (emitted, "count"),
        "enumeration.clustering_from_emb_s": (
            incl("enumeration.clustering_from_emb"), "s"),
        "enumeration.clustering_from_emb_calls": (
            calls("enumeration.clustering_from_emb"), "count"),
    }
    for meth in EMB_METHODS:
        name = f"embedding.Emb.{meth}"
        m[f"embedding.{meth}_calls"] = (calls(name), "count")
        m[f"embedding.{meth}_s"] = (incl(name), "s")
    m.update({
        "drawing.structural_key_calls": (calls("drawing.structural_key"), "count"),
        "drawing.structural_key_s": (incl("drawing.structural_key"), "s"),
        "drawing.validate_good_s": (incl("drawing.validate_good"), "s"),
        "drawing.crossing_count_s": (incl("drawing.crossing_count"), "s"),
        "iqp.solve_iqp_calls": (calls("iqp.solve_iqp"), "count"),
        "iqp.solve_iqp_s": (incl("iqp.solve_iqp"), "s"),
        "iqp.solve_iqp_self_s": (_get(s, "iqp.solve_iqp", "self"), "s"),
        "iqp.enumerated_solves": (_get(s, "iqp.feasible_points", "starts"), "count"),
        "iqp.objective_calls": (calls("iqp.objective"), "count"),
        "iqp.build_iqp_calls": (calls("iqp.build_iqp"), "count"),
        "iqp.build_iqp_s": (incl("iqp.build_iqp"), "s"),
        "iqp.cap_probe_failures": (probe_failures, "count"),
        "geometry.convex_position_drawing_s": (
            incl("geometry.convex_position_drawing"), "s"),
        "pipeline.crossing_number_s": (incl("pipeline.crossing_number"), "s"),
        "pipeline.crossing_number_self_s": (
            _get(s, "pipeline.crossing_number", "self"), "s"),
        "pipeline.clusterings_seen": (clusterings_seen, "count"),
        "pipeline.competitive_share": (
            competitive / clusterings_seen if clusterings_seen else 0.0, "ratio"),
        "pipeline.assemble_lifted_s": (incl("pipeline.assemble_lifted"), "s"),
        "pipeline.assemble_lifted_self_s": (
            _get(s, "pipeline.assemble_lifted", "self"), "s"),
        "pipeline.lift_self_s": (_get(s, "pipeline.lift", "self"), "s"),
        "pipeline.duplicate_star_calls": (calls("pipeline.duplicate_star"), "count"),
        "pipeline.verify_s": (incl("pipeline.verify"), "s"),
        "oracle.oracle_cr_calls": (calls("oracle.oracle_cr"), "count"),
        "oracle.oracle_cr_s": (incl("oracle.oracle_cr"), "s"),
    })
    return m


def count_signature(s: dict) -> dict:
    """The deterministic part of a summary: every call, start and yield count."""
    return {n: (v["calls"], v["starts"], v["yields"]) for n, v in s.items()}


def self_time_ranking(s: dict, top: int = 8):
    total = sum(v["self"] for v in s.values())
    ranked = sorted(s.items(), key=lambda kv: -kv[1]["self"])[:top]
    return [(n, v["self"], v["self"] / total if total else 0.0, v["calls"])
            for n, v in ranked]
