"""Span tracing from outside the program, and the per-layer metrics.

The tracer wraps the public functions as ``trimask.pipeline`` looks them up,
plus the calls the benchmark itself makes (``load_layout``, ``decompose``,
``format_assignment``, ``format_stats``). Each call becomes a span: name,
start, end, parent span and layout id, kept in memory and written out when
the run ends. Counts are read from the wrapped calls' arguments and results.
A name that a later version of the pipeline no longer looks up is skipped,
and its metrics read 0.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

from trimask.detection import InfeasibleWitness


def _ilp(args, kwargs, res):
    return {"n": len(args[0].nodes), "nodes_explored": res.nodes_explored,
            "proven": bool(res.proven_optimal)}


def _map(args, kwargs, res):
    info = kwargs.get("info")
    forced = info.forced_unions if info is not None else 0
    return {"forced_unions": forced, "degraded": forced > 0}


def _witness(args, kwargs, res):
    return {"witness": isinstance(res, InfeasibleWitness)}


# pipeline-level name -> count extractor (or None)
PIPELINE_CALLS = {
    "build_layout_graph": lambda a, k, r: {"lg_edges": len(r.edges)},
    "peel_low_degree": lambda a, k, r: {"peeled": len(r[1])},
    "project_and_split": lambda a, k, r: {
        "segments": len(r.segments), "ce": len(r.ce), "se": len(r.se)},
    "connected_components": None,
    "evaluate": None,
    "propagate_and_check": _witness,
    "find_bridges": lambda a, k, r: {"bridges": len(r)},
    "stitch_and_rotate": None,
    "solve_exact": _ilp,
    "build_cost_matrix": lambda a, k, r: {"n": len(r.index)},
    "solve_relaxation": lambda a, k, r: {"n": len(r.index), "converged": bool(r.converged)},
    "map_to_masks": _map,
}


def _decompose(args, kwargs, res):
    return {"peel_fallbacks": sum(1 for rep in res.per_component if rep.peel_fallback)}


ENTRY_CALLS = {
    "load_layout": None,
    "decompose": _decompose,
    "format_assignment": None,
    "format_stats": None,
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.layout = None
        self._stack: list[int] = []

    def wrap(self, name, fn, observe=None):
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "layout": self.layout,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                span.update(observe(args, kwargs, result))
            return result

        return traced

    @contextmanager
    def patched(self, module):
        """Route ``module``'s lookups of the pipeline calls through spans."""
        saved = {}
        for name, observe in PIPELINE_CALLS.items():
            fn = getattr(module, name, None)
            if fn is not None:
                saved[name] = fn
                setattr(module, name, self.wrap(name, fn, observe))
        try:
            yield
        finally:
            for name, fn in saved.items():
                setattr(module, name, fn)

    def entry_calls(self, calls: dict) -> dict:
        return {name: self.wrap(name, fn, ENTRY_CALLS[name]) for name, fn in calls.items()}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans: list[dict]) -> list[float]:
    """A span's duration minus the part of it its child spans cover. Calls
    are nested and sequential in one thread, so children never overlap."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


# per-layer time metric -> span names whose self time it sums
TIME_METRICS = {
    "geometry.load_s": ("load_layout",),
    "geometry.layout_graph_s": ("build_layout_graph",),
    "geometry.split_s": ("project_and_split",),
    "reductions.peel_s": ("peel_low_degree",),
    "reductions.bridges_s": ("find_bridges",),
    "reductions.rotate_s": ("stitch_and_rotate",),
    "detection.check_s": ("propagate_and_check",),
    "graphs.components_s": ("connected_components",),
    "graphs.evaluate_s": ("evaluate",),
    "pipeline.self_s": ("decompose",),
    "ilp.s": ("solve_exact",),
    "sdp.cost_matrix_s": ("build_cost_matrix",),
    "sdp.relax_s": ("solve_relaxation",),
    "sdp.map_s": ("map_to_masks",),
    "cli.format_s": ("format_assignment", "format_stats"),
}


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for k, s in enumerate(spans):
        by_name.setdefault(s["name"], []).append(k)

    def total(name, key):
        return sum(spans[k].get(key, 0) for k in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    out = {
        metric: sum(own[k] for name in names for k in by_name.get(name, ()))
        for metric, names in TIME_METRICS.items()
    }
    out["pipeline.decompose_s"] = sum(
        spans[k]["end"] - spans[k]["start"] for k in by_name.get("decompose", ())
    )
    out["geometry.lg_edges"] = total("build_layout_graph", "lg_edges")
    out["geometry.segments"] = total("project_and_split", "segments")
    out["geometry.ce_edges"] = total("project_and_split", "ce")
    out["geometry.se_edges"] = total("project_and_split", "se")
    out["reductions.peeled"] = total("peel_low_degree", "peeled")
    out["reductions.bridges"] = total("find_bridges", "bridges")
    solver_sizes = [
        spans[k]["n"] for name in ("solve_exact", "build_cost_matrix")
        for k in by_name.get(name, ())
    ]
    out["reductions.largest_piece"] = max(solver_sizes, default=0)
    out["detection.witnesses"] = total("propagate_and_check", "witness")
    out["pipeline.peel_fallbacks"] = total("decompose", "peel_fallbacks")

    ilp_calls = calls("solve_exact")
    out["ilp.calls"] = ilp_calls
    out["ilp.nodes_explored"] = total("solve_exact", "nodes_explored")
    out["ilp.nodes_per_s"] = out["ilp.nodes_explored"] / out["ilp.s"] if out["ilp.s"] else 0.0
    out["ilp.proven_share"] = total("solve_exact", "proven") / ilp_calls if ilp_calls else 0.0

    relax_calls = calls("solve_relaxation")
    out["sdp.relax_calls"] = relax_calls
    out["sdp.relax_nodes"] = total("solve_relaxation", "n")
    out["sdp.converged_share"] = (
        total("solve_relaxation", "converged") / relax_calls if relax_calls else 0.0
    )
    map_calls = calls("map_to_masks")
    out["sdp.forced_unions"] = total("map_to_masks", "forced_unions")
    out["sdp.degraded_share"] = total("map_to_masks", "degraded") / map_calls if map_calls else 0.0
    return out
