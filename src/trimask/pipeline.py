"""End-to-end decomposition flow.

Order of operations: build the layout graph, peel low-degree shapes, project
and split the survivors, then solve each connected component of the residual
decomposition graph (cutting at every bridge, exact search or the relaxation
per configuration), merge, and finally pop the peeled shapes back with
greedy conflict-free colors.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass

from .detection import InfeasibleWitness, propagate_and_check
from .geometry import Layout, LayoutGraph, build_layout_graph, project_and_split
from .graphs import (
    DecompositionGraph,
    MaskAssignment,
    as_fraction,
    component_sets,
    connected_components,
    evaluate,
)
from .ilp import solve_exact
from .reductions import find_bridges, peel_low_degree, reinsert_segments, stitch_and_rotate
from .sdp import build_cost_matrix, map_to_masks, polish, solve_relaxation
from .unionfind import DisjointSet

# solver "auto" searches components of at most this many nodes exactly
AUTO_THRESHOLD = 25


@dataclass(frozen=True)
class DecomposeConfig:
    solver: str = "auto"  # "exact" | "sdp" | "auto"
    alpha: float | None = None  # None: take from layout params (0.1 for bare graphs)
    node_budget: int = 5_000_000
    seed: int = 42

    def __post_init__(self):
        if self.solver not in ("exact", "sdp", "auto"):
            raise ValueError(f"unknown solver {self.solver!r}")
        alpha = self.alpha
        real = isinstance(alpha, numbers.Real) and not isinstance(alpha, bool)
        if alpha is not None and not (real and math.isfinite(alpha) and alpha > 0):
            raise ValueError(f"alpha must be a positive finite number, got {alpha!r}")
        for name in ("node_budget", "seed"):
            value = getattr(self, name)
            integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
            if not (integral and value >= 0):
                raise ValueError(f"{name} must be a non-negative integer, got {value!r}")


@dataclass
class ComponentReport:
    component: int  # smallest node id in the component
    size: int
    solver: str = "none"  # "exact" | "sdp", "mixed" if bridge pieces ran both
    nodes_explored: int = 0
    proven_optimal: bool = True
    bridges_cut: int = 0
    sdp_converged: bool | None = None
    sdp_iterations: int = 0  # relaxation descent iterations over all pieces
    peel_fallback: bool = False


@dataclass
class DecomposeResult:
    assignment: MaskAssignment
    dg: DecompositionGraph
    lg: LayoutGraph | None
    per_component: list[ComponentReport]
    witnesses: list[InfeasibleWitness]
    peeled: int
    components: int
    stitch_count: int
    conflict_count: int
    objective: float
    proven_optimal: bool
    wall_time: float
    solver: str

    def payload(self) -> dict:
        """Seed-deterministic summary (timing excluded by design)."""
        return {
            "solver": self.solver,
            "components": self.components,
            "peeled": self.peeled,
            "CE": len(self.dg.ce),
            "SE": len(self.dg.se),
            "st": self.stitch_count,
            "cn": self.conflict_count,
            "objective": self.objective,
            "proven_optimal": self.proven_optimal,
            "masks": {n: self.assignment.colors[n] for n in sorted(self.assignment.colors)},
            "witnesses": [
                {"edge": list(w.edge), "path": list(w.path)} for w in self.witnesses
            ],
        }


def _solve_leaf(dg: DecompositionGraph, alpha, cfg: DecomposeConfig, report: ComponentReport):
    n = len(dg.nodes)
    solver = cfg.solver
    if solver == "auto":
        solver = "exact" if n <= AUTO_THRESHOLD else "sdp"
    report.solver = solver if report.solver in ("none", solver) else "mixed"
    if solver == "exact":
        res = solve_exact(dg, alpha, budget=cfg.node_budget)
        report.nodes_explored += res.nodes_explored
        report.proven_optimal = report.proven_optimal and res.proven_optimal
        if res.proven_optimal:
            return res.assignment.colors
        return polish(dg, res.assignment.colors, alpha, seed=cfg.seed)
    sol = solve_relaxation(build_cost_matrix(dg, alpha), seed=cfg.seed)
    report.sdp_converged = sol.converged if report.sdp_converged is None else (
        report.sdp_converged and sol.converged
    )
    report.sdp_iterations += sol.iterations
    report.proven_optimal = False
    return map_to_masks(sol, seed=cfg.seed).colors


def _solve_with_bridges(dg: DecompositionGraph, alpha, cfg, report) -> dict[int, int]:
    """Cut every bridge of a connected component, solve the bridge-free
    pieces, and merge them back along the bridge forest; each reattachment
    rotates one side so the bridge edge costs nothing."""
    if len(dg.nodes) <= 1:
        return {node: 0 for node in dg.nodes}
    cuts = find_bridges(dg)
    if not cuts:
        return _solve_leaf(dg, alpha, cfg, report)
    report.bridges_cut += len(cuts)
    bridge_set = {cut.bridge for cut in cuts}
    pruned = DecompositionGraph(
        segments=dg.segments, ce=dg.ce - bridge_set, se=dg.se - bridge_set
    )
    dsu = DisjointSet(dg.nodes)
    blocks: dict[int, dict[int, int]] = {}
    for piece in connected_components(pruned):
        if len(piece.nodes) == 1:
            colors = {piece.nodes[0]: 0}
        else:
            colors = _solve_leaf(piece, alpha, cfg, report)
        for a, b in zip(piece.nodes, piece.nodes[1:]):
            dsu.union(a, b)
        blocks[dsu.find(piece.nodes[0])] = colors
    for cut in cuts:
        u, v = cut.bridge
        ru, rv = dsu.find(u), dsu.find(v)
        merged = stitch_and_rotate(cut, blocks.pop(ru), blocks.pop(rv))
        dsu.union(ru, rv)
        blocks[dsu.find(ru)] = merged
    (colors,) = blocks.values()
    return colors


def _solve_components(dg: DecompositionGraph, alpha, cfg):
    colors: dict[int, int] = {}
    reports: list[ComponentReport] = []
    witnesses: list[InfeasibleWitness] = []
    for comp in connected_components(dg):
        verdict = propagate_and_check(comp.nodes, comp.ce)
        if isinstance(verdict, InfeasibleWitness):
            witnesses.append(verdict)
        report = ComponentReport(component=min(comp.nodes), size=len(comp.nodes))
        colors.update(_solve_with_bridges(comp, alpha, cfg, report))
        reports.append(report)
    return colors, reports, witnesses


def decompose_graph(dg: DecompositionGraph, cfg: DecomposeConfig | None = None) -> DecomposeResult:
    """Decompose a bare decomposition graph (no geometry, hence no peeling)."""
    cfg = cfg or DecomposeConfig()
    alpha = as_fraction(cfg.alpha if cfg.alpha is not None else 0.1)
    t0 = time.perf_counter()
    colors, reports, witnesses = _solve_components(dg, alpha, cfg)
    assignment = evaluate(dg, colors, alpha)
    return _result(assignment, dg, None, reports, witnesses, 0, t0, cfg)


def decompose(layout: Layout, cfg: DecomposeConfig | None = None) -> DecomposeResult:
    cfg = cfg or DecomposeConfig()
    alpha = as_fraction(cfg.alpha if cfg.alpha is not None else layout.params.alpha)
    t0 = time.perf_counter()

    lg = build_layout_graph(layout)
    residual_lg, record = peel_low_degree(lg)
    dg = project_and_split(layout, lg, split_nodes=residual_lg.nodes)
    residual = set(residual_lg.nodes)
    residual_dg = dg.subgraph(s.id for s in dg.segments if s.parent in residual)

    colors, reports, witnesses = _solve_components(residual_dg, alpha, cfg)
    colors, fallback_parents = reinsert_segments(dg, record, colors)

    if fallback_parents:
        # a peeled shape ran out of free colors against a stitched neighbor;
        # re-solve its whole layout-graph component without peeling, and let
        # the redo's reports and witnesses replace those of the first pass
        redo = set()
        for comp in connected_components(lg):
            if set(comp.nodes) & fallback_parents:
                redo.update(comp.nodes)
        redo_ids = {s.id for s in dg.segments if s.parent in redo}
        redo_colors, redo_reports, redo_witnesses = _solve_components(
            dg.subgraph(redo_ids), alpha, cfg
        )
        for rep in redo_reports:
            rep.peel_fallback = True
        colors.update(redo_colors)
        reports = [r for r in reports if r.component not in redo_ids] + redo_reports
        witnesses = [w for w in witnesses if w.edge[0] not in redo_ids] + redo_witnesses

    assignment = evaluate(dg, colors, alpha)
    return _result(assignment, dg, lg, reports, witnesses, len(record), t0, cfg)


def _result(assignment, dg, lg, reports, witnesses, peeled, t0, cfg) -> DecomposeResult:
    return DecomposeResult(
        assignment=assignment,
        dg=dg,
        lg=lg,
        per_component=reports,
        witnesses=witnesses,
        peeled=peeled,
        components=len(component_sets(dg)),
        stitch_count=assignment.stitch_count,
        conflict_count=assignment.conflict_count,
        objective=assignment.objective_float(),
        proven_optimal=all(r.proven_optimal for r in reports),
        wall_time=time.perf_counter() - t0,
        solver=cfg.solver,
    )
