"""End-to-end decomposition flow.

Order of operations: build the layout graph, peel low-degree shapes, project
and split the survivors, solve the residual decomposition graph, and finally
pop the peeled shapes back with greedy conflict-free colors.

The residual graph is solved in one pass of three phases:

1. Plan every leaf. Each connected component is checked for a triangle
   witness and cut at every bridge; its bridge-free pieces are the leaves.
   A single node takes mask 0, and a leaf for the exact solver (per the
   configuration) is eliminated at once. The rest wait for phase 2, and so
   does an exact leaf that ``solve_exact`` cannot take: one whose
   elimination tables would pass ``ilp.ELIMINATION_BUDGET`` entries.
2. Relax the waiting leaves together: one ``CostMatrix`` per leaf from
   ``build_cost_matrix``, joined by ``join_costs`` into one disjoint union,
   one ``solve_relaxation`` call on it, and each leaf rounded by
   ``map_to_masks`` on its own part of the run, ``sol.restrict(cost)``.
   The descent steps each leaf on its own (see ``trimask.sdp``), so a pass
   of many relaxed leaves pays the per-call overhead of one.
3. Merge each component's pieces back along its bridges with
   ``stitch_and_rotate``.

A peel fallback runs one more pass on the components it redoes.
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
    component_count,
    component_sets,
    connected_components,
    evaluate,
)
from .ilp import solve_exact
from .reductions import find_bridges, peel_low_degree, reinsert_segments, stitch_and_rotate
from .sdp import build_cost_matrix, join_costs, map_to_masks, solve_relaxation

# solver "auto" sends leaves of at most this many nodes to solve_exact
AUTO_THRESHOLD = 25


@dataclass(frozen=True)
class DecomposeConfig:
    solver: str = "auto"  # "exact" | "sdp" | "auto"
    alpha: float | None = None  # None: take from layout params (0.1 for bare graphs)
    seed: int = 42

    def __post_init__(self):
        if self.solver not in ("exact", "sdp", "auto"):
            raise ValueError(f"unknown solver {self.solver!r}")
        alpha = self.alpha
        real = isinstance(alpha, numbers.Real) and not isinstance(alpha, bool)
        if alpha is not None and not (real and math.isfinite(alpha) and alpha > 0):
            raise ValueError(f"alpha must be a positive finite number, got {alpha!r}")
        seed = self.seed
        integral = isinstance(seed, numbers.Integral) and not isinstance(seed, bool)
        if not (integral and seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


@dataclass
class ComponentReport:
    component: int  # smallest node id in the component
    size: int
    solver: str = "none"  # "exact" | "sdp", "mixed" if bridge pieces ran both
    # the eliminated pieces' table entries, summed
    nodes_explored: int = 0
    bridges_cut: int = 0
    # the pass's one relaxation run, shared by every relaxed piece of every
    # component: whether it certified, and its descent iterations
    sdp_converged: bool | None = None
    sdp_iterations: int = 0
    peel_fallback: bool = False

    @property
    def proven_optimal(self) -> bool:
        """Whether every piece was eliminated or needed no solver; a
        relaxed piece is unproven."""
        return self.solver in ("none", "exact")


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


def _bridge_pieces(comp: DecompositionGraph, cuts) -> list[DecompositionGraph]:
    """The bridge-free pieces left of ``comp`` once every bridge of ``cuts``
    is cut."""
    if not cuts:
        return [comp]
    bridge_set = {cut.bridge for cut in cuts}
    return connected_components(DecompositionGraph(
        comp.ids, comp.parents, comp.rects, ce=comp.ce - bridge_set, se=comp.se - bridge_set
    ))


def _merge_pieces(cuts, blocks) -> dict[int, int]:
    """Merge the colored bridge-free pieces ``blocks`` (pairs of a piece and
    its colors) of one component back along the bridge forest of ``cuts``.

    A walk over the bridge forest starts at the first piece, which keeps its
    colors. Each bridge the walk crosses leads to a piece not yet placed,
    which ``stitch_and_rotate`` rotates once against the placed endpoint's
    final color, so the bridge edge costs nothing.
    """
    if not cuts:
        ((_, colors),) = blocks
        return colors
    piece_colors = {n: colors for piece, colors in blocks for n in piece.nodes}
    crossings: dict[int, list] = {}
    for cut in cuts:
        u, v = cut.bridge
        crossings.setdefault(u, []).append((cut, v))
        crossings.setdefault(v, []).append((cut, u))
    first = blocks[0][1]
    out = dict(first)
    todo = [first]
    while todo:
        for node in todo.pop():
            for cut, far in crossings.get(node, ()):
                if far not in out:
                    far_colors = piece_colors[far]
                    out.update(stitch_and_rotate(cut, {node: out[node]}, far_colors))
                    todo.append(far_colors)
    return out


def _solve_components(dg: DecompositionGraph, alpha, cfg):
    """One pass over the components of ``dg`` in the three phases of the
    module docstring: plan the leaves and eliminate the exact ones, relax
    the rest in one run, merge the bridge pieces."""
    reports: list[ComponentReport] = []
    witnesses: list[InfeasibleWitness] = []
    # per component: its bridge cuts and its pieces with their colors,
    # which phase 2 fills in for the relaxed pieces
    plans = []
    relaxed: list[tuple[DecompositionGraph, ComponentReport, dict[int, int]]] = []
    for comp in connected_components(dg):
        witness = propagate_and_check(comp)
        if witness is not None:
            witnesses.append(witness)
        report = ComponentReport(component=min(comp.nodes), size=len(comp.nodes))
        reports.append(report)
        cuts = find_bridges(comp) if len(comp.nodes) > 1 else []
        report.bridges_cut = len(cuts)
        blocks = []
        for piece in _bridge_pieces(comp, cuts):
            n = len(piece.nodes)
            if n == 1:
                blocks.append((piece, {piece.nodes[0]: 0}))
                continue
            res = None
            if cfg.solver == "exact" or (cfg.solver == "auto" and n <= AUTO_THRESHOLD):
                res = solve_exact(piece, alpha)
            if res is None:
                colors = {}
                relaxed.append((piece, report, colors))
                solver = "sdp"
            else:
                colors = res.assignment.colors
                report.nodes_explored += res.nodes_explored
                solver = "exact"
            report.solver = solver if report.solver in ("none", solver) else "mixed"
            blocks.append((piece, colors))
        plans.append((cuts, blocks))

    if relaxed:
        costs = [build_cost_matrix(piece, alpha) for piece, _, _ in relaxed]
        sol = solve_relaxation(join_costs(costs), seed=cfg.seed)
        for cost, (_, report, colors) in zip(costs, relaxed):
            report.sdp_converged = sol.converged
            report.sdp_iterations = sol.iterations
            colors.update(map_to_masks(sol.restrict(cost), seed=cfg.seed).colors)

    colors = {}
    for cuts, blocks in plans:
        colors.update(_merge_pieces(cuts, blocks))
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
    residual_lg, peeled = peel_low_degree(lg)
    dg = project_and_split(layout, lg, split_nodes=residual_lg.nodes)
    colors, reports, witnesses = {}, [], []
    if residual_lg.nodes:
        residual = set(residual_lg.nodes)
        residual_dg = dg.subgraph(i for i, p in zip(dg.ids, dg.parents) if p in residual)
        colors, reports, witnesses = _solve_components(residual_dg, alpha, cfg)
    colors, fallback_parents = reinsert_segments(dg, peeled, colors)

    if fallback_parents:
        # a peeled shape ran out of free colors against a stitched neighbor;
        # re-solve its whole layout-graph component without peeling, and let
        # the redo's reports and witnesses replace those of the first pass
        redo = set()
        for comp in component_sets(lg.nodes, lg.edges):
            if comp & fallback_parents:
                redo |= comp
        redo_ids = {i for i, p in zip(dg.ids, dg.parents) if p in redo}
        redo_colors, redo_reports, redo_witnesses = _solve_components(
            dg.subgraph(redo_ids), alpha, cfg
        )
        for rep in redo_reports:
            rep.peel_fallback = True
        colors.update(redo_colors)
        reports = [r for r in reports if r.component not in redo_ids] + redo_reports
        witnesses = [w for w in witnesses if w.edge[0] not in redo_ids] + redo_witnesses

    assignment = evaluate(dg, colors, alpha)
    return _result(assignment, dg, lg, reports, witnesses, len(peeled), t0, cfg)


def _result(assignment, dg, lg, reports, witnesses, peeled, t0, cfg) -> DecomposeResult:
    return DecomposeResult(
        assignment=assignment,
        dg=dg,
        lg=lg,
        per_component=reports,
        witnesses=witnesses,
        peeled=peeled,
        components=component_count(dg.nodes, dg.edges),
        stitch_count=assignment.stitch_count,
        conflict_count=assignment.conflict_count,
        objective=float(assignment.objective),
        proven_optimal=all(r.proven_optimal for r in reports),
        wall_time=time.perf_counter() - t0,
        solver=cfg.solver,
    )
