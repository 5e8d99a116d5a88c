import gc
import sys
from pathlib import Path

import numpy as np
import pytest

import trimask.pipeline
from conftest import PEEL_FALLBACK_LAYOUT, elimination_budget, random_graph, worked_example_graph
from test_ilp import conflict_clique
from trimask.cli import generate_layout
from trimask.geometry import Layout, ProcessParams, Shape, build_layout_graph, project_and_split
from trimask.graphs import (
    DecompositionGraph,
    Segment,
    brute_force_optimum,
    connected_components,
    evaluate,
)
from trimask.ilp import solve_exact
from trimask.pipeline import (
    AUTO_THRESHOLD,
    ComponentReport,
    DecomposeConfig,
    decompose,
    decompose_graph,
)
from trimask.reductions import find_bridges, peel_low_degree, stitch_and_rotate
from trimask.sdp import build_cost_matrix, solve_relaxation

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from checks import greedy_one_opt  # noqa: E402


def squares(points, side=50):
    return Layout(
        shapes=tuple(Shape(id=i, rect=(x, y, x + side, y + side)) for i, (x, y) in enumerate(points)),
        params=ProcessParams(),
    )


TRIANGLE = squares([(0, 0), (110, 0), (55, 110)])
K4 = squares([(0, 0), (110, 0), (0, 110), (110, 110)])


def king_cluster(origin_x, origin_y, rows=3, cols=4):
    """Dense block: 8-neighborhood mesh, survives low-degree peeling."""
    pts = []
    for r in range(rows):
        for c in range(cols):
            pts.append((origin_x + 100 * c, origin_y + 100 * r))
    return pts


class TestDecompose:
    def test_sparse_layout_fully_peeled(self):
        # chain of squares: degree <= 2 everywhere, no solver involved
        layout = squares([(i * 110, 0) for i in range(6)])
        result = decompose(layout, DecomposeConfig(solver="exact"))
        assert result.peeled == 6
        assert result.conflict_count == 0 and result.stitch_count == 0
        assert result.per_component == []

    def test_triangle_zero_conflicts(self):
        result = decompose(TRIANGLE, DecomposeConfig(solver="exact"))
        assert result.conflict_count == 0
        assert len(set(result.assignment.colors.values())) == 3

    def test_k4_single_conflict(self):
        for solver in ("exact", "sdp"):
            result = decompose(K4, DecomposeConfig(solver=solver))
            assert result.conflict_count >= 1
            if solver == "exact":
                assert result.conflict_count == 1

    def test_totals_match_direct_evaluation(self):
        layout = generate_layout(30, 4.0, seed=9)
        result = decompose(layout, DecomposeConfig(solver="exact"))
        again = evaluate(result.dg, result.assignment.colors, layout.params.alpha)
        assert again.conflict_count == result.conflict_count
        assert again.stitch_count == result.stitch_count
        assert float(again.objective) == result.objective

    def test_exact_equals_auto_on_small_components(self):
        pts = king_cluster(0, 0) + king_cluster(5000, 0) + [(10000, 0), (10110, 0)]
        layout = squares(pts)
        exact = decompose(layout, DecomposeConfig(solver="exact"))
        auto = decompose(layout, DecomposeConfig(solver="auto"))
        assert all(r.size <= 25 for r in auto.per_component)
        assert auto.objective == exact.objective

    def test_matches_oracle_on_small_layouts(self):
        checked = 0
        for seed in range(40):
            layout = generate_layout(3 + seed % 6, [0, 2, 4, 6][seed % 4], seed=seed)
            dg = project_and_split(layout)
            if len(dg.segments) > 13:
                continue
            checked += 1
            result = decompose(layout, DecomposeConfig(solver="exact"))
            oracle = brute_force_optimum(result.dg, layout.params.alpha)
            assert result.objective == float(oracle.objective), f"seed {seed}"
        assert checked >= 20

    def test_deterministic_payload(self):
        layout = generate_layout(25, 6.0, seed=5)
        cfg = DecomposeConfig(solver="auto", seed=7)
        a = decompose(layout, cfg).payload()
        b = decompose(layout, cfg).payload()
        assert a == b

    def test_budget_exhaustion_relaxes_not_aborts(self):
        with elimination_budget(2):
            result = decompose(K4, DecomposeConfig(solver="exact"))
        assert not result.proven_optimal
        assert [r.solver for r in result.per_component] == ["sdp"]
        assert set(result.assignment.colors) == {s.id for s in result.dg.segments}
        assert result.conflict_count == 1


def residual_component(layout, size):
    """The component of ``size`` nodes left after peeling and splitting."""
    lg = build_layout_graph(layout)
    residual, _ = peel_low_degree(lg)
    dg = project_and_split(layout, split_nodes=residual.nodes)
    kept = set(residual.nodes)
    pieces = connected_components(dg.subgraph(s.id for s in dg.segments if s.parent in kept))
    (comp,) = [c for c in pieces if len(c.nodes) == size]
    return comp


class TestUnprovenExactLeaves:
    """A leaf whose elimination would pass ``ELIMINATION_BUDGET`` table entries
    joins the pass's relaxed leaves: its component reports the relaxation,
    unproven, with the colors ``solver="sdp"`` gives it."""

    @pytest.mark.parametrize("seed, size, greedy", [(1, 31, 12.0), (3, 34, 9.0)])
    def test_a_leaf_past_the_budget_relaxes(self, seed, size, greedy):
        comp = residual_component(generate_layout(40, 6, seed=seed), size)
        with elimination_budget(500):
            assert solve_exact(comp, 0.1) is None
            result = decompose_graph(comp, DecomposeConfig(solver="exact"))
        (report,) = result.per_component
        assert report.solver == "sdp" and not report.proven_optimal
        assert report.nodes_explored == 0 and report.sdp_converged is not None
        relaxed = decompose_graph(comp, DecomposeConfig(solver="sdp"))
        assert result.assignment.colors == relaxed.assignment.colors
        # a greedy coloring polished by single-node moves scores ``greedy``
        assert greedy_one_opt(comp.nodes, comp.ce, comp.se, result.assignment.alpha) == greedy
        assert result.objective < greedy


def test_exact_proves_the_pieces_of_a_dense_layout():
    # four pieces of 118-121 nodes, of min-fill width 7-9, are eliminated
    # within the default budget
    result = decompose(generate_layout(400, 6, seed=1), DecomposeConfig(solver="exact"))
    assert [r.size for r in result.per_component if r.size > 25] == [118, 120, 120, 121]
    assert result.proven_optimal
    assert result.objective == pytest.approx(112.0)


class TestDecomposeGraph:
    def test_bare_graph_roundtrip(self, rng):
        dg = random_graph(rng, 10)
        result = decompose_graph(dg, DecomposeConfig(solver="exact"))
        assert result.objective == float(brute_force_optimum(dg, 0.1).objective)

    def test_alpha_override(self, rng):
        dg = random_graph(rng, 8, 0.2, 0.3)
        half = decompose_graph(dg, DecomposeConfig(solver="exact", alpha=0.5))
        tenth = decompose_graph(dg, DecomposeConfig(solver="exact", alpha=0.1))
        assert half.objective >= tenth.objective

    def test_path_graph_bridge_heavy(self):
        # long path: every edge a bridge; exercised without recursion limits
        n = 2000
        dg = DecompositionGraph.from_edges(n, ce=[(i, i + 1) for i in range(n - 1)])
        result = decompose_graph(dg, DecomposeConfig(solver="exact"))
        assert result.conflict_count == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DecomposeConfig(solver="magic")
        for alpha in (0, -1, 0.0, float("inf"), float("nan"), True):
            with pytest.raises(ValueError):
                DecomposeConfig(alpha=alpha)
        assert DecomposeConfig(alpha=0.5).alpha == 0.5
        for seed in (-1, -5, 1.5, float("nan"), True, "1", None):
            with pytest.raises(ValueError):
                DecomposeConfig(seed=seed)
        assert DecomposeConfig(seed=0).seed == 0
        assert DecomposeConfig(seed=np.int64(7)).seed == 7

    def test_budget_zero_relaxes_every_piece_with_an_edge(self):
        with elimination_budget(0):
            result = decompose(K4, DecomposeConfig(solver="exact"))
        (report,) = result.per_component
        assert report.solver == "sdp" and report.nodes_explored == 0
        assert not report.proven_optimal
        assert result.conflict_count == 1
        # two bridged triangles, and a path whose pieces are single nodes
        bridged = two_triangles_bridged()
        dg = DecompositionGraph.from_edges(9, ce=sorted(bridged.ce) + [(6, 7), (7, 8)])
        with elimination_budget(0):
            result = decompose_graph(dg, DecomposeConfig(solver="exact"))
        assert [(r.solver, r.bridges_cut, r.nodes_explored) for r in result.per_component] == [
            ("sdp", 1, 0), ("none", 2, 0)
        ]

    def test_config_has_three_fields(self):
        assert list(DecomposeConfig.__dataclass_fields__) == ["solver", "alpha", "seed"]

    def test_budget_is_not_a_setting(self):
        # the elimination budget is ilp.ELIMINATION_BUDGET, read on every call
        with pytest.raises(TypeError):
            DecomposeConfig(node_budget=10)
        with pytest.raises(TypeError):
            solve_exact(K4, 0.1, budget=10)


def two_triangles_bridged():
    return DecompositionGraph.from_edges(
        6, ce=[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
    )


class TestComponentSolver:
    """``ComponentReport.solver`` names the solver that actually ran."""

    @pytest.mark.parametrize("solver, proven", [
        ("none", True), ("exact", True), ("sdp", False), ("mixed", False)
    ])
    def test_proven_optimal_follows_the_solver(self, solver, proven):
        assert ComponentReport(component=0, size=3, solver=solver).proven_optimal is proven

    def test_proven_optimal_is_read_only(self):
        report = ComponentReport(component=0, size=3, solver="sdp")
        with pytest.raises(AttributeError):
            report.proven_optimal = True
        assert not report.proven_optimal

    def test_auto_small_component_runs_exact(self):
        result = decompose_graph(two_triangles_bridged(), DecomposeConfig(solver="auto"))
        assert [r.solver for r in result.per_component] == ["exact"]

    def test_auto_large_component_runs_sdp(self, rng):
        n = AUTO_THRESHOLD + 5
        dg = random_graph(rng, n, 0.5, 0.0)
        result = decompose_graph(dg, DecomposeConfig(solver="auto"))
        (report,) = result.per_component
        assert report.size == n and report.bridges_cut == 0
        assert report.solver == "sdp"

    def test_auto_mixed_across_bridge_pieces(self):
        # a dense block above the threshold, bridged to a triangle: the block
        # goes to the relaxation and the triangle to elimination
        n = AUTO_THRESHOLD + 5
        big = [(i, j) for i in range(n) for j in range(i + 1, n) if (i + j) % 3]
        tri = [(n, n + 1), (n + 1, n + 2), (n, n + 2)]
        dg = DecompositionGraph.from_edges(n + 3, ce=big + tri + [(n - 1, n)])
        result = decompose_graph(dg, DecomposeConfig(solver="auto"))
        (report,) = result.per_component
        assert report.bridges_cut == 1
        assert report.solver == "mixed"

    @pytest.mark.parametrize("solver", ["auto", "exact"])
    def test_past_the_budget_relaxes(self, solver):
        # K14's first two scopes alone would fill 3^14 + 3^13 table entries,
        # past the budget, so even "auto" relaxes it at 14 nodes
        k14 = conflict_clique(14)
        assert solve_exact(k14, 0.1) is None
        result = decompose_graph(k14, DecomposeConfig(solver=solver))
        (report,) = result.per_component
        assert report.solver == "sdp" and report.nodes_explored == 0
        assert not report.proven_optimal and not result.proven_optimal
        assert set(result.assignment.colors) == set(k14.nodes)

    def test_exact_mixed_across_a_wide_and_a_narrow_piece(self):
        # K14 relaxes, the triangle bridged to it is eliminated
        k14 = conflict_clique(14)
        tri = [(14, 15), (15, 16), (14, 16)]
        dg = DecompositionGraph.from_edges(17, ce=sorted(k14.ce) + tri + [(13, 14)])
        result = decompose_graph(dg, DecomposeConfig(solver="exact"))
        (report,) = result.per_component
        assert report.bridges_cut == 1 and report.solver == "mixed"
        assert report.nodes_explored > 0 and not report.proven_optimal

    def test_single_nodes_run_no_solver(self):
        dg = DecompositionGraph.from_edges(3)
        result = decompose_graph(dg, DecomposeConfig(solver="exact"))
        assert [r.solver for r in result.per_component] == ["none"] * 3
        tree = DecompositionGraph.from_edges(3, ce=[(0, 1), (1, 2)])
        result = decompose_graph(tree, DecomposeConfig(solver="sdp"))
        assert [r.solver for r in result.per_component] == ["none"]
        assert result.per_component[0].bridges_cut == 2


    def test_sdp_iterations_come_from_the_one_run(self, monkeypatch):
        # both triangles of the bridged pair relax in one run, and the
        # report takes that run's iterations once
        runs = []

        def spy(*args, **kwargs):
            sol = solve_relaxation(*args, **kwargs)
            runs.append(sol)
            return sol

        monkeypatch.setattr(trimask.pipeline, "solve_relaxation", spy)
        result = decompose_graph(two_triangles_bridged(), DecomposeConfig(solver="sdp"))
        (report,) = result.per_component
        (run,) = runs
        assert len(run.index) == 6 and run.iterations
        assert report.sdp_iterations == run.iterations
        assert report.sdp_converged == run.converged
        assert "sdp_iterations" not in str(result.payload())


def triangle_chain(count=50):
    """``count`` triangles in a row, joined by bridges that alternate
    between conflict and stitch edges. The even triangles are three
    conflict edges (optimum 0); the odd ones a conflict edge and two
    stitches (optimum alpha)."""
    ce, se = [], []
    for k in range(count):
        a, b, c = 3 * k, 3 * k + 1, 3 * k + 2
        kind = ce if k % 2 == 0 else se
        ce.append((a, b))
        kind += [(b, c), (a, c)]
        if k + 1 < count:
            kind.append((c, c + 1))
    return DecompositionGraph.from_edges(3 * count, ce=ce, se=se)


class TestBridgeMerge:
    def test_a_chain_of_triangles_merges_each_piece_once(self, monkeypatch):
        calls = []

        def spy(cut, color_a, color_b):
            calls.append((cut, dict(color_b)))
            return stitch_and_rotate(cut, color_a, color_b)

        monkeypatch.setattr(trimask.pipeline, "stitch_and_rotate", spy)
        dg = triangle_chain()
        result = decompose_graph(dg, DecomposeConfig(solver="exact"))
        cuts = find_bridges(dg)
        (report,) = result.per_component
        assert report.bridges_cut == len(cuts) == 49
        assert {cut.edge_kind for cut in cuts} == {"CE", "SE"}

        colors = result.assignment.colors
        for cut in cuts:
            u, v = cut.bridge
            assert (colors[u] != colors[v]) == (cut.edge_kind == "CE")
        bridges = {cut.bridge for cut in cuts}
        pieces = connected_components(
            DecompositionGraph(dg.ids, dg.parents, dg.rects, dg.ce - bridges, dg.se - bridges))
        assert result.assignment.objective == sum(
            brute_force_optimum(piece, 0.1).objective for piece in pieces)

        # one call per bridge, each rotating one whole piece other than the first
        assert sorted(cut.bridge for cut, _ in calls) == sorted(bridges)
        assert sorted(tuple(sorted(rotated)) for _, rotated in calls) == [
            piece.nodes for piece in pieces[1:]]


class TestCompareSolvers:
    """The exact search and the relaxation side by side on one layout."""

    def test_sdp_never_beats_exact(self):
        layout = generate_layout(20, 6.0, seed=2)
        exact = decompose(layout, DecomposeConfig(solver="exact"))
        sdp = decompose(layout, DecomposeConfig(solver="sdp"))
        assert sdp.objective >= exact.objective
        assert {r.solver for r in exact.per_component} <= {"exact", "none"}
        assert {r.solver for r in sdp.per_component} <= {"sdp", "none"}

    def test_empty_layout_zeros(self):
        layout = Layout(shapes=(), params=ProcessParams())
        for solver in ("exact", "sdp"):
            result = decompose(layout, DecomposeConfig(solver=solver))
            assert result.stitch_count == 0 and result.conflict_count == 0
            assert result.objective == 0.0


class TestWitnessPlumbing:
    def test_k4_layout_reports_witness(self):
        result = decompose(K4, DecomposeConfig(solver="exact"))
        assert len(result.witnesses) == 1
        edge = result.witnesses[0].edge
        assert edge[0] in result.assignment.colors


class TestPeelFallback:
    """A peeled shape with no free color sends its layout-graph component
    back to the solver unpeeled; the redo replaces the first pass."""

    def test_redo_replaces_first_pass_reports_and_witnesses(self):
        result = decompose(PEEL_FALLBACK_LAYOUT)
        (report,) = result.per_component
        assert report.peel_fallback and report.size == len(result.dg.nodes)
        (witness,) = result.witnesses
        assert witness.edge == (0, 3)
        assert result.objective == 2.0
        assert result.objective == float(brute_force_optimum(result.dg, 0.1).objective)


class TestSegmentColumns:
    def test_fully_peeled_decompose_makes_no_segment(self):
        layout = generate_layout(2000, 2, seed=1)
        # a collection untracks the tuples that hold only ints, and an
        # untracked Segment would not be listed by gc.get_objects
        enabled = gc.isenabled()
        gc.disable()
        try:
            before = sum(1 for o in gc.get_objects() if type(o) is Segment)
            result = decompose(layout)
            made = sum(1 for o in gc.get_objects() if type(o) is Segment) - before
        finally:
            if enabled:
                gc.enable()
        assert result.peeled == len(layout.shapes)
        assert made == 0
        dg = result.dg
        segments = tuple(Segment(k, s.id, s.rect) for k, s in enumerate(layout.sorted_shapes))
        assert dg.segments == segments


class TestOneRelaxationSchedule:
    """The pipeline hands a leaf to the relaxation exactly as a direct call
    would, so both run the one rule of ``solve_relaxation`` on the same
    factor."""

    @pytest.mark.parametrize("dg, seed", [
        (random_graph(np.random.default_rng(1), 20, 0.3, 0.1), 7),
        (worked_example_graph(), 3),
    ], ids=["20-nodes", "5-nodes"])
    def test_leaf_factor_equals_direct_call(self, monkeypatch, dg, seed):
        assert len(connected_components(dg)) == 1 and not find_bridges(dg)
        factors = []

        def spy(*args, **kwargs):
            sol = solve_relaxation(*args, **kwargs)
            factors.append(sol.v)
            return sol

        monkeypatch.setattr(trimask.pipeline, "solve_relaxation", spy)
        decompose_graph(dg, DecomposeConfig(solver="sdp", seed=seed))
        direct = solve_relaxation(build_cost_matrix(dg, 0.1), seed=seed).v
        assert len(factors) == 1
        assert factors[0].tobytes() == direct.tobytes()
