import numpy as np
import pytest

import trimask.pipeline
from conftest import random_graph, worked_example_graph
from trimask.cli import generate_layout
from trimask.geometry import Layout, ProcessParams, Shape, build_layout_graph, project_and_split
from trimask.graphs import DecompositionGraph, brute_force_optimum, connected_components, evaluate
from trimask.ilp import solve_exact
from trimask.pipeline import AUTO_THRESHOLD, DecomposeConfig, decompose, decompose_graph
from trimask.reductions import find_bridges, peel_low_degree
from trimask.sdp import build_cost_matrix, solve_relaxation


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
            dg = project_and_split(layout, build_layout_graph(layout))
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

    def test_budget_exhaustion_degrades_not_aborts(self):
        result = decompose(K4, DecomposeConfig(solver="exact", node_budget=2))
        assert not result.proven_optimal
        assert set(result.assignment.colors) == {s.id for s in result.dg.segments}


def residual_component(layout, size):
    """The component of ``size`` nodes left after peeling and splitting."""
    lg = build_layout_graph(layout)
    residual, _ = peel_low_degree(lg)
    dg = project_and_split(layout, lg, split_nodes=residual.nodes)
    kept = set(residual.nodes)
    pieces = connected_components(dg.subgraph(s.id for s in dg.segments if s.parent in kept))
    (comp,) = [c for c in pieces if len(c.nodes) == size]
    return comp


class TestUnprovenExactLeaves:
    """A leaf whose exact search runs out of budget goes through
    ``sdp.polish``, the rounding's 1-opt, tabu search and 1-opt."""

    def test_polish_never_worse_than_the_budgeted_search(self):
        comp = residual_component(generate_layout(40, 6, seed=1), 31)
        budgeted = solve_exact(comp, 0.1, budget=500)
        result = decompose_graph(comp, DecomposeConfig(solver="exact", node_budget=500))
        assert not budgeted.proven_optimal and not result.proven_optimal
        assert result.objective <= float(budgeted.assignment.objective)

    def test_polish_improves_an_unproven_leaf(self):
        # the budgeted search stops at 12.0; single-node moves alone reach 9.0
        # and the polish 7.0
        comp = residual_component(generate_layout(40, 6, seed=3), 34)
        budgeted = solve_exact(comp, 0.1, budget=500)
        result = decompose_graph(comp, DecomposeConfig(solver="exact", node_budget=500))
        assert result.objective < float(budgeted.assignment.objective)


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

    @pytest.mark.parametrize("budget", [-5, -1, 2.5, float("nan"), True, False, None, "10"])
    def test_node_budget_must_be_a_non_negative_integer(self, budget):
        with pytest.raises(ValueError, match="node_budget must be a non-negative integer"):
            DecomposeConfig(node_budget=budget)

    @pytest.mark.parametrize("budget", [0, 1, np.int64(7), 5_000_000])
    def test_node_budget_accepts_non_negative_integers(self, budget):
        assert DecomposeConfig(node_budget=budget).node_budget == budget

    def test_node_budget_zero_keeps_the_greedy_incumbent(self):
        result = decompose(K4, DecomposeConfig(solver="exact", node_budget=0))
        (report,) = result.per_component
        assert report.nodes_explored == 0 and not report.proven_optimal
        assert result.conflict_count >= 1

    def test_config_has_four_fields(self):
        assert list(DecomposeConfig.__dataclass_fields__) == [
            "solver", "alpha", "node_budget", "seed"
        ]


def two_triangles_bridged():
    return DecompositionGraph.from_edges(
        6, ce=[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
    )


class TestComponentSolver:
    """``ComponentReport.solver`` names the solver that actually ran."""

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
        # goes to the relaxation and the triangle to the exact search
        n = AUTO_THRESHOLD + 5
        big = [(i, j) for i in range(n) for j in range(i + 1, n) if (i + j) % 3]
        tri = [(n, n + 1), (n + 1, n + 2), (n, n + 2)]
        dg = DecompositionGraph.from_edges(n + 3, ce=big + tri + [(n - 1, n)])
        result = decompose_graph(dg, DecomposeConfig(solver="auto"))
        (report,) = result.per_component
        assert report.bridges_cut == 1
        assert report.solver == "mixed"

    def test_single_nodes_run_no_solver(self):
        dg = DecompositionGraph.from_edges(3)
        result = decompose_graph(dg, DecomposeConfig(solver="exact"))
        assert [r.solver for r in result.per_component] == ["none"] * 3
        tree = DecompositionGraph.from_edges(3, ce=[(0, 1), (1, 2)])
        result = decompose_graph(tree, DecomposeConfig(solver="sdp"))
        assert [r.solver for r in result.per_component] == ["none"]
        assert result.per_component[0].bridges_cut == 2


    def test_sdp_iterations_sum_over_pieces(self, monkeypatch):
        iterations = []

        def spy(*args, **kwargs):
            sol = solve_relaxation(*args, **kwargs)
            iterations.append(sol.iterations)
            return sol

        monkeypatch.setattr(trimask.pipeline, "solve_relaxation", spy)
        result = decompose_graph(two_triangles_bridged(), DecomposeConfig(solver="sdp"))
        (report,) = result.per_component
        assert len(iterations) == 2 and all(iterations)
        assert report.sdp_iterations == sum(iterations)
        assert "sdp_iterations" not in str(result.payload())

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

    LAYOUT = Layout(
        shapes=tuple(Shape(id=i, rect=r) for i, r in enumerate([
            (295, 44, 320, 158), (176, 300, 333, 325), (207, 249, 302, 274),
            (355, 193, 380, 489), (368, 90, 673, 115), (195, 184, 354, 209),
        ])),
        params=ProcessParams(),
    )

    def test_redo_replaces_first_pass_reports_and_witnesses(self):
        result = decompose(self.LAYOUT)
        (report,) = result.per_component
        assert report.peel_fallback and report.size == len(result.dg.nodes)
        (witness,) = result.witnesses
        assert witness.edge == (0, 3)
        assert result.objective == 2.0
        assert result.objective == float(brute_force_optimum(result.dg, 0.1).objective)


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
