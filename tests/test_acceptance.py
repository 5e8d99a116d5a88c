"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with -s to see them live)."""

import json
import re
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import k4_graph, random_graph, triangle_graph, worked_example_graph
from trimask.cli import generate_layout, main
from trimask.detection import ConstraintClasses, InfeasibleWitness, propagate_and_check
from trimask.geometry import build_layout_graph, project_and_split
from trimask.graphs import brute_force_optimum, evaluate
from trimask.ilp import solve_exact
from trimask.pipeline import DecomposeConfig, decompose
from trimask.reductions import peel_low_degree
from trimask.sdp import build_cost_matrix, discrete_vector_objective, map_to_masks, solve_relaxation

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from checks import greedy_one_opt  # noqa: E402

ALPHA = 0.1


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {label}")
        raise
    print(f"[PASS] criterion {number}: {label}")


def test_criterion_1_exact_matches_oracle():
    with criterion(1, "exact search equals brute force on 200 random graphs"):
        rng = np.random.default_rng(2024)
        start = time.perf_counter()
        for trial in range(200):
            n = int(rng.integers(1, 13))
            dg = random_graph(rng, n, ce_density=0.3, se_density=0.1)
            got = solve_exact(dg, ALPHA)
            want = brute_force_optimum(dg, ALPHA)
            assert got.proven_optimal, f"trial {trial}: budget must suffice"
            assert got.assignment.conflict_count == want.conflict_count, f"trial {trial}"
            assert got.assignment.stitch_count == want.stitch_count, f"trial {trial}"
            assert got.assignment.objective == want.objective, f"trial {trial}"
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s, expected under 30s"


def test_criterion_2_reference_instance_via_sdp():
    with criterion(2, "five-node reference instance: Gram matrix and grouping"):
        start = time.perf_counter()
        dg = worked_example_graph()
        sol = solve_relaxation(build_cost_matrix(dg, ALPHA))
        idx = {node: k for k, node in enumerate(sol.index)}
        x = sol.v @ sol.v.T
        assert abs(x[idx[1], idx[4]] - 1.0) <= 0.05
        assert abs(x[idx[3], idx[5]] - 1.0) <= 0.05
        for j in (2, 3, 5):
            assert abs(x[idx[1], idx[j]] + 0.5) <= 0.05
        asg = map_to_masks(sol)
        assert asg.colors[1] == asg.colors[4]
        assert asg.colors[3] == asg.colors[5]
        assert len({asg.colors[1], asg.colors[2], asg.colors[3]}) == 3
        assert asg.objective == 0
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s, expected under 1s"


def test_criterion_3_relaxation_lower_bound():
    with criterion(3, "relaxation bounds never exceed the exact optimum"):
        rng = np.random.default_rng(77)
        gaps = []
        certified = 0
        for _ in range(100):
            n = int(rng.integers(2, 11))
            dg = random_graph(rng, n, ce_density=0.3, se_density=0.1)
            sol = solve_relaxation(build_cost_matrix(dg, ALPHA))
            opt = float(brute_force_optimum(dg, ALPHA).objective)
            bound = sol.lower_bound()
            assert bound <= opt + 1e-4
            gaps.append(opt - bound)
            if sol.converged:
                certified += 1
                assert sol.obj_relaxation <= opt + 1e-4
        # the bound is vacuous if it lies far below the optimum; measured: a
        # median gap of 0.0023 and a largest of 0.34
        assert np.median(gaps) <= 0.01, f"median gap {np.median(gaps):.4f}"
        assert max(gaps) <= 0.5, f"largest gap {max(gaps):.4f}"
        # the count measured under the one relaxation rule
        assert certified == 40, f"{certified}/100 runs certified convergence, expected 40"


def test_criterion_4_reductions_preserve_optimality():
    with criterion(4, "peel+bridge+component pipeline is exact on 100 small layouts"):
        checked = 0
        seed = 0
        while checked < 100:
            seed += 1
            assert seed < 600, "generator must yield enough oracle-sized layouts"
            layout = generate_layout(3 + seed % 8, [0, 2, 4, 6][seed % 4], seed=seed)
            lg = build_layout_graph(layout)
            residual, _ = peel_low_degree(lg)
            dg = project_and_split(layout, lg, split_nodes=residual.nodes)
            if len(dg.segments) > 14:
                continue
            checked += 1
            result = decompose(layout, DecomposeConfig(solver="exact"))
            oracle = brute_force_optimum(result.dg, layout.params.alpha)
            assert result.assignment.objective == oracle.objective, (
                f"seed {seed}: pipeline {result.assignment.objective} "
                f"vs oracle {oracle.objective}"
            )


def test_criterion_5_vector_objective_identity():
    with criterion(5, "vector-form objective equals edge-count objective as rationals"):
        rng = np.random.default_rng(5150)
        for _ in range(1000):
            n = int(rng.integers(1, 12))
            dg = random_graph(rng, n, ce_density=0.35, se_density=0.15)
            colors = {node: int(rng.integers(0, 3)) for node in dg.nodes}
            lhs = discrete_vector_objective(colors, dg, ALPHA)
            rhs = evaluate(dg, colors, ALPHA).objective
            assert isinstance(lhs, Fraction) and isinstance(rhs, Fraction)
            assert lhs == rhs


def test_criterion_6_detection_soundness():
    with criterion(6, "infeasibility verdicts are sound; blind spot is pinned"):
        rng = np.random.default_rng(33)
        flagged = 0
        for _ in range(120):
            n = int(rng.integers(4, 13))
            dg = random_graph(rng, n, ce_density=0.4, se_density=0.0)
            verdict = propagate_and_check(dg.nodes, dg.ce)
            if isinstance(verdict, InfeasibleWitness):
                flagged += 1
                oracle = brute_force_optimum(dg, ALPHA)
                assert oracle.conflict_count >= 1
        assert flagged >= 5

        bowtie_edges = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]
        bowtie = propagate_and_check(range(4), bowtie_edges)
        assert isinstance(bowtie, ConstraintClasses) and bowtie.joint(0, 3)

        k4 = k4_graph()
        assert isinstance(propagate_and_check(k4.nodes, k4.ce), InfeasibleWitness)

        from test_detection import grotzsch_graph

        nodes, edges = grotzsch_graph()
        verdict = propagate_and_check(nodes, edges)
        assert isinstance(verdict, ConstraintClasses), "blind spot must stay undetected"
        from trimask.graphs import DecompositionGraph

        undetected = DecompositionGraph.from_edges(nodes, ce=edges)
        assert brute_force_optimum(undetected, ALPHA).conflict_count >= 1


def test_criterion_7_dense_benchmark_tradeoff():
    with criterion(7, "dense benchmark: relaxation pipeline faster, never better"):
        # seed calibrated so the exact search closes but grinds: 1.5 M
        # search nodes in about 1.1 s, against 0.07-0.10 s for the
        # relaxation on a 2-CPU x86-64 host
        layout = generate_layout(40, 6.0, seed=6)
        t0 = time.perf_counter()
        exact = decompose(layout, DecomposeConfig(solver="exact", node_budget=60_000_000))
        exact_wall = time.perf_counter() - t0
        assert exact.proven_optimal

        t0 = time.perf_counter()
        sdp = decompose(layout, DecomposeConfig(solver="sdp"))
        sdp_wall = time.perf_counter() - t0

        assert sdp_wall < exact_wall, f"sdp {sdp_wall:.2f}s vs exact {exact_wall:.2f}s"
        assert sdp.objective >= exact.objective
        ratio = sdp.objective / exact.objective if exact.objective else float("inf")
        print(
            f"  dense N=40: exact obj {exact.objective:.1f} in {exact_wall:.2f}s, "
            f"sdp obj {sdp.objective:.1f} in {sdp_wall:.2f}s, "
            f"objective ratio {ratio:.2f}, speedup {exact_wall / sdp_wall:.1f}x"
        )


def test_criterion_8_triangle_and_k4_anchors():
    with criterion(8, "triangle resolves conflict-free; clique pays exactly one"):
        tri = triangle_graph()
        assert solve_exact(tri, ALPHA).assignment.conflict_count == 0

        k4 = k4_graph()
        assert solve_exact(k4, ALPHA).assignment.conflict_count == 1
        sol = solve_relaxation(build_cost_matrix(k4, ALPHA))
        sdp_asg = map_to_masks(sol)
        assert sdp_asg.conflict_count >= 1


MASK_WALL = re.compile(rb'"wall_s": [0-9eE+.\-]+')


def test_criterion_9_seeded_runs_are_byte_identical(tmp_path):
    with criterion(9, "same seed, same bytes (timing field masked in stats)"):
        layout_path = tmp_path / "bench.json"
        assert main(["gen", "--shapes", "30", "--density", "6", "--seed", "11",
                     "--out", str(layout_path)]) == 0

        outputs = []
        for tag in ("a", "b"):
            out = tmp_path / f"assignment_{tag}.json"
            stats = tmp_path / f"stats_{tag}.json"
            svg = tmp_path / f"render_{tag}.svg"
            code = main([
                "decompose", "--input", str(layout_path), "--solver", "auto",
                "--seed", "11", "--out", str(out), "--stats", str(stats),
                "--svg", str(svg),
            ])
            assert code == 0
            outputs.append((out.read_bytes(), stats.read_bytes(), svg.read_bytes()))

        (out_a, stats_a, svg_a), (out_b, stats_b, svg_b) = outputs
        assert out_a == out_b, "assignment files must match byte for byte"
        assert svg_a == svg_b, "renderings must match byte for byte"
        # wall time is genuinely nondeterministic; mask that single value and
        # require the rest of the stats bytes to be identical
        assert len(MASK_WALL.findall(stats_a)) == 1
        assert len(MASK_WALL.findall(stats_b)) == 1
        assert MASK_WALL.sub(b"WALL", stats_a) == MASK_WALL.sub(b"WALL", stats_b)


def test_criterion_10_auto_beats_cheap_baselines():
    with criterion(10, "auto beats greedy + 1-opt, half the random-coloring mean and 135.2"):
        layout = generate_layout(400, 6, seed=1)
        result = decompose(layout, DecomposeConfig(solver="auto"))
        dg, alpha = result.dg, result.assignment.alpha
        greedy = float(greedy_one_opt(dg.nodes, dg.ce, dg.se, alpha))
        random_mean = float(np.mean([
            float(evaluate(dg, dict(zip(dg.nodes, draw.tolist())), alpha).objective)
            for draw in (np.random.default_rng(s).integers(0, 3, len(dg.nodes)) for s in range(20))
        ]))
        print(f"  400 shapes, d=6: auto {result.objective:.1f}, greedy + 1-opt {greedy:.1f}, "
              f"random mean {random_mean:.1f}")
        assert result.objective <= greedy
        assert result.objective <= 135.2  # one draw polished out of 50 scored this
        assert result.objective <= random_mean / 2
