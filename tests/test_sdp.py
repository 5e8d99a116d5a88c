import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import k4_graph, random_graph, triangle_graph, worked_example_graph
from trimask.graphs import DecompositionGraph, brute_force_optimum, evaluate
from trimask.sdp import (
    MASK_VECTORS,
    MappingInfo,
    MappingParams,
    RelaxationSolution,
    SdpConfig,
    _edge_positions,
    _Groups,
    _penalized_value,
    _riemannian_grad,
    _scatter_cells,
    build_cost_matrix,
    discrete_vector_objective,
    map_to_masks,
    solve_relaxation,
)
from trimask.unionfind import DisjointSet


class TestMaskVectors:
    def test_unit_norm(self):
        for v in MASK_VECTORS:
            assert abs(v[0] ** 2 + v[1] ** 2 - 1.0) < 1e-12

    def test_pairwise_dots(self):
        for i, a in enumerate(MASK_VECTORS):
            for j, b in enumerate(MASK_VECTORS):
                dot = a[0] * b[0] + a[1] * b[1]
                expected = 1.0 if i == j else -0.5
                assert abs(dot - expected) < 1e-12


class TestCostMatrix:
    def test_worked_example_first_row(self):
        cm = build_cost_matrix(worked_example_graph(), 0.1)
        assert cm.index == (1, 2, 3, 4, 5)
        np.testing.assert_allclose(cm.matrix[0], [0, 1, 1, -0.1, 1])
        np.testing.assert_allclose(cm.matrix, cm.matrix.T)

    def test_no_edges_zero(self):
        cm = build_cost_matrix(DecompositionGraph.from_edges(3), 0.1)
        assert not cm.matrix.any()

    def test_single_conflict_pair(self):
        cm = build_cost_matrix(DecompositionGraph.from_edges(2, ce=[(0, 1)]), 0.1)
        assert cm.matrix[0, 1] == 1.0 and cm.matrix[1, 0] == 1.0


class TestVectorObjective:
    def test_conflict_same_color_contributes_one(self):
        dg = DecompositionGraph.from_edges(2, ce=[(0, 1)])
        assert discrete_vector_objective({0: 1, 1: 1}, dg, 0.1) == 1

    def test_conflict_distinct_contributes_zero(self):
        dg = DecompositionGraph.from_edges(2, ce=[(0, 1)])
        assert discrete_vector_objective({0: 0, 1: 2}, dg, 0.1) == 0

    def test_stitch_terms(self):
        dg = DecompositionGraph.from_edges(2, se=[(0, 1)])
        assert discrete_vector_objective({0: 0, 1: 0}, dg, 0.1) == 0
        assert discrete_vector_objective({0: 0, 1: 1}, dg, 0.1) == Fraction(1, 10)

    def test_identity_with_evaluate(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 11))
            dg = random_graph(rng, n)
            colors = {node: int(rng.integers(0, 3)) for node in dg.nodes}
            assert discrete_vector_objective(colors, dg, 0.1) == \
                evaluate(dg, colors, 0.1).objective


class TestRelaxation:
    def test_triangle_analytic_optimum(self):
        dg = triangle_graph()
        sol = solve_relaxation(build_cost_matrix(dg, 0.1), dg)
        assert sol.converged
        for i in range(3):
            assert abs(sol.x[i, i] - 1.0) < 1e-6
            for j in range(i + 1, 3):
                assert abs(sol.x[i, j] + 0.5) < 1e-4
        assert abs(sol.obj_relaxation) < 1e-4

    def test_single_node(self):
        dg = DecompositionGraph.from_edges(1)
        sol = solve_relaxation(build_cost_matrix(dg, 0.1), dg)
        assert sol.converged
        np.testing.assert_allclose(sol.x, [[1.0]])

    def test_empty_graph(self):
        dg = DecompositionGraph.from_edges(0)
        sol = solve_relaxation(build_cost_matrix(dg, 0.1), dg)
        assert sol.converged and sol.x.shape == (0, 0)

    def test_worked_example_matches_reference_matrix(self):
        dg = worked_example_graph()
        sol = solve_relaxation(build_cost_matrix(dg, 0.1), dg)
        idx = {node: k for k, node in enumerate(sol.index)}
        assert abs(sol.x[idx[1], idx[4]] - 1.0) <= 0.05
        assert abs(sol.x[idx[3], idx[5]] - 1.0) <= 0.05
        for j in (2, 3, 5):
            assert abs(sol.x[idx[1], idx[j]] + 0.5) <= 0.05

    def test_factor_consistency(self, rng):
        dg = random_graph(rng, 7)
        sol = solve_relaxation(build_cost_matrix(dg, 0.1), dg)
        assert np.max(np.abs(sol.x - sol.v @ sol.v.T)) <= 1e-8

    def test_psd_within_tolerance(self, rng):
        dg = random_graph(rng, 8)
        sol = solve_relaxation(build_cost_matrix(dg, 0.1), dg)
        assert np.linalg.eigvalsh(sol.x).min() >= -1e-6

    def test_k4_relaxation_value(self):
        # tetrahedral configuration: all entries -1/3, objective 2/3
        dg = k4_graph()
        sol = solve_relaxation(build_cost_matrix(dg, 0.1), dg)
        assert sol.converged
        assert abs(sol.obj_relaxation - 2.0 / 3.0) < 1e-3

    def test_lower_bound_when_converged(self, rng):
        checked = 0
        for _ in range(15):
            n = int(rng.integers(3, 11))
            dg = random_graph(rng, n)
            sol = solve_relaxation(build_cost_matrix(dg, 0.1), dg)
            if not sol.converged:
                continue
            checked += 1
            opt = float(brute_force_optimum(dg, 0.1).objective)
            assert sol.obj_relaxation <= opt + 1e-4
        assert checked >= 8

    def test_deterministic(self, rng):
        dg = random_graph(rng, 6)
        cm = build_cost_matrix(dg, 0.1)
        a = solve_relaxation(cm, dg)
        b = solve_relaxation(cm, dg)
        assert np.array_equal(a.x, b.x)


def add_at_value_and_gradient(v, w, mu, ce, shift=None):
    """Reference penalized value, hinge and sphere gradient: ``w @ v`` and
    the endpoint rows computed afresh for each, and the hinge terms added by
    two ``np.add.at`` scatters, first endpoints first. The fast path must
    reproduce it bit for bit, since the rounding depends on the last bits."""
    x_ce = (v[ce[:, 0]] * v[ce[:, 1]]).sum(axis=1) if len(ce) else np.zeros(0)
    base = 0.5 * float(np.sum((w @ v) * v))
    raw = -0.5 - x_ce
    if shift is None:
        hinge = np.maximum(0.0, raw)
        value = base + mu * float(hinge @ hinge)
    else:
        hinge = np.maximum(0.0, raw + shift)
        value = base + mu * float(hinge @ hinge - shift @ shift)
    grad = w @ v
    if len(ce) and mu and hinge.any():
        coef = -2.0 * mu * hinge
        np.add.at(grad, ce[:, 0], coef[:, None] * v[ce[:, 1]])
        np.add.at(grad, ce[:, 1], coef[:, None] * v[ce[:, 0]])
    radial = (grad * v).sum(axis=1, keepdims=True)
    return value, hinge, grad - radial * v


class TestGradientAccumulation:
    @staticmethod
    def fast(v, w, mu, ce, shift=None):
        value, *parts = _penalized_value(v, w, mu, ce, shift)
        return value, parts[0], _riemannian_grad(v, mu, *parts, _scatter_cells(ce, *v.shape))

    @staticmethod
    def instance(rng, n, rank, ce_density):
        dg = random_graph(rng, n, ce_density=ce_density)
        w = build_cost_matrix(dg, 0.1).matrix
        ce, _ = _edge_positions(dg, dg.nodes)
        v = rng.normal(size=(n, rank))
        return v / np.linalg.norm(v, axis=1, keepdims=True), w, ce

    def test_matches_add_at_reference_bit_for_bit(self, rng):
        active = 0
        for _ in range(60):
            n = int(rng.integers(2, 41))
            v, w, ce = self.instance(rng, n, int(rng.integers(1, 9)), rng.uniform(0.2, 0.9))
            mu = float(rng.choice([4.0, 40.0, 400.0]))
            shifts = [None, rng.uniform(-0.2, 0.5, size=len(ce)), np.zeros(len(ce))]
            for shift in shifts:
                value, hinge, grad = self.fast(v, w, mu, ce, shift)
                ref_value, ref_hinge, ref_grad = add_at_value_and_gradient(v, w, mu, ce, shift)
                assert value == ref_value
                assert np.array_equal(hinge, ref_hinge)
                assert np.array_equal(grad, ref_grad)
                active += bool(hinge.any())
        assert active >= 100  # most cases scatter hinge terms

    def test_all_zero_hinge_and_no_edges(self, rng):
        v, w, ce = self.instance(rng, 12, 4, 0.5)
        v[:] = v[0]  # every conflict dot is 1, so no wall is touched
        for shift in (None, np.zeros(len(ce))):
            value, hinge, grad = self.fast(v, w, 40.0, ce, shift)
            assert len(ce) and not hinge.any()
            ref_value, _, ref_grad = add_at_value_and_gradient(v, w, 40.0, ce, shift)
            assert value == ref_value and np.array_equal(grad, ref_grad)
        v, w, ce = self.instance(rng, 6, 3, 0.0)
        assert len(ce) == 0
        _, _, grad = self.fast(v, w, 4.0, ce)
        assert np.array_equal(grad, add_at_value_and_gradient(v, w, 4.0, ce)[2])


def reference_solution(dg, x, alpha=0.1):
    """Wrap an explicit Gram matrix for mapping tests."""
    nodes = dg.nodes
    pos = {n: k for k, n in enumerate(nodes)}
    ce = [(pos[u], pos[v]) for u, v in sorted(dg.ce)]
    se = [(pos[u], pos[v]) for u, v in sorted(dg.se)]
    return RelaxationSolution.from_matrix(
        np.array(x, dtype=float), nodes,
        np.array(ce, dtype=int).reshape(-1, 2),
        np.array(se, dtype=int).reshape(-1, 2),
        alpha,
    )


def linear_scan_rounding(sol, params):
    """Reference rounding that checks each merge by scanning the whole list
    of recorded separations. Returns (groups, forced unions, ignored
    separations) for comparison with ``map_to_masks``'s ``MappingInfo``."""
    nodes = sol.index
    n = len(nodes)
    triplets = []
    for i in range(n):
        for j in range(i + 1, n):
            value = float(sol.x[i, j])
            if value != 0.0:
                triplets.append((value, nodes[i], nodes[j]))
    triplets.sort(key=lambda t: (-t[0], t[1], t[2]))

    dsu = DisjointSet(nodes)
    separations = []
    forced = ignored = 0

    def compatible(i, j):
        ri, rj = dsu.find(i), dsu.find(j)
        for a, b in separations:
            ra, rb = dsu.find(a), dsu.find(b)
            if (ra == ri and rb == rj) or (ra == rj and rb == ri):
                return False
        return True

    for k in range(params.rounds):
        for value, i, j in triplets:
            if value <= params.union_levels[k]:
                break
            if not dsu.same(i, j) and compatible(i, j):
                dsu.union(i, j)
        for value, i, j in triplets:
            if value >= params.sepa_levels[k]:
                continue
            if dsu.same(i, j):
                ignored += 1
                continue
            separations.append((i, j))

    cursor = 0
    while len({dsu.find(node) for node in nodes}) > 3:
        merged = False
        while cursor < len(triplets):
            value, i, j = triplets[cursor]
            if not dsu.same(i, j) and compatible(i, j):
                dsu.union(i, j)
                merged = True
                break
            cursor += 1
        if merged:
            continue
        pair = next(((i, j) for _, i, j in triplets if not dsu.same(i, j)), None)
        if pair is None:
            pair = next((i, j) for i in nodes for j in nodes if i < j and not dsu.same(i, j))
        dsu.union(*pair)
        forced += 1
    groups = sorted(dsu.groups().values(), key=lambda members: members[0])
    return tuple(tuple(g) for g in groups), forced, ignored


def gram_solution(x, index):
    """Wrap a symmetric matrix as is, without refactoring it."""
    return RelaxationSolution(
        x=np.asarray(x, dtype=float), v=np.zeros((len(index), 0)), index=tuple(index),
        obj_simplified=0.0, obj_relaxation=0.0, converged=True, grad_norm=0.0,
        max_violation=0.0,
    )


WORKED_X = [
    [1.0, -0.5, -0.5, 1.0, -0.5],
    [-0.5, 1.0, -0.5, -0.5, -0.5],
    [-0.5, -0.5, 1.0, -0.5, 1.0],
    [1.0, -0.5, -0.5, 1.0, -0.5],
    [-0.5, -0.5, 1.0, -0.5, 1.0],
]


class TestMapping:
    def test_worked_example_grouping(self):
        dg = worked_example_graph()
        sol = reference_solution(dg, WORKED_X)
        asg = map_to_masks(sol, dg, alpha=0.1)
        assert asg.colors[1] == asg.colors[4]
        assert asg.colors[3] == asg.colors[5]
        assert len({asg.colors[1], asg.colors[2], asg.colors[3]}) == 3
        assert asg.objective == 0

    def test_identity_matrix_three_singletons(self):
        dg = DecompositionGraph.from_edges(3)
        sol = reference_solution(dg, np.eye(3))
        asg = map_to_masks(sol, dg, alpha=0.1)
        assert sorted(asg.colors.values()) == [0, 1, 2]

    def test_never_beats_oracle(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 10))
            dg = random_graph(rng, n)
            sol = solve_relaxation(build_cost_matrix(dg, 0.1), dg)
            mapped = map_to_masks(sol, dg, alpha=0.1)
            assert mapped.objective >= brute_force_optimum(dg, 0.1).objective

    def test_mapping_deterministic(self, rng):
        dg = random_graph(rng, 8)
        sol = solve_relaxation(build_cost_matrix(dg, 0.1), dg)
        a = map_to_masks(sol, dg, alpha=0.1)
        b = map_to_masks(sol, dg, alpha=0.1)
        assert a.colors == b.colors

    def test_params_validation(self):
        with pytest.raises(ValueError):
            MappingParams(union_levels=(0.9, 0.8), sepa_levels=(-0.4,))
        with pytest.raises(ValueError):
            MappingParams(union_levels=(-0.6,), sepa_levels=(-0.7,))
        with pytest.raises(ValueError):
            MappingParams(union_levels=(0.5,), sepa_levels=(0.6,))

    def test_forced_union_flagged(self):
        # tetrahedral X separates every pair at level -0.3, forcing a flagged
        # merge to get down to three groups
        dg = DecompositionGraph.from_edges(4, ce=[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        x = np.full((4, 4), -1.0 / 3.0)
        np.fill_diagonal(x, 1.0)
        sol = reference_solution(dg, x)
        info = MappingInfo()
        map_to_masks(sol, dg, MappingParams(union_levels=(0.9,), sepa_levels=(-0.3,)),
                     alpha=0.1, info=info)
        assert info.forced_unions >= 1

    @pytest.mark.parametrize("chunk", [_Groups.CHUNK, 5])
    def test_matches_linear_scan_reference(self, rng, monkeypatch, chunk):
        monkeypatch.setattr(_Groups, "CHUNK", chunk)  # 5 walks across chunk ends
        def planted(n):
            part = rng.integers(0, int(rng.integers(3, 6)), size=n)
            same = part[:, None] == part[None, :]
            x = np.where(same, rng.uniform(0.5, 1.0, (n, n)), rng.uniform(-0.55, -0.1, (n, n)))
            return x + rng.normal(scale=0.15, size=(n, n))

        def low_rank(n):
            v = rng.normal(size=(n, int(rng.integers(2, 5))))
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            return v @ v.T

        def coarse(n):
            # a coarse grid gives exact ties and zero entries
            return np.round(rng.uniform(-0.6, 1.0, (n, n)) * 4) / 4

        param_sets = [
            MappingParams(),
            MappingParams(union_levels=(0.9,), sepa_levels=(-0.3,)),
            MappingParams(union_levels=(0.9, 0.6), sepa_levels=(-0.4, -0.2)),
            MappingParams(union_levels=(0.95, 0.75, 0.5), sepa_levels=(-0.45, -0.25, 0.0)),
        ]
        forced = ignored = 0
        for case in range(60):
            n = int(rng.integers(4, 31))
            x = (planted, low_rank, coarse)[case % 3](n)
            x = np.triu(x, 1) + np.triu(x, 1).T
            np.fill_diagonal(x, 1.0)
            ids = sorted(rng.choice(1000, size=n, replace=False).tolist())
            index = list(ids)
            if case % 2:
                rng.shuffle(index)  # ties break on node ids, not positions
            sol = gram_solution(x, index)
            dg = DecompositionGraph.from_edges(ids)
            for params in param_sets:
                info = MappingInfo()
                map_to_masks(sol, dg, params, alpha=0.1, info=info)
                expected = linear_scan_rounding(sol, params)
                assert (info.groups, info.forced_unions, info.ignored_separations) == expected
                forced += info.forced_unions
                ignored += info.ignored_separations
        assert forced and ignored  # both the forced and the ignored paths ran

    def test_forced_unions_match_linear_scan_reference(self):
        # tetrahedral X separates every pair; an all-zero X has no entry to
        # merge along, so every union is forced through the node-pair scan
        tetra = np.full((4, 4), -1.0 / 3.0)
        np.fill_diagonal(tetra, 1.0)
        for x, index in ((tetra, (0, 1, 2, 3)), (np.eye(6), (9, 4, 7, 1, 8, 3))):
            sol = gram_solution(x, index)
            dg = DecompositionGraph.from_edges(sorted(index))
            for params in (MappingParams(union_levels=(0.9,), sepa_levels=(-0.3,)),
                           MappingParams(union_levels=(0.9, 0.5), sepa_levels=(-0.4, -0.3))):
                info = MappingInfo()
                map_to_masks(sol, dg, params, alpha=0.1, info=info)
                assert info.forced_unions >= 1
                assert (info.groups, info.forced_unions, info.ignored_separations) == \
                    linear_scan_rounding(sol, params)

    def test_visitation_scales_quadratically(self):
        # sorted-triplet mapping grows like n^2 log n, so doubling n may cost
        # at most 5x; best-of-7 timing with a warmup keeps the measure stable.
        # The uniform input merges almost everything in the greedy tail; the
        # planted 3-partition records separations between all cross-group
        # pairs, so every merge in the tail is checked against them.
        def uniform(rng, n):
            return rng.uniform(-0.45, 0.95, size=(n, n))

        def planted(rng, n):
            part = rng.integers(0, 3, size=n)
            same = part[:, None] == part[None, :]
            return np.where(same, rng.uniform(0.3, 0.92, size=(n, n)),
                            rng.uniform(-0.5, -0.45, size=(n, n)))

        def timer(draw, n):
            rng = np.random.default_rng(0)
            x = draw(rng, n)
            x = (x + x.T) / 2
            np.fill_diagonal(x, 1.0)
            dg = DecompositionGraph.from_edges(n)
            sol = gram_solution(x, dg.nodes)
            t0 = time.perf_counter()
            map_to_masks(sol, dg, alpha=0.1)  # warmup
            # a sample spans at least ~50 ms, longer than a burst of host noise
            calls = max(1, int(0.05 / (time.perf_counter() - t0)))

            def sample():
                t0 = time.perf_counter()
                for _ in range(calls):
                    map_to_masks(sol, dg, alpha=0.1)
                return (time.perf_counter() - t0) / calls

            return sample

        for draw, n in ((uniform, 300), (planted, 100)):
            slow, fast = timer(draw, 2 * n), timer(draw, n)
            # the two sizes alternate, so a drift in host speed hits both
            samples = [(slow(), fast()) for _ in range(7)]
            ratio = min(s for s, _ in samples) / min(f for _, f in samples)
            assert ratio <= 5.0, draw.__name__
