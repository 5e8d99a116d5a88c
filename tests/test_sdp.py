import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trimask.sdp
from conftest import k4_graph, random_graph, triangle_graph, worked_example_graph
from trimask.graphs import DecompositionGraph, as_fraction, brute_force_optimum, evaluate
from trimask.ilp import solve_exact
from trimask.sdp import (
    CONSTRAINT_TOL,
    DRAWS,
    GRAD_TOL,
    MASK_VECTORS,
    MAX_ITERS,
    MU_INITIAL,
    MULTIPLIER_ROUNDS,
    RANK,
    TABU_ITERATIONS,
    TABU_SPREAD,
    TABU_TENURE,
    RelaxationSolution,
    _edge_positions,
    _edge_terms,
    _integer_costs,
    _max_violation,
    _minimize_on_sphere,
    _neighbor_links,
    _normalize_rows,
    _one_opt,
    _penalized_value,
    _riemannian_grad,
    _tabu_search,
    build_cost_matrix,
    discrete_vector_objective,
    map_to_masks,
    polish,
    solve_relaxation,
)


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


def edge_list_value(cm, v):
    """The relaxation's edge-list value Σ_e w_e·x_e of the factor ``v``: the
    penalized value at zero penalty weight."""
    return _penalized_value(v, _edge_terms(cm, v.shape[1]), 0.0, np.zeros(len(cm.ce)))[0]


def random_unit_factor(rng, n, rank):
    v = rng.normal(size=(n, rank))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


class TestCostMatrix:
    def test_worked_example_first_row(self):
        cm = build_cost_matrix(worked_example_graph(), 0.1)
        assert cm.index == (1, 2, 3, 4, 5)
        # node 1 conflicts with nodes 2, 3 and 5 and is stitched to node 4
        assert [pair for pair in cm.ce.tolist() if 0 in pair] == [[0, 1], [0, 2], [0, 4]]
        assert cm.se.tolist() == [[0, 3]]

    def test_no_edges_zero(self, rng):
        cm = build_cost_matrix(DecompositionGraph.from_edges(3), 0.1)
        assert cm.ce.shape == cm.se.shape == (0, 2)
        assert edge_list_value(cm, random_unit_factor(rng, 3, 3)) == 0.0

    def test_single_conflict_pair(self):
        cm = build_cost_matrix(DecompositionGraph.from_edges(2, ce=[(0, 1)]), 0.1)
        assert cm.ce.tolist() == [[0, 1]] and cm.se.shape == (0, 2)
        # the pair's weight is 1: the value is the pair's dot product
        assert edge_list_value(cm, np.array([[1.0, 0.0], [0.6, 0.8]])) == 0.6

    @staticmethod
    def loop_built(dg, alpha):
        """The matrix filled one edge at a time, conflicts then stitches."""
        pos = {node: k for k, node in enumerate(dg.nodes)}
        a = float(as_fraction(alpha))
        m = np.zeros((len(dg.nodes), len(dg.nodes)))
        for u, v in dg.ce:
            m[pos[u], pos[v]] = m[pos[v], pos[u]] = 1.0
        for u, v in dg.se:
            m[pos[u], pos[v]] = m[pos[v], pos[u]] = -a
        return m

    @staticmethod
    def sparse_ids(rng, n):
        """A random graph on non-contiguous node ids."""
        dg = random_graph(rng, n, ce_density=0.4, se_density=0.2)
        ids = sorted(rng.choice(10 * n, size=n, replace=False).tolist())
        relabel = dict(zip(range(n), ids))
        return DecompositionGraph.from_edges(
            ids, ce=[(relabel[u], relabel[v]) for u, v in dg.ce],
            se=[(relabel[u], relabel[v]) for u, v in dg.se],
        )

    @pytest.mark.parametrize("alpha", [0.1, Fraction(1, 3), 2])
    def test_equals_the_loop_built_matrix(self, rng, alpha):
        # the edge lists hold the loop-built W: at random unit factors their
        # value is ½⟨W v, v⟩
        graphs = [self.sparse_ids(rng, int(rng.integers(2, 25))) for _ in range(20)]
        graphs += [worked_example_graph(), DecompositionGraph.from_edges([3, 8, 40])]
        for dg in graphs:
            cm = build_cost_matrix(dg, alpha)
            assert cm.alpha == as_fraction(alpha) and cm.index == dg.nodes
            w = self.loop_built(dg, alpha)
            for rank in (1, 3, RANK):
                v = random_unit_factor(rng, len(dg.nodes), rank)
                expected = 0.5 * float(np.sum((w @ v) * v))
                assert abs(edge_list_value(cm, v) - expected) <= 1e-12

    def test_pairs_are_sorted_positions(self, rng):
        for _ in range(20):
            dg = self.sparse_ids(rng, int(rng.integers(1, 25)))
            cm = build_cost_matrix(dg, 0.1)
            pos = {node: k for k, node in enumerate(dg.nodes)}
            for got, edges in ((cm.ce, dg.ce), (cm.se, dg.se)):
                assert got.shape == (len(edges), 2)
                assert got.tolist() == sorted([pos[u], pos[v]] for u, v in edges)
                assert (got[:, 0] < got[:, 1]).all()

    def test_rounding_scores_with_the_matrix_alpha(self, rng):
        dg = self.sparse_ids(rng, 12)
        cost = build_cost_matrix(dg, Fraction(1, 3))
        asg = map_to_masks(solve_relaxation(cost))
        assert asg.alpha == cost.alpha == Fraction(1, 3)


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
        sol = solve_relaxation(build_cost_matrix(dg, 0.1))
        assert sol.converged
        x = sol.v @ sol.v.T
        for i in range(3):
            assert abs(x[i, i] - 1.0) < 1e-6
            for j in range(i + 1, 3):
                assert abs(x[i, j] + 0.5) < 1e-4
        assert abs(sol.obj_relaxation) < 1e-4

    def test_single_node(self):
        dg = DecompositionGraph.from_edges(1)
        sol = solve_relaxation(build_cost_matrix(dg, 0.1))
        assert sol.converged
        np.testing.assert_allclose(sol.v @ sol.v.T, [[1.0]])

    def test_empty_graph(self):
        dg = DecompositionGraph.from_edges(0)
        sol = solve_relaxation(build_cost_matrix(dg, 0.1))
        assert sol.converged and (sol.v @ sol.v.T).shape == (0, 0)

    def test_worked_example_matches_reference_matrix(self):
        dg = worked_example_graph()
        sol = solve_relaxation(build_cost_matrix(dg, 0.1))
        idx = {node: k for k, node in enumerate(sol.index)}
        x = sol.v @ sol.v.T
        assert abs(x[idx[1], idx[4]] - 1.0) <= 0.05
        assert abs(x[idx[3], idx[5]] - 1.0) <= 0.05
        for j in (2, 3, 5):
            assert abs(x[idx[1], idx[j]] + 0.5) <= 0.05

    def test_psd_within_tolerance(self, rng):
        dg = random_graph(rng, 8)
        sol = solve_relaxation(build_cost_matrix(dg, 0.1))
        assert np.linalg.eigvalsh(sol.v @ sol.v.T).min() >= -1e-6

    def test_k4_relaxation_value(self):
        # tetrahedral configuration: all entries -1/3, objective 2/3
        dg = k4_graph()
        sol = solve_relaxation(build_cost_matrix(dg, 0.1))
        assert sol.converged
        assert abs(sol.obj_relaxation - 2.0 / 3.0) < 1e-3

    def test_lower_bound_when_converged(self, rng):
        gaps = []
        certified = 0
        for _ in range(15):
            n = int(rng.integers(3, 11))
            dg = random_graph(rng, n)
            sol = solve_relaxation(build_cost_matrix(dg, 0.1))
            opt = float(brute_force_optimum(dg, 0.1).objective)
            bound = sol.lower_bound()
            assert bound <= opt + 1e-4
            gaps.append(opt - bound)
            if sol.converged:
                certified += 1
                assert sol.obj_relaxation <= opt + 1e-4
        # measured: a median gap of 0.016 and a largest of 0.36, and one
        # certified run
        assert np.median(gaps) <= 0.05 and max(gaps) <= 0.5
        assert certified == 1

    def test_deterministic(self, rng):
        dg = random_graph(rng, 6)
        cm = build_cost_matrix(dg, 0.1)
        a = solve_relaxation(cm)
        b = solve_relaxation(cm)
        assert np.array_equal(a.v, b.v)


class TestStallStop:
    """A descent ends once its value stops improving."""

    @staticmethod
    def instance(n, seed=3):
        rng = np.random.default_rng(seed)
        cost = build_cost_matrix(random_graph(rng, n, ce_density=0.3, se_density=0.1), 0.1)
        v = _normalize_rows(rng.normal(size=(n, RANK)))
        return _edge_terms(cost, RANK), np.zeros(len(cost.ce)), v

    def test_ends_a_large_descent_early_without_raising_its_value(self, monkeypatch):
        # the relaxation's first descent: MU_INITIAL, at most MAX_ITERS
        # iterations; the reference runs with a window no descent reaches
        edges, zero, v0 = self.instance(40)
        start, *_ = _penalized_value(v0, edges, MU_INITIAL, zero)
        v, _, used = _minimize_on_sphere(v0, edges, MU_INITIAL, MAX_ITERS, zero)
        monkeypatch.setattr(trimask.sdp, "STALL_WINDOW", MAX_ITERS + 1)
        _, _, unstopped = _minimize_on_sphere(v0, edges, MU_INITIAL, MAX_ITERS, zero)
        assert used < unstopped <= MAX_ITERS
        assert _penalized_value(v, edges, MU_INITIAL, zero)[0] < start

    @staticmethod
    def large_instance():
        # 3000 nodes and about 2 conflict pairs per node: one n × n float
        # array alone would take 72 MB
        n = 3000
        rng = np.random.default_rng(5)
        pairs = {tuple(sorted(p)) for p in rng.integers(n, size=(2 * n, 2)).tolist() if p[0] != p[1]}
        cost = build_cost_matrix(DecompositionGraph.from_edges(n, ce=sorted(pairs)), 0.1)
        return cost, _normalize_rows(rng.normal(size=(n, RANK)))

    @staticmethod
    def traced_peak(run) -> int:
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_a_large_descent_allocates_no_square_array(self):
        cost, v = self.large_instance()
        edges = _edge_terms(cost, RANK)
        zero = np.zeros(len(cost.ce))
        peak = self.traced_peak(lambda: _minimize_on_sphere(v, edges, MU_INITIAL, 200, zero))
        assert peak < 16 * 2**20

    def test_a_large_relaxation_allocates_no_square_array(self):
        cost, _ = self.large_instance()
        assert self.traced_peak(lambda: solve_relaxation(cost)) < 16 * 2**20


def assert_one_rule(descents, ce):
    """The relaxation's one rule: every descent at ``MU_INITIAL``, the first
    unshifted, and a multiplier round only after a descent that met
    ``GRAD_TOL`` but broke the floor, at most ``MULTIPLIER_ROUNDS`` times."""
    assert 1 <= len(descents) <= 1 + MULTIPLIER_ROUNDS
    assert all(d.mu == MU_INITIAL for d in descents)
    assert not descents[0].shift.any()
    for d in descents[:-1]:
        assert d.grad_norm < GRAD_TOL and _max_violation(d.v, ce) > CONSTRAINT_TOL
    last = descents[-1]
    if len(descents) <= MULTIPLIER_ROUNDS:
        assert last.grad_norm >= GRAD_TOL or _max_violation(last.v, ce) <= CONSTRAINT_TOL


class TestOneRun:
    """The relaxation runs once, certified or not, under one rule at every
    size: one descent at ``MU_INITIAL``, then multiplier rounds only while
    the last descent met ``GRAD_TOL`` but broke the -1/2 floor."""

    def test_certified_triangle_ends_at_its_certificate(self, descents):
        cost = build_cost_matrix(triangle_graph(), 0.1)
        sol = solve_relaxation(cost)
        assert sol.converged
        assert_one_rule(descents, cost.ce)
        assert descents[-1].grad_norm < GRAD_TOL
        assert sol.iterations == sum(d.iterations for d in descents)

    def test_uncertified_17_node_graph_runs_one_descent(self, descents):
        dg = random_graph(np.random.default_rng(17), 17)
        sol = solve_relaxation(build_cost_matrix(dg, 0.1))
        assert not sol.converged
        assert len(descents) == 1 and descents[0].mu == MU_INITIAL
        assert 0 < sol.iterations <= MAX_ITERS

    def test_one_rule_at_16_and_17_nodes(self, rng, descents):
        # at each size a cycle meets GRAD_TOL with the floor broken, takes
        # a multiplier round and certifies, and a random graph stalls in its
        # one descent
        for n in (16, 17):
            cycle = DecompositionGraph.from_edges(n, ce=[(i, (i + 1) % n) for i in range(n)])
            for dg, rounds in ((cycle, True), (random_graph(rng, n), False)):
                cost = build_cost_matrix(dg, 0.1)
                sol = solve_relaxation(cost)
                assert_one_rule(descents, cost.ce)
                assert (len(descents) > 1) == rounds == sol.converged
                descents.clear()


class TestLowerBound:
    """``lower_bound`` lies below the objective of every assignment, from
    any factor, certified or not."""

    @pytest.mark.parametrize("alpha", [Fraction(1, 10), Fraction(1, 10**6)])
    def test_below_the_proven_optimum_past_brute_force(self, alpha):
        rng = np.random.default_rng(2)
        for _ in range(20):
            dg = random_graph(rng, int(rng.integers(17, 25)))
            report = solve_exact(dg, alpha)
            assert report.proven_optimal
            bound = solve_relaxation(build_cost_matrix(dg, alpha)).lower_bound()
            assert bound <= float(report.assignment.objective)

    def test_no_node_and_one_node(self):
        for n in (0, 1):
            sol = solve_relaxation(build_cost_matrix(DecompositionGraph.from_edges(n), 0.1))
            assert sol.lower_bound() == 0.0

    def test_below_the_rounding_on_40_nodes(self):
        dg = random_graph(np.random.default_rng(3), 40, ce_density=0.15)
        sol = solve_relaxation(build_cost_matrix(dg, 0.1))
        assert not sol.converged
        assert 0.0 < sol.lower_bound() <= float(map_to_masks(sol).objective)

    def test_a_hand_built_factor_is_uncertified_and_bounded(self):
        sol = reference_solution(worked_example_graph(), WORKED_X)
        assert not sol.converged and not sol.multipliers.any()
        assert sol.lower_bound() <= 0.0  # the worked example's optimum


def add_at_value_and_gradient(v, w, mu, ce, shift=None):
    """Reference penalized value, hinge and sphere gradient from the dense
    weight matrix ``w``: ½⟨w v, v⟩ plus the penalty, and ``w @ v`` plus the
    hinge terms added by two ``np.add.at`` scatters, first endpoints first."""
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
    """The edge-list value, hinge and gradient against the dense reference.
    The two sum in other orders, so they agree to rounding, not bit for bit."""

    TOL = {"rtol": 1e-10, "atol": 1e-10}

    @staticmethod
    def fast(v, cost, mu, shift=None):
        # the plain penalty of the reference is the zero shift here
        shift = np.zeros(len(cost.ce)) if shift is None else shift
        edges = _edge_terms(cost, v.shape[1])
        value, *parts = _penalized_value(v, edges, mu, shift)
        return value, parts[0], _riemannian_grad(v, edges, mu, *parts)

    @staticmethod
    def instance(rng, n, rank, ce_density, se_density=0.1, alpha=0.1):
        dg = random_graph(rng, n, ce_density=ce_density, se_density=se_density)
        w = TestCostMatrix.loop_built(dg, alpha)
        return random_unit_factor(rng, n, rank), w, build_cost_matrix(dg, alpha)

    def test_matches_add_at_reference(self, rng):
        active = 0
        for _ in range(60):
            n = int(rng.integers(2, 41))
            v, w, cost = self.instance(rng, n, int(rng.integers(1, 9)), rng.uniform(0.2, 0.9))
            ce = cost.ce
            mu = float(rng.choice([4.0, 40.0, 400.0]))
            shifts = [None, rng.uniform(-0.2, 0.5, size=len(ce)), np.zeros(len(ce))]
            for shift in shifts:
                value, hinge, grad = self.fast(v, cost, mu, shift)
                ref_value, ref_hinge, ref_grad = add_at_value_and_gradient(v, w, mu, ce, shift)
                np.testing.assert_allclose(value, ref_value, **self.TOL)
                np.testing.assert_allclose(hinge, ref_hinge, **self.TOL)
                np.testing.assert_allclose(grad, ref_grad, **self.TOL)
                active += bool(hinge.any())
        assert active >= 100  # most cases scatter hinge terms

    def test_all_zero_hinge_and_no_edges(self, rng):
        v, w, cost = self.instance(rng, 12, 4, 0.5)
        v[:] = v[0]  # every conflict dot is 1, so no wall is touched
        for shift in (None, np.zeros(len(cost.ce))):
            value, hinge, grad = self.fast(v, cost, 40.0, shift)
            assert len(cost.ce) and not hinge.any()
            ref_value, _, ref_grad = add_at_value_and_gradient(v, w, 40.0, cost.ce, shift)
            np.testing.assert_allclose(value, ref_value, **self.TOL)
            np.testing.assert_allclose(grad, ref_grad, **self.TOL)
        v, w, cost = self.instance(rng, 6, 3, 0.0, se_density=0.0)
        assert len(cost.ce) == len(cost.se) == 0
        value, _, grad = self.fast(v, cost, 4.0)
        assert value == 0.0 and not grad.any()

    @pytest.mark.parametrize("alpha", [Fraction(1, 10), Fraction(2)])
    def test_euclidean_gradient_matches_central_differences(self, rng, alpha):
        step = 1e-6
        for _ in range(20):
            n = int(rng.integers(2, 13))
            v, _, cost = self.instance(rng, n, int(rng.integers(1, RANK + 1)), 0.5, 0.2, alpha)
            edges = _edge_terms(cost, v.shape[1])
            shift = rng.uniform(-0.2, 0.5, size=len(cost.ce))
            mu = float(rng.choice([4.0, 40.0]))
            # with a zero factor the projection removes nothing, so this is
            # the Euclidean gradient at v
            _, *parts = _penalized_value(v, edges, mu, shift)
            grad = _riemannian_grad(np.zeros_like(v), edges, mu, *parts)
            numeric = np.zeros_like(v)
            for cell in np.ndindex(*v.shape):
                bump = np.zeros_like(v)
                bump[cell] = step
                up = _penalized_value(v + bump, edges, mu, shift)[0]
                down = _penalized_value(v - bump, edges, mu, shift)[0]
                numeric[cell] = (up - down) / (2 * step)
            np.testing.assert_allclose(grad, numeric, rtol=1e-5, atol=1e-6)


def reference_solution(dg, x, alpha=0.1):
    """Wrap an explicit Gram matrix for mapping tests, factored through its
    eigendecomposition with negative eigenvalues clipped to zero."""
    vals, vecs = np.linalg.eigh(np.array(x, dtype=float))
    v = vecs * np.sqrt(np.clip(vals, 0.0, None))
    return RelaxationSolution.from_factor(v, build_cost_matrix(dg, alpha))


WORKED_X = [
    [1.0, -0.5, -0.5, 1.0, -0.5],
    [-0.5, 1.0, -0.5, -0.5, -0.5],
    [-0.5, -0.5, 1.0, -0.5, 1.0],
    [1.0, -0.5, -0.5, 1.0, -0.5],
    [-0.5, -0.5, 1.0, -0.5, 1.0],
]


# the rounding's hypothesis cases: nodes, conflict density, factor rank,
# alpha and seed
ROUNDING_CASES = (
    st.integers(1, 30),
    st.sampled_from([0.1, 0.3, 0.6]),
    st.integers(1, 8),
    st.sampled_from([Fraction(1, 10), Fraction(1, 3), Fraction(2)]),
    st.integers(0, 2**32 - 1),
)


def random_factor_solution(n, ce_density, rank, alpha, seed):
    """A random graph and a random unit-row factor of the given rank."""
    rng = np.random.default_rng(seed)
    dg = random_graph(rng, n, ce_density=ce_density, se_density=0.1)
    v = rng.normal(size=(n, rank))
    return RelaxationSolution.from_factor(
        v / np.linalg.norm(v, axis=1, keepdims=True), build_cost_matrix(dg, alpha)
    )


class TestMapping:
    def test_worked_example_grouping(self):
        dg = worked_example_graph()
        sol = reference_solution(dg, WORKED_X)
        asg = map_to_masks(sol)
        assert asg.colors[1] == asg.colors[4]
        assert asg.colors[3] == asg.colors[5]
        assert len({asg.colors[1], asg.colors[2], asg.colors[3]}) == 3
        assert asg.objective == 0

    def test_identity_matrix_three_singletons(self):
        dg = triangle_graph()
        sol = reference_solution(dg, np.eye(3))
        asg = map_to_masks(sol)
        assert sorted(asg.colors.values()) == [0, 1, 2]
        assert asg.objective == 0

    def test_never_beats_oracle(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 10))
            dg = random_graph(rng, n)
            sol = solve_relaxation(build_cost_matrix(dg, 0.1))
            mapped = map_to_masks(sol)
            assert mapped.objective >= brute_force_optimum(dg, 0.1).objective

    def test_mapping_deterministic(self, rng):
        dg = random_graph(rng, 8)
        sol = solve_relaxation(build_cost_matrix(dg, 0.1))
        a = map_to_masks(sol)
        b = map_to_masks(sol)
        assert a.colors == b.colors

    def test_best_draw_recovers_a_planted_coloring(self, rng, monkeypatch):
        # rows on the ideal mask directions of a proper coloring: a draw that
        # labels the three directions apart costs 0, and the best draw must
        # be one, with no local or tabu search moves to repair a worse one
        monkeypatch.setattr(trimask.sdp, "_one_opt", lambda links, labels: labels)
        monkeypatch.setattr(trimask.sdp, "_tabu_search", lambda links, labels, rng: labels)
        planted = rng.integers(0, 3, size=30)
        pairs = [(i, j) for i in range(30) for j in range(i + 1, 30) if rng.random() < 0.4]
        dg = DecompositionGraph.from_edges(
            30, ce=[(i, j) for i, j in pairs if planted[i] != planted[j]],
            se=[(i, j) for i, j in pairs if planted[i] == planted[j]],
        )
        v = np.array([MASK_VECTORS[c] for c in planted])
        sol = RelaxationSolution.from_factor(v, build_cost_matrix(dg, 0.1))
        asg = map_to_masks(sol)
        assert asg.objective == 0
        assert len(set(asg.colors.values())) == 3

    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(*ROUNDING_CASES)
    def test_rounding_is_a_one_opt_fixpoint(self, n, ce_density, rank, alpha, seed):
        sol = random_factor_solution(n, ce_density, rank, alpha, seed)
        dg = sol.cost.dg
        asg = map_to_masks(sol, seed=seed)
        assert set(asg.colors) == set(dg.nodes)
        assert asg.objective == evaluate(dg, asg.colors, alpha).objective
        for node in dg.nodes:
            for color in range(3):
                moved = evaluate(dg, {**asg.colors, node: color}, alpha)
                assert moved.objective >= asg.objective, (node, color)

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(*ROUNDING_CASES)
    def test_never_above_polishing_the_cheapest_draw(self, n, ce_density, rank, alpha, seed):
        sol = random_factor_solution(n, ce_density, rank, alpha, seed)
        dg = sol.cost.dg
        ce, se = sol.cost.ce, sol.cost.se
        g = np.random.default_rng(seed).normal(size=(DRAWS, rank, 3))
        labels = np.argmax(sol.v @ g, axis=2)
        conflicts = (labels[:, ce[:, 0]] == labels[:, ce[:, 1]]).sum(axis=1)
        stitches = (labels[:, se[:, 0]] != labels[:, se[:, 1]]).sum(axis=1)
        cheapest = labels[int(np.argmin(alpha.denominator * conflicts + alpha.numerator * stitches))]
        polished = _one_opt(_neighbor_links(n, ce, se, alpha), cheapest.tolist())
        asg = map_to_masks(sol, seed=seed)
        assert asg.objective <= evaluate(dg, dict(zip(dg.nodes, polished)), alpha).objective

    def test_draw_costs_do_not_wrap(self):
        # 923 conflicts at alpha 1/3 (3333333333333333/10**16) cost more than
        # int64 holds; wrapped, the all-zero draw would look cheapest
        alpha = as_fraction(1 / 3)
        m = 923
        dg = DecompositionGraph.from_edges(
            2 * m + 1, ce=[(2 * i, 2 * i + 1) for i in range(m)], se=[(0, 2 * m)]
        )
        ce, se = _edge_positions(dg)
        labels = np.array([[0] * (2 * m + 1), [0, 1] * m + [1]])
        costs = _integer_costs(labels, ce, se, alpha)
        assert costs == [m * alpha.denominator, alpha.numerator]
        assert costs.index(min(costs)) == 1
        assert m * alpha.denominator > np.iinfo(np.int64).max


    def test_hits_the_optimum_on_small_graphs(self):
        # measured: the rounding with three relaxation restarts and no tabu
        # search hit the optimum on all 20
        rng = np.random.default_rng(12)
        hits = 0
        for _ in range(20):
            dg = random_graph(rng, int(rng.integers(2, 13)), ce_density=0.4)
            asg = map_to_masks(solve_relaxation(build_cost_matrix(dg, 0.1)))
            hits += asg.objective == brute_force_optimum(dg, 0.1).objective
        assert hits >= 20


def reference_tabu(links, labels, rng):
    """``_tabu_search``'s moves with every cost summed afresh from ``links``
    instead of read from a cost table: the same draws from ``rng``, and the
    same candidate order, by node and then color."""
    n = len(labels)
    moves = TABU_ITERATIONS * n
    picks = rng.random(moves)
    tenures = TABU_TENURE + rng.integers(TABU_SPREAD, size=moves)
    colors = list(labels)
    barred_until = [[0, 0, 0] for _ in range(n)]

    def node_cost(k, color):
        return sum(weight for other, weight in links[k] if colors[other] == color)

    cost = best_cost = 0
    best = list(colors)
    for move in range(moves):
        allowed = []
        for k in range(n):
            here = node_cost(k, colors[k])
            for color in range(3):
                change = node_cost(k, color) - here
                if color != colors[k] and (barred_until[k][color] <= move or change < best_cost - cost):
                    allowed.append((change, k, color))
        if not allowed:
            continue
        low = min(change for change, _, _ in allowed)
        ties = [(k, color) for change, k, color in allowed if change == low]
        k, color = ties[int(picks[move] * len(ties))]
        barred_until[k][colors[k]] = move + tenures[move]
        colors[k] = color
        cost += low
        if cost < best_cost:
            best_cost, best = cost, list(colors)
    return best


class TestTabuSearch:
    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(*ROUNDING_CASES)
    def test_matches_the_reference_and_never_rises(self, n, ce_density, rank, alpha, seed):
        sol = random_factor_solution(n, ce_density, rank, alpha, seed)
        ce, se = sol.cost.ce, sol.cost.se
        links = _neighbor_links(n, ce, se, alpha)
        # the start: the labels of one Gaussian draw, as the rounding makes them
        start = np.argmax(sol.v @ np.random.default_rng(seed).normal(size=(rank, 3)), axis=1)
        found = _tabu_search(links, start.tolist(), np.random.default_rng(seed))
        assert found == _tabu_search(links, start.tolist(), np.random.default_rng(seed))
        assert found == reference_tabu(links, start.tolist(), np.random.default_rng(seed))
        before, after = _integer_costs(np.array([start, found]), ce, se, alpha)
        assert after <= before

    @pytest.mark.parametrize("alpha", [Fraction(1, 10), Fraction(1, 3), Fraction(2)])
    def test_matches_the_reference_at_scale(self, alpha):
        # thousands of moves from a 1-opt fixpoint, as in the rounding, so
        # tenures run out and barred moves reach new best costs far more
        # often than in the small cases above
        rng = np.random.default_rng([alpha.numerator, alpha.denominator])
        n = int(rng.integers(200, 401))
        dg = random_graph(rng, n, ce_density=8.0 / n, se_density=1.0 / n)
        links = _neighbor_links(n, *_edge_positions(dg), alpha)
        start = _one_opt(links, rng.integers(3, size=n).tolist())
        found = _tabu_search(links, start, np.random.default_rng(n))
        assert found == reference_tabu(links, start, np.random.default_rng(n))

    def test_rounding_leaves_a_one_opt_trap(self):
        # two triangles on the edge (0, 2), and node 4 hanging on node 2
        dg = DecompositionGraph.from_edges(5, ce=[(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (2, 4)])
        optimum = brute_force_optimum(dg, 0.1).objective
        # equal rows: every draw puts all nodes on one mask, and 1-opt from
        # any one mask stops at a conflict
        links = _neighbor_links(5, *_edge_positions(dg), as_fraction(0.1))
        for mask in range(3):
            stuck = _one_opt(links, [mask] * 5)
            assert evaluate(dg, dict(zip(dg.nodes, stuck)), 0.1).objective > optimum
        sol = RelaxationSolution.from_factor(np.ones((5, 1)), build_cost_matrix(dg, 0.1))
        assert map_to_masks(sol).objective == optimum


class TestPolish:
    def test_never_raises_the_objective(self, rng):
        moved = 0
        for _ in range(200):
            n = int(rng.integers(1, 25))
            dg = random_graph(rng, n, ce_density=rng.uniform(0.1, 0.6))
            alpha = Fraction(int(rng.integers(1, 4)), int(rng.integers(1, 11)))
            colors = {node: int(rng.integers(0, 3)) for node in dg.nodes}
            polished = polish(dg, colors, alpha, seed=n)
            assert polished == polish(dg, colors, alpha, seed=n)
            before = evaluate(dg, colors, alpha).objective
            after = evaluate(dg, polished, alpha).objective
            assert after <= before
            moved += after < before
            # a 1-opt fixpoint
            for node in dg.nodes:
                for color in range(3):
                    assert evaluate(dg, {**polished, node: color}, alpha).objective >= after
        assert moved >= 100

    def test_ties_go_to_the_lowest_color(self):
        # node 0 conflicts with both others on color 0; colors 1 and 2 are free
        dg = DecompositionGraph.from_edges(3, ce=[(0, 1), (0, 2)])
        links = _neighbor_links(3, *_edge_positions(dg), as_fraction(0.1))
        assert _one_opt(links, [0, 0, 0]) == [1, 0, 0]
