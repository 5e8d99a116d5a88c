from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import k4_graph, random_graph, triangle_graph, worked_example_graph
from trimask.cli import generate_layout
from trimask.geometry import build_layout_graph, project_and_split
from trimask.graphs import (
    DecompositionGraph,
    as_fraction,
    brute_force_optimum,
    connected_components,
    evaluate,
)
from trimask.ilp import (
    ELIMINATION_WIDTH,
    SolveReport,
    branch_and_bound,
    build_ilp,
    check_encoding,
    decode_bits,
    encode_coloring,
    solve_exact,
    write_lp,
)
from trimask.reductions import peel_low_degree


class TestModelShape:
    def test_single_node(self):
        model = build_ilp(DecompositionGraph.from_edges(1), 0.1)
        assert len(model.variables) == 2
        assert len(model.constraints) == 1
        assert model.constraints[0].name == "color_cap[0]"

    def test_one_conflict_edge(self):
        model = build_ilp(DecompositionGraph.from_edges(2, ce=[(0, 1)]), 0.1)
        assert len(model.variables) == 4 + 3
        assert len(model.constraints) == 2 + 5
        assert model.objective == {"c0_1": Fraction(1)}

    def test_one_stitch_edge(self):
        model = build_ilp(DecompositionGraph.from_edges(2, se=[(0, 1)]), 0.1)
        assert len(model.variables) == 4 + 3
        assert len(model.constraints) == 2 + 6
        assert model.objective == {"s0_1": Fraction(1, 10)}

    def test_constraint_counts_general(self, rng):
        dg = random_graph(rng, 9)
        model = build_ilp(dg, 0.1)
        assert len(model.constraints) == 9 + 5 * len(dg.ce) + 6 * len(dg.se)
        assert len(model.variables) == 2 * 9 + 3 * len(dg.ce) + 3 * len(dg.se)


class TestEncoding:
    def test_conflict_pair_objective_one(self):
        dg = DecompositionGraph.from_edges(2, ce=[(0, 1)])
        model = build_ilp(dg, 0.1)
        bits = encode_coloring(model, {0: 0, 1: 0})
        assert bits["c0_1"] == 1 and bits["c0_1_1"] == 1 and bits["c0_1_2"] == 1
        check = check_encoding(model, bits)
        assert check.feasible and check.objective == 1

    def test_distinct_colors_objective_zero(self):
        dg = DecompositionGraph.from_edges(2, ce=[(0, 1)])
        model = build_ilp(dg, 0.1)
        bits = encode_coloring(model, {0: 0, 1: 1})
        # first bits both 0, so the bit-equality indicator is forced on
        assert bits["c0_1_1"] == 1 and bits["c0_1_2"] == 0 and bits["c0_1"] == 0
        check = check_encoding(model, bits)
        assert check.feasible and check.objective == 0

    def test_forbidden_bit_pair(self):
        dg = DecompositionGraph.from_edges(1)
        model = build_ilp(dg, 0.1)
        check = check_encoding(model, {"x0_1": 1, "x0_2": 1})
        assert not check.feasible
        assert "color_cap[0]" in check.violations

    def test_unassigned_variable(self):
        model = build_ilp(DecompositionGraph.from_edges(1), 0.1)
        with pytest.raises(ValueError, match="x0_2"):
            check_encoding(model, {"x0_1": 0})

    def test_bits_round_trip(self, rng):
        dg = random_graph(rng, 7)
        model = build_ilp(dg, 0.1)
        colors = {node: int(rng.integers(0, 3)) for node in dg.nodes}
        assert decode_bits(model, encode_coloring(model, colors)) == colors

    def test_minimal_completion_matches_evaluate(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 10))
            dg = random_graph(rng, n)
            model = build_ilp(dg, 0.1)
            colors = {node: int(rng.integers(0, 3)) for node in dg.nodes}
            check = check_encoding(model, encode_coloring(model, colors))
            assert check.feasible
            assert check.objective == evaluate(dg, colors, 0.1).objective


class TestSolveExact:
    def test_triangle(self):
        report = solve_exact(triangle_graph(), 0.1)
        assert report.assignment.objective == 0
        assert report.proven_optimal

    def test_k4(self):
        assert solve_exact(k4_graph(), 0.1).assignment.objective == 1

    def test_worked_example(self):
        report = solve_exact(worked_example_graph(), 0.1)
        colors = report.assignment.colors
        assert report.assignment.objective == 0
        assert colors[1] == colors[4] and colors[3] == colors[5]
        assert len({colors[1], colors[2], colors[3]}) == 3

    def test_solution_passes_its_own_encoding(self, rng):
        dg = random_graph(rng, 8)
        report = solve_exact(dg, 0.1)
        model = build_ilp(dg, 0.1)
        check = check_encoding(model, encode_coloring(model, report.assignment.colors))
        assert check.feasible
        assert check.objective == report.assignment.objective

    def test_matches_oracle(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 13))
            dg = random_graph(rng, n)
            assert solve_exact(dg, 0.1).assignment.objective == \
                brute_force_optimum(dg, 0.1).objective

    def test_adding_conflict_edge_monotone(self, rng):
        for _ in range(15):
            n = int(rng.integers(3, 10))
            dg = random_graph(rng, n, 0.3, 0.1)
            base = solve_exact(dg, 0.1).assignment.objective
            free = [
                (i, j)
                for i in dg.nodes for j in dg.nodes
                if i < j and (i, j) not in dg.ce and (i, j) not in dg.se
            ]
            if not free:
                continue
            pick = free[int(rng.integers(0, len(free)))]
            bigger = DecompositionGraph.from_edges(
                dg.nodes, ce=list(dg.ce) + [pick], se=dg.se
            )
            assert solve_exact(bigger, 0.1).assignment.objective >= base

    def test_budget_exhaustion_keeps_incumbent(self):
        report = solve_exact(k4_graph(), 0.1, budget=3)
        assert not report.proven_optimal
        assert report.assignment.conflict_count >= 1  # greedy incumbent still valid

    def test_deterministic(self, rng):
        dg = random_graph(rng, 10)
        a = branch_and_bound(dg, 0.1)
        b = branch_and_bound(dg, 0.1)
        assert a.assignment.colors == b.assignment.colors
        assert a.nodes_explored == b.nodes_explored


class TestLpExport:
    def test_format_sections(self):
        dg = DecompositionGraph.from_edges(2, ce=[(0, 1)])
        text = write_lp(build_ilp(dg, 0.1))
        assert text.startswith("Minimize")
        assert "Subject To" in text and "Binary" in text and text.rstrip().endswith("End")
        assert "c0_1" in text
        assert " color_cap_0: + 1 x0_1 + 1 x0_2 <= 1" in text

    def test_alpha_in_objective(self):
        dg = DecompositionGraph.from_edges(2, se=[(0, 1)])
        text = write_lp(build_ilp(dg, 0.1))
        assert "0.1 s0_1" in text

    @pytest.mark.parametrize("alpha", [0.123456789, Fraction(1, 3), 1e-7])
    def test_alpha_reads_back_exactly(self, alpha):
        dg = DecompositionGraph.from_edges(2, se=[(0, 1)])
        text = write_lp(build_ilp(dg, alpha))
        obj = text.splitlines()[1].split()
        assert obj[:2] == ["obj:", "+"] and obj[3:] == ["s0_1"]
        assert float(obj[2]) == float(as_fraction(alpha))


# --- the search without look-ahead, as the reference for branch_and_bound ----


def reference_branch_and_bound(
    dg: DecompositionGraph, alpha, budget: int = 5_000_000
) -> SolveReport:
    """Branch and bound whose only bound is the committed cost, with the same
    branch order, color cap, greedy incumbent and strict-improvement rule."""
    frac = as_fraction(alpha)
    stitch_w, conflict_w = frac.numerator, frac.denominator
    nodes = dg.nodes
    n = len(nodes)
    if n == 0:
        return SolveReport(evaluate(dg, {}, alpha), 0, True)

    order = sorted(nodes, key=lambda v: (-dg.degree(v), v))
    pos = {v: k for k, v in enumerate(order)}
    back: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, v in dg.ce:
        hi, lo = max(pos[u], pos[v]), min(pos[u], pos[v])
        back[hi].append((lo, conflict_w))
    for u, v in dg.se:
        hi, lo = max(pos[u], pos[v]), min(pos[u], pos[v])
        back[hi].append((lo, -stitch_w))

    def add_cost(colors: list[int], k: int, c: int) -> int:
        cost = 0
        for j, w in back[k]:
            if w > 0:
                if colors[j] == c:
                    cost += w
            elif colors[j] != c:
                cost -= w
        return cost

    greedy = [0] * n
    greedy_cost = 0
    for k in range(n):
        costs = [add_cost(greedy[:k] + [0] * (n - k), k, c) for c in range(3)]
        best = min(range(3), key=lambda c: (costs[c], c))
        greedy[k] = best
        greedy_cost += costs[best]

    best_cost = greedy_cost
    best_colors = list(greedy)
    proven = True
    explored = 0
    colors = [0] * n

    def descend(k: int, cost: int, used: int) -> None:
        nonlocal best_cost, best_colors, proven, explored
        if explored >= budget:
            proven = False
            return
        if k == n:
            if cost < best_cost:
                best_cost = cost
                best_colors = colors[:n]
            return
        for c in range(min(used + 1, 3)):
            if explored >= budget:
                proven = False
                return
            explored += 1
            nxt = cost + add_cost(colors, k, c)
            if nxt >= best_cost:
                continue
            colors[k] = c
            descend(k + 1, nxt, max(used, c + 1))

    descend(0, 0, 0)

    assignment = evaluate(dg, {order[k]: best_colors[k] for k in range(n)}, alpha)
    return SolveReport(assignment, explored, proven)


def assert_same_as_reference(dg: DecompositionGraph, alpha) -> tuple[int, int]:
    got, want = branch_and_bound(dg, alpha), reference_branch_and_bound(dg, alpha)
    assert got.assignment.colors == want.assignment.colors
    assert got.assignment.objective == want.assignment.objective
    assert got.proven_optimal == want.proven_optimal
    assert got.nodes_explored <= want.nodes_explored
    return got.nodes_explored, want.nodes_explored


def clip_components(seed: int) -> list[DecompositionGraph]:
    """Components of a 20-shape clip's decomposition graph after peeling,
    as the pipeline hands them to the solvers (before bridge cutting)."""
    layout = generate_layout(20, 6, seed=seed)
    lg = build_layout_graph(layout)
    residual, _ = peel_low_degree(lg)
    dg = project_and_split(layout, lg, split_nodes=residual.nodes)
    keep = set(residual.nodes)
    return connected_components(dg.subgraph(s.id for s in dg.segments if s.parent in keep))


ALPHAS = st.sampled_from([Fraction(1, 10), Fraction(1, 3)])


class TestLookAheadIdentity:
    """The look-ahead bound changes only how many nodes the search visits:
    colors, objective and proven flag equal those of the search without it."""

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(
        st.integers(3, 22),
        st.sampled_from([0.1, 0.2, 0.3]),
        st.sampled_from([0.05, 0.15]),
        st.integers(0, 2**32 - 1),
        ALPHAS,
    )
    def test_random_graphs(self, n, ce_density, se_density, seed, alpha):
        dg = random_graph(np.random.default_rng(seed), n, ce_density, se_density)
        assert_same_as_reference(dg, alpha)

    @pytest.mark.parametrize("seed", range(1, 31))
    def test_clip_components(self, seed):
        for comp in clip_components(seed):
            for alpha in (Fraction(1, 10), Fraction(1, 3)):
                assert_same_as_reference(comp, alpha)

    def test_prunes_at_least_four_times_fewer_nodes(self):
        # a 22-node clip component: 96 419 reference nodes, 10 727 with the bound
        (comp,) = clip_components(22)
        assert len(comp.nodes) <= 25
        got, want = assert_same_as_reference(comp, Fraction(1, 10))
        assert 4 * got <= want


# --- the look-ahead search with a call per move, as the reference for the
# inline moves of branch_and_bound ----------------------------------------------

OTHER_COLORS = ((1, 2), (0, 2), (0, 1))


def reference_look_ahead(
    dg: DecompositionGraph, alpha, budget: int = 5_000_000
) -> SolveReport:
    """``branch_and_bound`` with the look-ahead bound kept in separate lists
    (``vec`` and ``low``) and moved by ``place``/``unplace`` calls."""
    frac = as_fraction(alpha)
    stitch_w, conflict_w = frac.numerator, frac.denominator
    nodes = dg.nodes
    n = len(nodes)
    if n == 0:
        return SolveReport(evaluate(dg, {}, alpha), 0, True)

    order = sorted(nodes, key=lambda v: (-dg.degree(v), v))
    pos = {v: k for k, v in enumerate(order)}
    # later neighbors per position, by edge kind: a conflict edge costs
    # conflict_w when its ends share a color, a stitch edge stitch_w when
    # they differ
    later_ce: list[list[int]] = [[] for _ in range(n)]
    later_se: list[list[int]] = [[] for _ in range(n)]
    for later, edges in ((later_ce, dg.ce), (later_se, dg.se)):
        for u, v in edges:
            later[min(pos[u], pos[v])].append(max(pos[u], pos[v]))

    # vec[k][c]: cost of color c at position k against the colored positions;
    # low[k] = min(vec[k])
    vec = [[0, 0, 0] for _ in range(n)]
    low = [0] * n

    def place(k: int, c: int) -> int:
        """Color position k with c in the vectors of its later neighbors;
        return the rise of their minima."""
        delta = 0
        for j in later_ce[k]:
            row = vec[j]
            v = row[c]
            row[c] = v + conflict_w
            if v == low[j]:  # otherwise another color keeps the minimum
                a, b, d = row
                m = a if a < b else b
                if d < m:
                    m = d
                delta += m - v
                low[j] = m
        x, y = OTHER_COLORS[c]
        for j in later_se[k]:
            row = vec[j]
            row[x] += stitch_w
            row[y] += stitch_w
            a, b, d = row
            m = a if a < b else b
            if d < m:
                m = d
            delta += m - low[j]
            low[j] = m
        return delta

    def unplace(k: int, c: int) -> None:
        """Undo place(k, c)."""
        for j in later_ce[k]:
            row = vec[j]
            v = row[c] - conflict_w
            row[c] = v
            if v < low[j]:
                low[j] = v
        x, y = OTHER_COLORS[c]
        for j in later_se[k]:
            row = vec[j]
            row[x] -= stitch_w
            row[y] -= stitch_w
            a, b, d = row
            m = a if a < b else b
            if d < m:
                m = d
            low[j] = m

    # greedy incumbent: cheapest color per node in branch order
    greedy = [0] * n
    greedy_cost = 0
    for k in range(n):
        row = vec[k]
        c = row.index(min(row))
        greedy[k] = c
        greedy_cost += row[c]
        place(k, c)
    for row in vec:
        row[:] = [0, 0, 0]
    low[:] = [0] * n

    best_cost = greedy_cost
    best_colors = list(greedy)
    proven = True
    explored = 0
    colors = [0] * n

    def descend(k: int, cost: int, used: int, rest: int) -> None:
        # 'used' = number of distinct colors among positions < k; capping the
        # next color at used keeps only canonical colorings (colors appear in
        # first-use order), which is exactly where the lex-smallest optimum
        # lives, so the reported assignment is unchanged.
        # 'rest' = sum of low over the uncolored positions >= k
        nonlocal best_cost, best_colors, proven, explored
        if explored >= budget:
            proven = False
            return
        if k == n:
            if cost < best_cost:
                best_cost = cost
                best_colors = colors[:n]
            return
        row = vec[k]
        rest -= low[k]
        for c in range(min(used + 1, 3)):
            if explored >= budget:
                proven = False
                return
            explored += 1
            nxt = cost + row[c]
            # coloring k only raises the later vectors, so this is a bound
            if nxt + rest >= best_cost:
                continue
            delta = place(k, c)
            if nxt + rest + delta < best_cost:
                colors[k] = c
                descend(k + 1, nxt, max(used, c + 1), rest + delta)
            unplace(k, c)

    descend(0, 0, 0, 0)

    assignment = evaluate(dg, {order[k]: best_colors[k] for k in range(n)}, alpha)
    return SolveReport(
        assignment=assignment,
        nodes_explored=explored,
        proven_optimal=proven,
    )


BUDGETS = (1, 2, 7, 50, 400, 5000, 5_000_000)


def assert_same_search(dg: DecompositionGraph, alpha, budget: int) -> None:
    got = branch_and_bound(dg, alpha, budget)
    want = reference_look_ahead(dg, alpha, budget)
    assert got.assignment.colors == want.assignment.colors
    assert got.assignment.objective == want.assignment.objective
    assert got.nodes_explored == want.nodes_explored
    assert got.proven_optimal == want.proven_optimal


class TestInlineMovesIdentity:
    """Moving the look-ahead vectors inline changes no step of the search:
    at every budget, colors, objective, explored node count and proven flag
    equal those of the search that calls place/unplace."""

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(
        st.integers(1, 22),
        st.sampled_from([0.1, 0.2, 0.3]),
        st.sampled_from([0.05, 0.15]),
        st.integers(0, 2**32 - 1),
        st.sampled_from([Fraction(1, 10), Fraction(1, 3), Fraction(2)]),
    )
    def test_random_graphs(self, n, ce_density, se_density, seed, alpha):
        dg = random_graph(np.random.default_rng(seed), n, ce_density, se_density)
        for budget in BUDGETS:
            assert_same_search(dg, alpha, budget)

    @pytest.mark.parametrize("seed", range(1, 31))
    def test_clip_components(self, seed):
        for comp in clip_components(seed):
            for budget in BUDGETS:
                assert_same_search(comp, Fraction(1, 10), budget)

    @pytest.mark.parametrize("seed", range(8))
    def test_every_budget_of_a_small_search(self, seed):
        # the budget can run out on the step into a leaf, where the check at
        # the top of the search must drop that leaf
        rng = np.random.default_rng(seed)
        dg = random_graph(rng, int(rng.integers(6, 12)), 0.35, 0.15)
        full = branch_and_bound(dg, Fraction(1, 10)).nodes_explored
        for budget in range(full + 2):
            assert_same_search(dg, Fraction(1, 10), budget)

    def test_budgets_cut_the_search(self):
        # the budgets above stop the search mid-tree: not every run is proven
        (comp,) = clip_components(22)
        reports = [branch_and_bound(comp, Fraction(1, 10), b) for b in BUDGETS]
        assert [r.nodes_explored for r in reports[:-1]] == list(BUDGETS[:-1])
        assert not any(r.proven_optimal for r in reports[:-1])
        assert reports[-1].proven_optimal


def highs_optimum(model) -> float:
    """Optimum of the 0-1 model as ``scipy.optimize.milp`` (HiGHS) finds it,
    with every constraint row as one row of a sparse matrix."""
    optimize = pytest.importorskip("scipy.optimize")
    sparse = pytest.importorskip("scipy.sparse")
    column = {name: k for k, name in enumerate(model.variables)}
    rows, cols, coeffs = [], [], []
    for row, con in enumerate(model.constraints):
        for name, coeff in con.coeffs.items():
            rows.append(row)
            cols.append(column[name])
            coeffs.append(coeff)
    a = sparse.csr_array((coeffs, (rows, cols)),
                         shape=(len(model.constraints), len(model.variables)))
    cost = np.zeros(len(model.variables))
    for name, weight in model.objective.items():
        cost[column[name]] = float(weight)
    res = optimize.milp(
        cost,
        constraints=optimize.LinearConstraint(a, -np.inf, [con.rhs for con in model.constraints]),
        integrality=np.ones(len(cost)),
        bounds=optimize.Bounds(0, 1),
    )
    assert res.success, res.message
    return float(res.fun)


class TestHighsOracle:
    """Past brute force's 16 nodes, HiGHS on the paper's 0-1 model checks
    the optimum the exact search proves. Distinct objectives differ by at
    least alpha = 1/10, far above HiGHS's default optimality gap. HiGHS's
    time varies more than tenfold between such graphs; these four are among
    the quick ones."""

    @pytest.mark.parametrize("n, ce_density, seed", [
        (17, 0.25, 6), (18, 0.25, 0), (19, 0.25, 3), (20, 0.2, 4),
    ])
    def test_exact_search_optimum(self, n, ce_density, seed):
        dg = random_graph(np.random.default_rng(seed), n, ce_density, 0.1)
        report = solve_exact(dg, Fraction(1, 10))
        assert report.proven_optimal
        optimum = highs_optimum(build_ilp(dg, Fraction(1, 10)))
        assert optimum == pytest.approx(float(report.assignment.objective), abs=1e-6)


def conflict_grid(side: int) -> DecompositionGraph:
    """A side x side grid of conflict edges; node row * side + column."""
    ce = [(r * side + c, r * side + c + 1) for r in range(side) for c in range(side - 1)]
    ce += [(r * side + c, (r + 1) * side + c) for r in range(side - 1) for c in range(side)]
    return DecompositionGraph.from_edges(side * side, ce=ce)


class TestElimination:
    """``solve_exact`` eliminates along a min-fill order of width at most
    ``ELIMINATION_WIDTH`` whose tables fit the budget, and otherwise returns
    the report of ``branch_and_bound`` with the same budget."""

    @pytest.mark.parametrize("alpha", [Fraction(1, 10), Fraction(1, 3), Fraction(2)])
    def test_matches_brute_force(self, alpha):
        rng = np.random.default_rng(27)
        for _ in range(40):
            n = int(rng.integers(1, 13))
            dg = random_graph(rng, n, float(rng.choice([0.1, 0.3, 0.5])), 0.15)
            report = solve_exact(dg, alpha)
            # a width above the cap needs more than cap + 1 nodes
            assert report.method == "elimination" or n > ELIMINATION_WIDTH + 1
            assert report.proven_optimal
            assert report.assignment.objective == brute_force_optimum(dg, alpha).objective

    @pytest.mark.parametrize("seed", range(1, 31))
    def test_clip_components_match_branch_and_bound(self, seed):
        for comp in clip_components(seed):
            for alpha in (Fraction(1, 10), Fraction(1, 3)):
                got, want = solve_exact(comp, alpha), branch_and_bound(comp, alpha)
                assert got.method == "elimination"
                assert got.assignment.objective == want.assignment.objective
                assert got.proven_optimal == want.proven_optimal

    def test_work_is_the_table_entries(self):
        # a path 0 - 1 - 2 eliminates 0, then 1, then 2: two tables of 3 x 3
        # and one of 3 entries
        path = DecompositionGraph.from_edges(3, ce=[(0, 1)], se=[(1, 2)])
        report = solve_exact(path, Fraction(1, 10))
        assert report.method == "elimination" and report.proven_optimal
        assert report.nodes_explored == 9 + 9 + 3
        assert report.assignment.objective == 0

    def test_width_at_the_cap_eliminates(self):
        # the min-fill order of an 8 x 8 grid has width exactly 10
        report = solve_exact(conflict_grid(8), Fraction(1, 10))
        assert report.method == "elimination" and report.proven_optimal
        assert report.assignment.objective == 0

    def test_width_just_over_the_cap_is_the_searchs_report(self):
        # the min-fill order of a 9 x 9 grid passes width 10
        grid = conflict_grid(9)
        got = solve_exact(grid, Fraction(1, 10))
        assert got.method == "branch_and_bound"
        assert got == branch_and_bound(grid, Fraction(1, 10))

    def test_work_past_the_budget_is_the_searchs_report(self):
        k4 = k4_graph()
        got = solve_exact(k4, Fraction(1, 10), budget=2)
        assert not got.proven_optimal
        assert got == branch_and_bound(k4, Fraction(1, 10), 2)

    @pytest.mark.parametrize("alpha, method", [
        # a 55-bit denominator: int64 tables still hold every sum
        (0.30000000000000004, "elimination"),
        # a 1074-bit denominator: they would overflow
        (5e-324, "branch_and_bound"),
    ])
    def test_float_alphas_with_long_denominators(self, alpha, method):
        dg = random_graph(np.random.default_rng(5), 9, 0.3, 0.2)
        report = solve_exact(dg, alpha)
        assert report.method == method and report.proven_optimal
        assert report.assignment.objective == brute_force_optimum(dg, alpha).objective
