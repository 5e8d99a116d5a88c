import hashlib
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    elimination_budget,
    k4_graph,
    random_graph,
    triangle_graph,
    worked_example_graph,
)
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
    ELIMINATION_BUDGET,
    SolveReport,
    _min_fill_order,
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
        with pytest.raises(ValueError, match="x0_2 must be 0/1, got 2"):
            check_encoding(model, {"x0_1": 0, "x0_2": 2})

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

    def test_budget_exhaustion_returns_none(self):
        # K4's tables hold 81 + 27 + 9 + 3 entries
        with elimination_budget(3):
            assert solve_exact(k4_graph(), 0.1) is None

    def test_deterministic(self, rng):
        dg = random_graph(rng, 10)
        a = solve_exact(dg, 0.1)
        b = solve_exact(dg, 0.1)
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


class TestModelPin:
    """Digests of the whole 0-1 model on 50 seeded graphs: row names and
    order, coefficient order within a row, variable order and the tight
    encoding. They change only when the model's text does."""

    @staticmethod
    def graphs():
        for seed in range(50):
            rng = np.random.default_rng(seed)
            yield rng, random_graph(rng, 2 + seed % 11, 0.3, 0.15)

    def test_lp_text(self):
        texts = [
            write_lp(build_ilp(dg, alpha))
            for _, dg in self.graphs()
            for alpha in (Fraction(1, 10), Fraction(1, 3), 1e-300)
        ]
        assert hashlib.sha256("".join(texts).encode()).hexdigest()[:16] == "73964f87787ae230"

    def test_encoding(self):
        digest = hashlib.sha256()
        for rng, dg in self.graphs():
            model = build_ilp(dg, Fraction(1, 10))
            colors = {v: int(rng.integers(0, 3)) for v in dg.nodes}
            digest.update(repr(sorted(encode_coloring(model, colors).items())).encode())
        assert digest.hexdigest()[:16] == "91043130a3f8c2ea"


def clip_components(seed: int) -> list[DecompositionGraph]:
    """Components of a 20-shape clip's decomposition graph after peeling,
    as the pipeline hands them to the solvers (before bridge cutting)."""
    layout = generate_layout(20, 6, seed=seed)
    lg = build_layout_graph(layout)
    residual, _ = peel_low_degree(lg)
    dg = project_and_split(layout, split_nodes=residual.nodes)
    keep = set(residual.nodes)
    return connected_components(dg.subgraph(s.id for s in dg.segments if s.parent in keep))


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


def conflict_clique(n: int) -> DecompositionGraph:
    """The complete graph on n nodes, all conflict edges."""
    return DecompositionGraph.from_edges(n, ce=list(itertools.combinations(range(n), 2)))


def stitched_grid(side: int) -> DecompositionGraph:
    """``conflict_grid`` with a stitch edge on each cell's down-right
    diagonal: coloring by (row - column) mod 3 pays nothing, and so do many
    other colorings, so the buckets hold ties."""
    grid = conflict_grid(side)
    se = [(r * side + c, (r + 1) * side + c + 1) for r in range(side - 1) for c in range(side - 1)]
    return DecompositionGraph.from_edges(side * side, ce=grid.ce, se=se)


def stitched_clique(n: int) -> DecompositionGraph:
    """The complete graph on n nodes with stitch edges (0, 1), (2, 3), ...
    and conflict edges elsewhere: many colorings tie at the optimum."""
    se = [(i, i + 1) for i in range(0, n - 1, 2)]
    ce = [p for p in itertools.combinations(range(n), 2) if p not in se]
    return DecompositionGraph.from_edges(n, ce=ce, se=se)


class TestElimination:
    """``solve_exact`` eliminates along a min-fill order whose tables fit the
    budget, and otherwise returns None."""

    @pytest.mark.parametrize("alpha", [Fraction(1, 10), Fraction(1, 3), Fraction(2)])
    def test_matches_brute_force(self, alpha):
        rng = np.random.default_rng(27)
        for _ in range(40):
            n = int(rng.integers(1, 13))
            dg = random_graph(rng, n, float(rng.choice([0.1, 0.3, 0.5])), 0.15)
            report = solve_exact(dg, alpha)
            assert report.proven_optimal
            assert report.assignment.objective == brute_force_optimum(dg, alpha).objective

    # the optimum of each seed's one clip component (19-27 nodes) at alpha
    # 1/10 and 1/3 alike, as a depth-first branch and bound proved it: that
    # many conflicts and no stitch
    CLIP_OPTIMA = [4, 3, 6, 3, 5, 4, 5, 5, 5, 4, 6, 6, 4, 4, 5,
                   3, 3, 4, 5, 3, 4, 5, 4, 7, 5, 4, 5, 5, 6, 5]

    @pytest.mark.parametrize("seed", range(1, 31))
    def test_clip_components_reach_the_proven_optima(self, seed):
        (comp,) = clip_components(seed)
        for alpha in (Fraction(1, 10), Fraction(1, 3)):
            report = solve_exact(comp, alpha)
            assert report.proven_optimal
            assert report.assignment.objective == self.CLIP_OPTIMA[seed - 1]

    def test_work_is_the_table_entries(self):
        # a path 0 - 1 - 2 eliminates 0, then 1, then 2: two tables of 3 x 3
        # and one of 3 entries
        path = DecompositionGraph.from_edges(3, ce=[(0, 1)], se=[(1, 2)])
        report = solve_exact(path, Fraction(1, 10))
        assert report.proven_optimal
        assert report.nodes_explored == 9 + 9 + 3
        assert report.assignment.objective == 0

    @pytest.mark.parametrize("side", [8, 9])
    def test_grids_within_the_budget_eliminate(self, side):
        # min-fill orders of width 10 and 11
        report = solve_exact(conflict_grid(side), Fraction(1, 10))
        assert report.proven_optimal
        assert report.assignment.objective == 0

    @pytest.mark.parametrize("n, work, optimum", [
        (4, 81 + 27 + 9 + 3, 1),
        # width 12, the widest order the budget admits: 3^13 + 3^12 + ... + 3
        (13, (3**14 - 3) // 2, 22),
    ])
    def test_budget_of_exactly_the_work_eliminates(self, n, work, optimum):
        clique = conflict_clique(n)
        report = solve_exact(clique, Fraction(1, 10))
        assert report.nodes_explored == work
        assert report.assignment.objective == optimum
        assert brute_force_optimum(clique, Fraction(1, 10)).objective == optimum
        with elimination_budget(work):
            assert solve_exact(clique, Fraction(1, 10)) == report
        with elimination_budget(work - 1):
            assert solve_exact(clique, Fraction(1, 10)) is None

    @pytest.mark.parametrize("alpha", [
        # a 53-bit denominator: int64 tables still hold every sum
        0.30000000000000004,
        # 1050- and 1075-bit denominators: the tables hold Python ints
        1e-300,
        5e-324,
    ])
    def test_float_alphas_with_long_denominators(self, alpha):
        dg = random_graph(np.random.default_rng(5), 9, 0.3, 0.2)
        report = solve_exact(dg, alpha)
        assert report.proven_optimal
        assert report.assignment.objective == brute_force_optimum(dg, alpha).objective

    @pytest.mark.parametrize("ce, se", [([], []), ([], [(0, 1), (1, 2)])])
    def test_long_denominator_without_conflict_edges(self, ce, se):
        # the conflict weight alone passes int64, though no edge carries it
        dg = DecompositionGraph.from_edges(3, ce=ce, se=se)
        report = solve_exact(dg, 5e-324)
        assert report.proven_optimal and report.assignment.objective == 0


# --- min-fill recounted at every step and tables as dicts, as the reference
# for the incremental order and the numpy tables of solve_exact -------------


def reference_min_fill_order(dg: DecompositionGraph, budget: int):
    """``_min_fill_order`` with every node's fill counted from scratch at each
    step: the missing edges among its neighbors, ties by degree, then index.
    None once the work passes ``budget``."""
    nodes = dg.nodes
    index = {v: i for i, v in enumerate(nodes)}
    nbrs: list[set[int]] = [set() for _ in nodes]
    for u, v in dg.edges:
        nbrs[index[u]].add(index[v])
        nbrs[index[v]].add(index[u])

    def score(i: int) -> tuple[int, int, int]:
        nb = nbrs[i]
        missing = sum(1 for a in nb for b in nb if a < b and b not in nbrs[a])
        return missing, len(nb), i

    left = set(range(len(nodes)))
    order: list[int] = []
    neighbors: list[set[int]] = []
    work = 0
    while left:
        i = min(left, key=score)
        nb = nbrs[i]
        work += 3 ** (len(nb) + 1)
        if work > budget:
            return None
        order.append(i)
        neighbors.append(set(nb))
        left.discard(i)
        for a in nb:
            nbrs[a] |= nb - {a}
            nbrs[a].discard(i)
    pos = {i: k for k, i in enumerate(order)}
    scopes = [(k,) + tuple(sorted(pos[a] for a in nb)) for k, nb in enumerate(neighbors)]
    return [nodes[i] for i in order], scopes, work


def reference_elimination(dg: DecompositionGraph, alpha, budget: int = ELIMINATION_BUDGET):
    """Min-sum bucket elimination along the reference min-fill order, with
    every table a dict from the colors of its scope to a Python int. The
    color chosen for a node is its cheapest, the lowest on a tie."""
    plan = reference_min_fill_order(dg, budget)
    if plan is None:
        return None
    order, scopes, work = plan
    frac = as_fraction(alpha)
    conflict_w, stitch_w = frac.denominator, frac.numerator
    pos = {v: k for k, v in enumerate(order)}
    buckets: list[list] = [[] for _ in order]
    for edges, same, differ in ((dg.ce, conflict_w, 0), (dg.se, 0, stitch_w)):
        table = {(x, y): same if x == y else differ for x in range(3) for y in range(3)}
        for u, v in edges:
            scope = tuple(sorted((pos[u], pos[v])))
            buckets[scope[0]].append((scope, table))

    choices: list[dict | None] = [None] * len(order)
    for k, scope in enumerate(scopes):
        if not buckets[k]:
            continue
        low, choice = {}, {}
        for rest in itertools.product(range(3), repeat=len(scope) - 1):
            costs = []
            for c in range(3):
                color = dict(zip(scope, (c,) + rest))
                costs.append(sum(t[tuple(color[p] for p in sub)] for sub, t in buckets[k]))
            low[rest] = min(costs)
            choice[rest] = costs.index(low[rest])
        choices[k] = choice
        if len(scope) > 1:
            buckets[scope[1]].append((scope[1:], low))

    colors = [0] * len(order)
    for k in range(len(order) - 1, -1, -1):
        if choices[k] is not None:
            colors[k] = choices[k][tuple(colors[p] for p in scopes[k][1:])]
    assignment = evaluate(dg, {v: colors[k] for k, v in enumerate(order)}, alpha)
    return SolveReport(assignment, work, True)


class TestMinFillOrder:
    """Keeping the fill counts up to date step by step changes no choice:
    order, scopes and work equal those of the count from scratch."""

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(
        st.integers(1, 22),
        st.sampled_from([0.1, 0.2, 0.3]),
        st.sampled_from([0.05, 0.15]),
        st.integers(0, 2**32 - 1),
        st.sampled_from([400, 5000, ELIMINATION_BUDGET]),
    )
    def test_random_graphs(self, n, ce_density, se_density, seed, budget):
        dg = random_graph(np.random.default_rng(seed), n, ce_density, se_density)
        assert _min_fill_order(dg, budget) == reference_min_fill_order(dg, budget)

    @pytest.mark.parametrize("seed", range(1, 31))
    def test_clip_components(self, seed):
        (comp,) = clip_components(seed)
        plan = _min_fill_order(comp, ELIMINATION_BUDGET)
        assert plan is not None
        assert plan == reference_min_fill_order(comp, ELIMINATION_BUDGET)

    @pytest.mark.parametrize("dg, work", [
        pytest.param(conflict_grid(8), 457_068, id="grid8"),
        pytest.param(conflict_grid(9), 1_925_355, id="grid9"),
        pytest.param(conflict_clique(13), 2_391_483, id="clique13"),
        # its first two scopes alone fill 3^14 + 3^13 = 6,377,292 entries
        pytest.param(conflict_clique(14), None, id="clique14"),
    ])
    def test_the_budget_alone_stops_the_order(self, dg, work):
        plan = _min_fill_order(dg, ELIMINATION_BUDGET)
        assert (plan and plan[2]) == work
        assert plan == reference_min_fill_order(dg, ELIMINATION_BUDGET)


class TestEliminationIdentity:
    """The numpy tables, int64 or Python ints, change no step of the
    elimination: colors, objective, work and proven flag equal those of the
    dict tables."""

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(
        st.integers(1, 22),
        st.sampled_from([0.1, 0.2, 0.3]),
        st.sampled_from([0.05, 0.15]),
        st.integers(0, 2**32 - 1),
        st.sampled_from([Fraction(1, 10), Fraction(1, 3), Fraction(2), 5e-324]),
    )
    def test_random_graphs(self, n, ce_density, se_density, seed, alpha):
        dg = random_graph(np.random.default_rng(seed), n, ce_density, se_density)
        # past 20 000 entries both return None, which keeps the dicts quick
        with elimination_budget(20_000):
            got = solve_exact(dg, alpha)
        assert got == reference_elimination(dg, alpha, 20_000)

    @pytest.mark.parametrize("seed", range(1, 31))
    def test_clip_components(self, seed):
        (comp,) = clip_components(seed)
        for alpha in (Fraction(1, 10), 5e-324):
            got = solve_exact(comp, alpha)
            assert got is not None
            assert got == reference_elimination(comp, alpha)

    # the tests above stop at 20 000 entries and 22 nodes, so their scopes
    # stay narrow; these reach scopes of 8 to 11 nodes, whose color slices
    # hold 3^7 to 3^10 entries each, many of them tied
    @pytest.mark.parametrize("dg, scope", [
        pytest.param(stitched_grid(6), 8, id="grid6"),
        pytest.param(stitched_clique(9), 9, id="clique9"),
        pytest.param(stitched_grid(7), 10, id="grid7"),
        pytest.param(stitched_clique(11), 11, id="clique11"),
    ])
    @pytest.mark.parametrize("alpha", [Fraction(1, 10), 5e-324])
    def test_wide_buckets_with_ties(self, dg, scope, alpha):
        _, scopes, _ = _min_fill_order(dg, ELIMINATION_BUDGET)
        assert max(map(len, scopes)) == scope
        assert solve_exact(dg, alpha) == reference_elimination(dg, alpha)


BUDGETS = (1, 2, 7, 50, 400, 5000, ELIMINATION_BUDGET)


class TestBudgetCut:
    """A budget below the work returns None; any budget at or above it
    returns the report of the default budget."""

    @pytest.mark.parametrize("seed", range(8))
    def test_every_budget_of_a_small_elimination(self, seed):
        rng = np.random.default_rng(seed)
        dg = random_graph(rng, int(rng.integers(6, 12)), 0.35, 0.15)
        full = solve_exact(dg, Fraction(1, 10))
        for budget in range(full.nodes_explored + 2):
            with elimination_budget(budget):
                got = solve_exact(dg, Fraction(1, 10))
            if budget < full.nodes_explored:
                assert got is None
            else:
                assert got == full

    def test_budgets_cut_a_clip_component(self):
        # 6276 entries: the budgets above cut all but the default one
        (comp,) = clip_components(22)
        reports = []
        for budget in BUDGETS:
            with elimination_budget(budget):
                reports.append(solve_exact(comp, Fraction(1, 10)))
        assert reports[:-1] == [None] * (len(BUDGETS) - 1)
        assert reports[-1].nodes_explored == 6276 and reports[-1].proven_optimal
