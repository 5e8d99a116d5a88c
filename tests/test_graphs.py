import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import k4_graph, random_graph, triangle_graph, worked_example_graph
from trimask.graphs import (
    DecompositionGraph,
    as_fraction,
    brute_force_optimum,
    connected_components,
    evaluate,
    parse_edgelist,
)


class TestEvaluate:
    def test_triangle_proper_coloring(self):
        asg = evaluate(triangle_graph(), {0: 0, 1: 1, 2: 2}, 0.1)
        assert asg.conflict_count == 0 and asg.objective == 0

    def test_single_stitch(self):
        dg = DecompositionGraph.from_edges(2, se=[(0, 1)])
        asg = evaluate(dg, {0: 0, 1: 1}, 0.1)
        assert asg.stitch_count == 1
        assert asg.objective == Fraction(1, 10)

    def test_k4_every_coloring_conflicts(self):
        dg = k4_graph()
        for colors in itertools.product(range(3), repeat=4):
            asg = evaluate(dg, dict(enumerate(colors)), 0.1)
            assert asg.conflict_count >= 1

    def test_uncolored_node_named(self):
        with pytest.raises(ValueError, match="node 2"):
            evaluate(triangle_graph(), {0: 0, 1: 1}, 0.1)

    @pytest.mark.parametrize("color", [True, 1.0, np.float64(1.0), 1.5],
                             ids=["bool", "float", "numpy-float", "non-integral"])
    def test_bool_and_float_colors_are_no_colors(self, color):
        dg = DecompositionGraph.from_edges(2, ce=[(0, 1)])
        with pytest.raises(ValueError, match=f"node 1 has color {color}, expected 0..2"):
            evaluate(dg, {0: 0, 1: color}, 0.1)

    @pytest.mark.parametrize("color", [np.int64(2), np.uint8(2), np.int32(2)],
                             ids=["int64", "uint8", "int32"])
    def test_numpy_integer_color_is_stored_as_int(self, color):
        dg = DecompositionGraph.from_edges(2, ce=[(0, 1)])
        asg = evaluate(dg, {0: 2, 1: color}, 0.1)
        assert type(asg.colors[1]) is int and asg.colors[1] == 2
        assert asg.conflicts == {(0, 1)}
        with pytest.raises(ValueError, match="node 1 has color 3, expected 0..2"):
            evaluate(dg, {0: 2, 1: color + 1}, 0.1)

    def test_assignment_holds_only_the_graph_nodes(self):
        dg = DecompositionGraph.from_edges(2, ce=[(0, 1)])
        asg = evaluate(dg, {1: 1, 7: True, 0: 0}, 0.1)
        assert list(asg.colors.items()) == [(0, 0), (1, 1)]

    def test_color_permutation_invariance(self, rng):
        dg = random_graph(rng, 9)
        colors = {n: int(rng.integers(0, 3)) for n in dg.nodes}
        base = evaluate(dg, colors, 0.1)
        for perm in itertools.permutations(range(3)):
            permuted = evaluate(dg, {n: perm[c] for n, c in colors.items()}, 0.1)
            assert permuted.conflict_count == base.conflict_count
            assert permuted.stitch_count == base.stitch_count
            assert permuted.objective == base.objective

    def test_alpha_exact_rational(self):
        assert as_fraction(0.1) == Fraction(1, 10)
        assert as_fraction(Fraction(3, 7)) == Fraction(3, 7)
        assert as_fraction(2) == Fraction(2)


class TestBruteForce:
    def test_triangle(self):
        assert brute_force_optimum(triangle_graph(), 0.1).objective == 0

    def test_k4(self):
        assert brute_force_optimum(k4_graph(), 0.1).objective == 1

    def test_worked_example_grouping(self):
        asg = brute_force_optimum(worked_example_graph(), 0.1)
        assert asg.objective == 0
        colors = asg.colors
        assert colors[1] == colors[4]
        assert colors[3] == colors[5]
        assert len({colors[1], colors[2], colors[3]}) == 3

    def test_lexicographic_tiebreak(self):
        # edgeless: every coloring optimal, all-zeros is lexicographically first
        dg = DecompositionGraph.from_edges(4)
        assert brute_force_optimum(dg, 0.1).colors == {0: 0, 1: 0, 2: 0, 3: 0}

    def test_node_limit(self):
        with pytest.raises(ValueError, match="^brute force limited to 16 nodes, got 17$"):
            brute_force_optimum(DecompositionGraph.from_edges(17), 0.1)

    def test_node_limit_is_not_a_setting(self):
        with pytest.raises(TypeError):
            brute_force_optimum(DecompositionGraph.from_edges(2), 0.1, max_nodes=2)

    def test_empty_graph(self):
        assert brute_force_optimum(DecompositionGraph.from_edges(0), 0.1).objective == 0

    def test_ties_break_like_a_lexicographic_enumeration(self, rng):
        for trial in range(40):
            n = int(rng.integers(1, 8))
            dg = random_graph(rng, n, ce_density=0.4, se_density=0.2)
            alpha = (Fraction(1, 10), Fraction(1, 2), Fraction(1))[trial % 3]
            first = min(
                itertools.product(range(3), repeat=n),
                key=lambda colors: evaluate(dg, dict(zip(dg.nodes, colors)), alpha).objective,
            )
            assert brute_force_optimum(dg, alpha).colors == dict(zip(dg.nodes, first))

    def test_ties_cross_the_table_block_boundary(self):
        # beyond 12 nodes each coloring of the first n - 12 nodes scores its
        # own block of 3^12; a tie must still go to the earliest block
        edgeless = DecompositionGraph.from_edges(13)
        assert brute_force_optimum(edgeless, 0.1).colors == dict.fromkeys(range(13), 0)
        # a K4 on the first node and the last three: one conflict is optimal
        # in every block, and the lexicographically first such coloring is
        # 0 on node 0, then 0, 1, 2 on nodes 10..12
        quad = (0, 10, 11, 12)
        tied = DecompositionGraph.from_edges(13, ce=itertools.combinations(quad, 2))
        asg = brute_force_optimum(tied, 0.1)
        assert asg.objective == 1
        assert asg.colors == {**dict.fromkeys(range(13), 0), 11: 1, 12: 2}


class TestComponents:
    def test_two_triangles(self):
        dg = DecompositionGraph.from_edges(
            6, ce=[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        )
        comps = connected_components(dg)
        assert [c.nodes for c in comps] == [(0, 1, 2), (3, 4, 5)]

    def test_empty(self):
        assert connected_components(DecompositionGraph.from_edges(0)) == []

    def test_connected_identity(self):
        dg = triangle_graph()
        comps = connected_components(dg)
        assert len(comps) == 1
        assert comps[0].nodes == dg.nodes and comps[0].ce == dg.ce

    def test_se_connects(self):
        dg = DecompositionGraph.from_edges(3, se=[(0, 1)])
        comps = connected_components(dg)
        assert [c.nodes for c in comps] == [(0, 1), (2,)]

    def test_objective_additivity(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 12))
            dg = random_graph(rng, n, 0.25, 0.1)
            whole = brute_force_optimum(dg, 0.1).objective
            parts = sum(
                (brute_force_optimum(c, 0.1).objective for c in connected_components(dg)),
                Fraction(0),
            )
            assert whole == parts


class TestEdgeList:
    def test_parse(self):
        # a comment, a blank line, padding and an isolated last node
        dg = parse_edgelist("# four nodes\n4\n\nC 0 1\n  S 1 2  \nC 2 0\n")
        assert dg.nodes == (0, 1, 2, 3)
        assert dg.ce == {(0, 1), (0, 2)} and dg.se == {(1, 2)}

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_edgelist("3\nX 0 1\n")
        with pytest.raises(ValueError):
            parse_edgelist("2\nC 0 5\n")
        with pytest.raises(ValueError):
            parse_edgelist("")

    def test_comments_and_blanks_skipped(self):
        dg = parse_edgelist("# triangle\n3\n\nC 0 1\nC 1 2\nC 0 2\n")
        assert dg.ce == {(0, 1), (1, 2), (0, 2)}


TOKENS = st.sampled_from(["C", "S", "X", "c", "0", "1", "2", "-1", "7", "1_0", "x", "#", "٣"])
EDGE_LINES = st.lists(TOKENS, max_size=4).map(" ".join)
EDGE_LISTS = st.builds(
    lambda head, body: "\n".join([head, *body]),
    st.integers(-2, 8).map(str) | TOKENS | st.just(""),
    st.lists(EDGE_LINES, max_size=8),
)


def declared_nodes(text: str) -> int:
    """The node count a text's first content line declares, 0 if none."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    try:
        return int(lines[0]) if lines else 0
    except ValueError:
        return 0


class TestEdgeListText:
    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(st.text() | EDGE_LISTS)
    def test_parse_edgelist_raises_only_value_error(self, text):
        # a first line like 9999999999 would allocate that many segments
        assume(declared_nodes(text) <= 64)
        try:
            dg = parse_edgelist(text)
        except ValueError:
            return
        assert len(dg.nodes) == max(declared_nodes(text), 0)


class TestGraphValidation:
    def test_edge_cannot_be_both(self):
        with pytest.raises(ValueError):
            DecompositionGraph.from_edges(2, ce=[(0, 1)], se=[(0, 1)])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            DecompositionGraph.from_edges(2, ce=[(1, 1)])

    def test_unknown_node_rejected(self):
        with pytest.raises(ValueError):
            DecompositionGraph.from_edges(2, ce=[(0, 5)])

    @pytest.mark.parametrize("columns", [
        lambda: (range(3), range(3), itertools.repeat(None, 3)),
        lambda: (map(int, "012"), map(int, "012"), map(lambda _: None, "012")),
        lambda: ([0, 1, 2], [0, 1, 2], [None, None, None]),
        lambda: ((0, 1, 2), (0, 1, 2), (None, None, None)),
        lambda: tuple(
            itertools.compress(c, [1, 0, 1, 1]) for c in ([0, 9, 1, 2], [0, 9, 1, 2], [None] * 4)
        ),
    ], ids=["range", "map", "list", "tuple", "compress"])
    def test_columns_are_stored_as_tuples(self, columns):
        ce, se = frozenset({(0, 1)}), frozenset({(1, 2)})
        dg = DecompositionGraph(*columns(), ce, se)
        assert (dg.ids, dg.parents, dg.rects) == ((0, 1, 2), (0, 1, 2), (None,) * 3)
        assert type(dg.ids) is type(dg.parents) is type(dg.rects) is tuple
        reference = DecompositionGraph((0, 1, 2), (0, 1, 2), (None, None, None), ce, se)
        assert dg == reference and hash(dg) == hash(reference)

    @pytest.mark.parametrize("ids, parents, ce, se, message", [
        ((0, 1), (0,), (), (), "segment columns differ in length"),
        ((0, 0), (0, 0), (), (), "duplicate segment ids"),
        ((0, 1), (0, 1), [(1, 1)], (), "self-loop on node 1"),
        ((0, 1), (0, 1), [(0, 5)], (), r"edge \(0,5\) references unknown node"),
        ((0, 1), (0, 1), [(0, 1)], [(0, 1)], "an edge cannot be both conflict and stitch"),
    ])
    def test_bad_columns_or_edges_rejected(self, ids, parents, ce, se, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            DecompositionGraph(ids, parents, [None] * 2, frozenset(ce), frozenset(se))
