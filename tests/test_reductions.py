import heapq

import numpy as np
import pytest

from conftest import PEEL_FALLBACK_LAYOUT, random_graph
from trimask.cli import generate_layout
from trimask.geometry import LayoutGraph, build_layout_graph, project_and_split
from trimask.graphs import DecompositionGraph, brute_force_optimum, connected_components, evaluate
from trimask.reductions import (
    find_bridges,
    peel_low_degree,
    reinsert_segments,
    stitch_and_rotate,
)


def lg_from_edges(n, edges):
    return LayoutGraph(nodes=tuple(range(n)), edges=frozenset(
        (min(u, v), max(u, v)) for u, v in edges
    ))


CYCLE5 = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
K4 = [(i, j) for i in range(4) for j in range(i + 1, 4)]


class TestPeel:
    def test_cycle_fully_peeled(self):
        residual, peeled = peel_low_degree(lg_from_edges(5, CYCLE5))
        assert residual.nodes == ()
        assert len(peeled) == 5

    def test_k4_untouched(self):
        residual, peeled = peel_low_degree(lg_from_edges(4, K4))
        assert set(residual.nodes) == {0, 1, 2, 3}
        assert len(peeled) == 0

    def test_sparse_mesh_fully_peeled(self):
        # a tree plus a pendant cycle: everything has degree <= 2 eventually
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 2), (1, 6), (6, 7)]
        residual, peeled = peel_low_degree(lg_from_edges(8, edges))
        assert residual.nodes == ()
        assert len(peeled) == 8

    def test_recorded_neighbor_sets_small(self):
        # replaying the order on lg, each node has at most 2 neighbors left
        rng = np.random.default_rng(0)
        for _ in range(20):
            dg = random_graph(rng, 10, 0.3, 0.0)
            lg = lg_from_edges(10, dg.ce)
            _, peeled = peel_low_degree(lg)
            adj = {n: set(lg.adjacency[n]) for n in lg.nodes}
            for node in peeled:
                assert len(adj[node]) <= 2
                for other in adj.pop(node):
                    adj[other].discard(node)

    def test_order_takes_the_smallest_eligible_node_first(self):
        # reference: rescan every node's current degree at each step
        rng = np.random.default_rng(3)
        for _ in range(60):
            n = int(rng.integers(2, 30))
            dg = random_graph(rng, n, float(rng.uniform(0.05, 0.35)), 0.0)
            lg = lg_from_edges(n, dg.ce)
            adj = {v: set(lg.adjacency[v]) for v in lg.nodes}
            order = []
            while eligible := [v for v in adj if len(adj[v]) <= 2]:
                node = min(eligible)
                order.append(node)
                for other in adj.pop(node):
                    adj[other].discard(node)
            residual, peeled = peel_low_degree(lg)
            assert peeled == tuple(order)
            assert residual.nodes == tuple(sorted(adj))
            assert residual.edges == frozenset(e for e in lg.edges if e[0] in adj and e[1] in adj)

    def test_residual_min_degree_three(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            dg = random_graph(rng, 11, 0.3, 0.0)
            lg = lg_from_edges(11, dg.ce)
            residual, _ = peel_low_degree(lg)
            for node in residual.nodes:
                assert len(residual.adjacency[node]) >= 3


class TestReinsert:
    """Reinsertion on abstract graphs, where every segment is its own shape."""

    def test_isolated_gets_zero(self):
        dg = DecompositionGraph.from_edges([7])
        assert reinsert_segments(dg, (7,), {}) == ({7: 0}, set())

    def test_forced_color(self):
        dg = DecompositionGraph.from_edges(3, ce=[(0, 1), (0, 2)])
        colors, blocked = reinsert_segments(dg, (0,), {1: 0, 2: 1})
        assert colors[0] == 2 and not blocked

    def test_cycle5_proper(self):
        lg = lg_from_edges(5, CYCLE5)
        residual, peeled = peel_low_degree(lg)
        dg = DecompositionGraph.from_edges(5, ce=CYCLE5)
        colors, blocked = reinsert_segments(dg, peeled, {})
        assert evaluate(dg, colors, 0.1).conflict_count == 0
        assert not blocked

    def test_peel_then_optimal_matches_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(4, 13))
            dg = random_graph(rng, n, 0.3, 0.0)
            lg = lg_from_edges(n, dg.ce)
            residual, peeled = peel_low_degree(lg)
            partial = brute_force_optimum(dg.subgraph(residual.nodes), 0.1).colors
            colors, blocked = reinsert_segments(dg, peeled, partial)
            got = evaluate(dg, colors, 0.1).objective
            assert got == brute_force_optimum(dg, 0.1).objective
            assert not blocked

    def test_blocked_shape_takes_least_clashing_color(self):
        # shape 1 is split into segments 1 and 3, so the peeled shape 0 sees
        # all three colors on its neighbor shapes 1 and 2; segment 4, of
        # shape 4, adds a second clash to color 0
        dg = DecompositionGraph.from_edges(
            5, ce=[(0, 1), (0, 2), (0, 3), (0, 4)], se=[(1, 3)], parents={3: 1}
        )
        colors, blocked = reinsert_segments(dg, (0,), {1: 0, 2: 2, 3: 1, 4: 0})
        assert blocked == {0}
        assert colors[0] == 1  # color 0 clashes twice, colors 1 and 2 once


def reference_peel(lg):
    """The earlier ``peel_low_degree``: one heap over every eligible node."""
    degree = dict.fromkeys(lg.nodes, 0)
    for u, v in lg.edges:
        degree[u] += 1
        degree[v] += 1
    waiting = {n: d for n, d in degree.items() if d > 2}
    lowers = {}
    for u, v in lg.edges:
        if v in waiting:
            lowers.setdefault(u, []).append(v)
        if u in waiting:
            lowers.setdefault(v, []).append(u)
    queue = [n for n, d in degree.items() if d <= 2]
    heapq.heapify(queue)
    order = []
    while queue:
        node = heapq.heappop(queue)
        order.append(node)
        for other in lowers.get(node, ()):
            d = waiting.get(other)
            if d == 3:
                del waiting[other]
                heapq.heappush(queue, other)
            elif d is not None:
                waiting[other] = d - 1
    return lg.subgraph(waiting), tuple(order)


def reference_reinsert(dg, peeled, colors):
    """The earlier ``reinsert_segments``: a list of neighbors gathered per
    peeled segment, then the clashes of each counted as it comes back."""
    seg_of = {seg.parent: seg.id for seg in dg.segments}
    near = {seg_of[shape_id]: [] for shape_id in peeled}
    near_of = near.get
    for u, v in dg.edges:
        if (at := near_of(u)) is not None:
            at.append(v)
        if (at := near_of(v)) is not None:
            at.append(u)
    out = dict(colors)
    blocked = set()
    for shape_id in reversed(peeled):
        seg_id = seg_of[shape_id]
        c0 = c1 = c2 = 0
        for other_seg in near[seg_id]:
            if other_seg in out:
                seen = out[other_seg]
                if seen == 0:
                    c0 += 1
                elif seen == 1:
                    c1 += 1
                else:
                    c2 += 1
        if c0 <= c1 and c0 <= c2:
            color, clash = 0, c0
        elif c1 <= c2:
            color, clash = 1, c1
        else:
            color, clash = 2, c2
        if clash:
            blocked.add(shape_id)
        out[seg_id] = color
    return out, blocked


def assert_same_peel(lg):
    """``peel_low_degree`` gives the reference's order and residual."""
    residual, peeled = peel_low_degree(lg)
    ref_residual, ref_peeled = reference_peel(lg)
    assert peeled == ref_peeled
    assert residual.nodes == ref_residual.nodes
    assert residual.edges == ref_residual.edges
    return residual, peeled


def assert_same_reinsert(dg, peeled, colors):
    """``reinsert_segments`` gives the reference's colors, in the same
    order, and blocked shapes. Returns the blocked shapes."""
    got, blocked = reinsert_segments(dg, peeled, colors)
    ref, ref_blocked = reference_reinsert(dg, peeled, colors)
    assert list(got.items()) == list(ref.items())
    assert blocked == ref_blocked
    return blocked


def late_eligible(lg, peeled):
    """The peeled nodes whose starting degree was 3 or more."""
    degree = dict.fromkeys(lg.nodes, 0)
    for u, v in lg.edges:
        degree[u] += 1
        degree[v] += 1
    return [n for n in peeled if degree[n] > 2]


class TestAgainstReference:
    def test_peel_on_random_graphs_with_late_eligible_nodes(self):
        rng = np.random.default_rng(7)
        late = 0
        for _ in range(150):
            n = int(rng.integers(5, 60))
            dg = random_graph(rng, n, float(rng.uniform(2.0, 4.5)) / n, 0.0)
            # sparse ids in a shuffled node order: the run must sort them
            ids = rng.permutation(3 * n)[:n].tolist()
            lg = LayoutGraph(nodes=tuple(ids), edges=frozenset(
                (min(ids[u], ids[v]), max(ids[u], ids[v])) for u, v in dg.ce
            ))
            _, peeled = assert_same_peel(lg)
            late += len(late_eligible(lg, peeled))
        assert late > 1000  # the heap is exercised, not only the run

    def test_reinsert_with_blocked_shapes(self):
        rng = np.random.default_rng(8)
        blocked = 0
        for _ in range(100):
            shapes = int(rng.integers(4, 30))
            # every third shape is split into two stitched segments
            parents = {k: k for k in range(shapes)}
            parents.update({shapes + k: k for k in range(0, shapes, 3)})
            segments = list(parents)
            ce = [(u, v) for u in segments for v in segments
                  if u < v and parents[u] != parents[v] and rng.random() < 0.25]
            se = [(k, shapes + k) for k in range(0, shapes, 3)]
            dg = DecompositionGraph.from_edges(segments, ce=ce, se=se, parents=parents)
            unsplit = [k for k in range(shapes) if k % 3]
            peeled = tuple(rng.permutation(unsplit)[: len(unsplit) // 2 + 1].tolist())
            colors = {s: int(rng.integers(0, 3)) for s in segments if s not in peeled}
            blocked += len(assert_same_reinsert(dg, peeled, colors))
        assert blocked > 200

    @pytest.mark.parametrize("density", [2, 3, 4, 6])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_generated_layouts(self, density, seed):
        layout = generate_layout(400, density, seed=seed)
        lg = build_layout_graph(layout)
        residual, peeled = assert_same_peel(lg)
        dg = project_and_split(layout, lg, split_nodes=residual.nodes)
        rng = np.random.default_rng(seed)
        kept = set(residual.nodes)
        colors = {s.id: int(rng.integers(0, 3)) for s in dg.segments if s.parent in kept}
        assert_same_reinsert(dg, peeled, colors)

    def test_peel_fallback_layout(self):
        lg = build_layout_graph(PEEL_FALLBACK_LAYOUT)
        residual, peeled = assert_same_peel(lg)
        dg = project_and_split(PEEL_FALLBACK_LAYOUT, lg, split_nodes=residual.nodes)
        kept = [s.id for s in dg.segments if s.parent in set(residual.nodes)]
        colors = brute_force_optimum(dg.subgraph(kept), 0.1).colors
        assert assert_same_reinsert(dg, peeled, colors)


class TestBridges:
    def test_two_triangles_one_bridge(self):
        dg = DecompositionGraph.from_edges(
            6, ce=[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
        )
        cuts = find_bridges(dg)
        assert [c.bridge for c in cuts] == [(2, 3)]
        assert cuts[0].edge_kind == "CE"

    def test_cycle_has_none(self):
        dg = DecompositionGraph.from_edges(5, ce=CYCLE5)
        assert find_bridges(dg) == []

    def test_tree_all_edges(self):
        dg = DecompositionGraph.from_edges(4, ce=[(0, 1)], se=[(1, 2), (1, 3)])
        cuts = find_bridges(dg)
        assert sorted(c.bridge for c in cuts) == [(0, 1), (1, 2), (1, 3)]
        kinds = {c.bridge: c.edge_kind for c in cuts}
        assert kinds[(0, 1)] == "CE" and kinds[(1, 2)] == "SE"

    def test_matches_naive_recount(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(3, 11))
            dg = random_graph(rng, n, 0.25, 0.1)
            got = {c.bridge for c in find_bridges(dg)}
            assert got == naive_bridges(dg)


def count_components(dg, skip=None):
    seen, comps = set(), 0
    for root in dg.nodes:
        if root in seen:
            continue
        comps += 1
        stack = [root]
        seen.add(root)
        while stack:
            u = stack.pop()
            for v in dg.adjacency[u]:
                edge = (min(u, v), max(u, v))
                if edge == skip or v in seen:
                    continue
                seen.add(v)
                stack.append(v)
    return comps


def naive_bridges(dg):
    base = count_components(dg)
    out = set()
    for edge in sorted(dg.ce | dg.se):
        if count_components(dg, skip=edge) > base:
            out.add(edge)
    return out


class TestRotation:
    def test_ce_bridge_same_colors(self):
        dg = DecompositionGraph.from_edges(2, ce=[(0, 1)])
        cut = find_bridges(dg)[0]
        merged = stitch_and_rotate(cut, {0: 0}, {1: 0})
        assert merged[0] != merged[1]
        assert merged[1] == 1  # smallest rotation

    def test_se_bridge_mismatch(self):
        dg = DecompositionGraph.from_edges(2, se=[(0, 1)])
        cut = find_bridges(dg)[0]
        merged = stitch_and_rotate(cut, {0: 0}, {1: 2})
        assert merged[0] == merged[1] == 0

    def test_side_a_holds_either_endpoint(self):
        dg = DecompositionGraph.from_edges(2, ce=[(0, 1)])
        cut = find_bridges(dg)[0]
        merged = stitch_and_rotate(cut, {1: 2}, {0: 2})
        assert merged == {1: 2, 0: 0}  # node 0 is on side b and rotates

    def test_rotation_preserves_side_cost(self):
        rng = np.random.default_rng(4)
        side = random_graph(rng, 6, 0.3, 0.1)
        colors = {n: int(rng.integers(0, 3)) for n in side.nodes}
        base = evaluate(side, colors, 0.1)
        for k in range(3):
            rotated = {n: (c + k) % 3 for n, c in colors.items()}
            asg = evaluate(side, rotated, 0.1)
            assert asg.conflict_count == base.conflict_count
            assert asg.stitch_count == base.stitch_count

    def test_bridged_merge_matches_oracle(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            na, nb = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            a = random_graph(rng, na, 0.4, 0.1)
            b = random_graph(rng, nb, 0.4, 0.1)
            kind = "CE" if trial % 2 == 0 else "SE"
            # build the joined graph: b's ids shifted past a's
            ce = list(a.ce) + [(u + na, v + na) for u, v in b.ce]
            se = list(a.se) + [(u + na, v + na) for u, v in b.se]
            bridge = (na - 1, na)
            (ce if kind == "CE" else se).append(bridge)
            whole = DecompositionGraph.from_edges(na + nb, ce=ce, se=se)
            cuts = [c for c in find_bridges(whole) if c.bridge == bridge]
            assert cuts, "construction must leave the joining edge a bridge"
            # the two sides are the components of the endpoints once the bridge is cut
            cut_ce, cut_se = whole.ce - {bridge}, whole.se - {bridge}
            pieces = connected_components(DecompositionGraph(
                whole.ids, whole.parents, whole.rects, cut_ce, cut_se))
            side_a, side_b = (next(p for p in pieces if end in p.nodes) for end in bridge)
            color_a = brute_force_optimum(side_a, 0.1).colors
            color_b = brute_force_optimum(side_b, 0.1).colors
            merged = stitch_and_rotate(cuts[0], color_a, color_b)
            # the sides partition the bridge's component; score on that component
            comp = whole.subgraph(set(side_a.nodes) | set(side_b.nodes))
            got = evaluate(comp, merged, 0.1).objective
            assert got == brute_force_optimum(comp, 0.1).objective
