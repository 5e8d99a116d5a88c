import numpy as np
import pytest

from conftest import k4_graph, random_graph
from trimask.detection import (
    ConstraintClasses,
    InfeasibleWitness,
    TrianglePair,
    find_adjacent_triangles,
    propagate_and_check,
)
from trimask.graphs import adjacency, brute_force_optimum, ordered_pair

BOWTIE = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]  # triangles 012 and 123 share (1,2)


def grotzsch_graph():
    """Triangle-free but needs four colors: the classic blind spot for
    adjacent-triangle detection (built as the cycle-5 Mycielskian)."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    for k in range(5):
        edges += [(5 + k, (k + 1) % 5), (5 + k, (k - 1) % 5)]
    edges += [(10, 5 + k) for k in range(5)]
    return list(range(11)), edges


class TestAdjacentTriangles:
    def test_bowtie_apexes(self):
        tris = find_adjacent_triangles(range(4), BOWTIE)
        assert len(tris) == 1
        assert tris[0].shared == (1, 2)
        assert (tris[0].apex_a, tris[0].apex_b) == (0, 3)

    def test_single_triangle_empty(self):
        assert find_adjacent_triangles(range(3), [(0, 1), (1, 2), (0, 2)]) == []

    def test_k4_six_pairs(self):
        dg = k4_graph()
        tris = find_adjacent_triangles(dg.nodes, dg.ce)
        assert len(tris) == 6
        assert {t.shared for t in tris} == set(dg.ce)


class TestPropagate:
    def test_bowtie_constraint_found_but_feasible(self):
        verdict = propagate_and_check(range(4), BOWTIE)
        assert isinstance(verdict, ConstraintClasses)
        assert verdict.joint(0, 3)
        # exactly one witnessing triangle pair, recorded once
        assert len(verdict.witness[(0, 3)]) == 1

    def test_chain_infeasible_with_path(self):
        # two-step constraint chain a~d, d~f plus the closing edge (a,f);
        # nodes: a=0 b=1 c=2 d=3, second bowtie d-4-5-f with f=6
        edges = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3),
                 (3, 4), (3, 5), (4, 5), (4, 6), (5, 6),
                 (0, 6)]
        verdict = propagate_and_check(range(7), edges)
        assert isinstance(verdict, InfeasibleWitness)
        assert verdict.edge == (0, 6)
        assert verdict.path == (0, 3, 6)

    def test_k4_infeasible(self):
        dg = k4_graph()
        verdict = propagate_and_check(dg.nodes, dg.ce)
        assert isinstance(verdict, InfeasibleWitness)

    def test_k4_witness_is_the_shortest_chain(self):
        # K4's apex pairs, in the order triangles are listed: (0,1) shared
        # by the last triangles, so a spanning forest grown in that order
        # (2-3, 1-3, 0-3) links 0 to 1 only through 3; the shortest chain
        # is the apex pair (0,1) itself
        dg = k4_graph()
        verdict = propagate_and_check(dg.nodes, dg.ce)
        assert verdict.edge == (0, 1)
        assert verdict.path == (0, 1)

    def test_shortest_chain_ties_go_to_the_smaller_neighbor(self):
        # two chains of two apex pairs from 0 to 6, through 3 or through 2
        edges = [(0, 1), (0, 4), (1, 4), (1, 3), (3, 4),  # apexes 0, 3 on (1,4)
                 (0, 5), (0, 7), (5, 7), (5, 2), (2, 7),  # apexes 0, 2 on (5,7)
                 (3, 8), (3, 9), (8, 9), (8, 6), (6, 9),  # apexes 3, 6 on (8,9)
                 (2, 10), (2, 11), (10, 11), (10, 6), (6, 11),  # apexes 2, 6
                 (0, 6)]
        verdict = propagate_and_check(range(12), edges)
        assert verdict.edge == (0, 6)
        assert verdict.path == (0, 2, 6)

    def test_bipartite_all_singletons(self):
        edges = [(0, 2), (0, 3), (1, 2), (1, 3)]
        verdict = propagate_and_check(range(4), edges)
        assert isinstance(verdict, ConstraintClasses)
        assert all(len(cls) == 1 for cls in verdict.classes)

    def test_soundness_against_oracle(self):
        rng = np.random.default_rng(11)
        flagged = 0
        for _ in range(60):
            n = int(rng.integers(4, 12))
            dg = random_graph(rng, n, 0.45, 0.0)
            verdict = propagate_and_check(dg.nodes, dg.ce)
            if isinstance(verdict, InfeasibleWitness):
                flagged += 1
                assert brute_force_optimum(dg, 0.1).conflict_count >= 1
        assert flagged >= 3  # density chosen so the check actually fires

    def test_grotzsch_not_detected(self):
        nodes, edges = grotzsch_graph()
        assert len(edges) == 20
        assert find_adjacent_triangles(nodes, edges) == []
        verdict = propagate_and_check(nodes, edges)
        assert isinstance(verdict, ConstraintClasses)

    def test_grotzsch_truly_un3colorable(self):
        from trimask.graphs import DecompositionGraph

        nodes, edges = grotzsch_graph()
        dg = DecompositionGraph.from_edges(nodes, ce=edges)
        assert brute_force_optimum(dg, 0.1).conflict_count >= 1

    def test_detection_does_not_modify_input(self):
        edges = list(BOWTIE)
        nodes = list(range(4))
        propagate_and_check(nodes, edges)
        assert edges == BOWTIE and nodes == list(range(4))


# --- the detection with sorted-tuple adjacency and a set per shared edge, and
# networkx's components and shortest paths, as the reference for the module's -


def reference_triangles(nodes, ce_edges) -> list[TrianglePair]:
    adj = adjacency(nodes, ce_edges)
    out = []
    for u, v in sorted(ordered_pair(a, b) for a, b in ce_edges):
        common = sorted(set(adj[u]).intersection(adj[v]))
        for i in range(len(common)):
            for j in range(i + 1, len(common)):
                out.append(TrianglePair(shared=(u, v), apex_a=common[i], apex_b=common[j]))
    return out


def apex_pair_graph(nodes, ce_edges):
    """networkx graph of the apex pairs of ``reference_triangles``."""
    nx = pytest.importorskip("networkx")
    graph = nx.Graph()
    graph.add_nodes_from(set(nodes) | {n for e in ce_edges for n in e})
    graph.add_edges_from((t.apex_a, t.apex_b) for t in reference_triangles(nodes, ce_edges))
    return graph


def messy_graph(rng, n, density):
    """Conflict edges on scattered ids, each written either way round, some
    repeated, with some endpoints left out of the node list."""
    ids = [int(i) for i in rng.choice(10 * n, size=n, replace=False) - 3 * n]
    edges = []
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < density:
                u, v = (ids[a], ids[b]) if rng.random() < 0.5 else (ids[b], ids[a])
                edges += [(u, v)] * (2 if rng.random() < 0.1 else 1)
    nodes = [i for i in ids if rng.random() < 0.8]
    return nodes, edges


class TestAgainstReference:
    """Set adjacency, sorting only where two apexes meet, and tuple
    triangles: the same triangles in the same order. The classes are the
    connected components of the apex pairs, the witness edge is the first
    sorted conflict edge inside a class, and its chain is a shortest path of
    apex pairs between its endpoints."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_graphs(self, seed):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        nodes, edges = messy_graph(rng, n, float(rng.choice([0.1, 0.25, 0.5, 0.8])))
        triangles = reference_triangles(nodes, edges)
        assert find_adjacent_triangles(nodes, edges) == triangles
        apexes = apex_pair_graph(nodes, edges)
        classes = sorted(tuple(sorted(c)) for c in nx.connected_components(apexes))
        joined = [e for e in sorted({ordered_pair(u, v) for u, v in edges})
                  if nx.has_path(apexes, *e)]
        got = propagate_and_check(nodes, edges)
        if joined:
            assert isinstance(got, InfeasibleWitness)
            assert got.edge == joined[0]
            assert (got.path[0], got.path[-1]) == got.edge
            assert all(apexes.has_edge(a, b) for a, b in zip(got.path, got.path[1:]))
            assert len(got.path) - 1 == nx.shortest_path_length(apexes, *got.edge)
        else:
            assert isinstance(got, ConstraintClasses)
            assert sorted(got.classes) == classes
            witness = {}
            for tri in triangles:
                witness.setdefault((tri.apex_a, tri.apex_b), []).append(tri)
            want = {p: tuple(w) for p, w in sorted(witness.items())}
            assert got.witness == want
            assert list(got.witness) == list(want)

    def test_both_verdicts_are_covered(self):
        verdicts = set()
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 30))
            nodes, edges = messy_graph(rng, n, float(rng.choice([0.1, 0.25, 0.5, 0.8])))
            verdicts.add(type(propagate_and_check(nodes, edges)))
        assert verdicts == {ConstraintClasses, InfeasibleWitness}

    def test_duplicate_edge_lists_its_triangles_twice(self):
        edges = BOWTIE + [(2, 1)]
        tris = find_adjacent_triangles(range(4), edges)
        assert tris == reference_triangles(range(4), edges)
        assert tris == [((1, 2), 0, 3), ((1, 2), 0, 3)]
        assert len(propagate_and_check(range(4), edges).witness[(0, 3)]) == 2

    def test_endpoint_missing_from_nodes(self):
        assert find_adjacent_triangles([1, 2], BOWTIE) == [((1, 2), 0, 3)]

    @pytest.mark.parametrize("check", [find_adjacent_triangles, propagate_and_check])
    def test_self_loop_raises(self, check):
        with pytest.raises(ValueError, match="self-loop on node 2"):
            check(range(4), BOWTIE + [(2, 2)])
