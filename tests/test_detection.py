import numpy as np
import pytest

from conftest import k4_graph, random_graph
from trimask.detection import (
    ConstraintClasses,
    InfeasibleWitness,
    TrianglePair,
    _constraint_path,
    find_adjacent_triangles,
    propagate_and_check,
)
from trimask.graphs import adjacency, brute_force_optimum, ordered_pair
from trimask.unionfind import DisjointSet

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


# --- the detection with sorted-tuple adjacency, a set per shared edge and a
# union per triangle pair, as the reference for the module's ------------------


def reference_triangles(nodes, ce_edges) -> list[TrianglePair]:
    adj = adjacency(nodes, ce_edges)
    out = []
    for u, v in sorted(ordered_pair(a, b) for a, b in ce_edges):
        common = sorted(set(adj[u]).intersection(adj[v]))
        for i in range(len(common)):
            for j in range(i + 1, len(common)):
                out.append(TrianglePair(shared=(u, v), apex_a=common[i], apex_b=common[j]))
    return out


def reference_propagate(nodes, ce_edges):
    nodes = sorted(set(nodes) | {n for e in ce_edges for n in e})
    edges = sorted(ordered_pair(u, v) for u, v in ce_edges)
    dsu = DisjointSet(nodes)
    witness = {}
    links = {n: [] for n in nodes}
    for tri in reference_triangles(nodes, edges):
        pair = ordered_pair(tri.apex_a, tri.apex_b)
        witness.setdefault(pair, []).append(tri)
        if dsu.union(*pair):
            links[pair[0]].append(pair[1])
            links[pair[1]].append(pair[0])
    for u, v in edges:
        if dsu.same(u, v):
            return InfeasibleWitness(edge=(u, v), path=_constraint_path(links, u, v))
    return ConstraintClasses(
        classes=tuple(tuple(members) for members in dsu.groups().values()),
        witness={p: tuple(w) for p, w in sorted(witness.items())},
    )


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
    """Set adjacency, sorting only where two apexes meet, tuple triangles and
    one union per apex pair: the same triangles in the same order, and the
    same classes, witnesses and infeasibility chain."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_graphs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        nodes, edges = messy_graph(rng, n, float(rng.choice([0.1, 0.25, 0.5, 0.8])))
        assert find_adjacent_triangles(nodes, edges) == reference_triangles(nodes, edges)
        got, want = propagate_and_check(nodes, edges), reference_propagate(nodes, edges)
        assert type(got) is type(want)
        if isinstance(want, InfeasibleWitness):
            assert (got.edge, got.path) == (want.edge, want.path)
        else:
            assert got.classes == want.classes
            assert got.witness == want.witness
            assert list(got.witness) == list(want.witness)

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
