import numpy as np
import pytest

from conftest import k4_graph, random_graph
from trimask.detection import InfeasibleWitness, propagate_and_check
from trimask.graphs import DecompositionGraph, adjacency, brute_force_optimum

BOWTIE = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]  # triangles 012 and 123 share (1,2)


def conflict_graph(nodes, edges) -> DecompositionGraph:
    return DecompositionGraph.from_edges(nodes, ce=edges)


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
        # BOWTIE with its apexes numbered first: triangles 023 and 123
        # share (2,3), so 0 and 1 form one apex pair, and a conflict edge
        # closing them is its own one-step chain. (Closing BOWTIE itself
        # with (0,3) gives K4, whose first sorted edge (0,1) is a pair too.)
        bowtie = [(0, 2), (0, 3), (2, 3), (1, 2), (1, 3)]
        assert propagate_and_check(conflict_graph(range(4), bowtie)) is None
        verdict = propagate_and_check(conflict_graph(range(4), bowtie + [(0, 1)]))
        assert verdict == InfeasibleWitness(edge=(0, 1), path=(0, 1))

    def test_single_triangle_empty(self):
        # one triangle shares no edge with another, so nothing is joined
        edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]
        assert propagate_and_check(conflict_graph(range(5), edges)) is None


class TestPropagate:
    def test_bowtie_constraint_found_but_feasible(self):
        # 0 and 3 are forced together, but no conflict edge joins them
        assert propagate_and_check(conflict_graph(range(4), BOWTIE)) is None

    def test_chain_infeasible_with_path(self):
        # two-step constraint chain a~d, d~f plus the closing edge (a,f);
        # nodes: a=0 b=1 c=2 d=3, second bowtie d-4-5-f with f=6
        edges = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3),
                 (3, 4), (3, 5), (4, 5), (4, 6), (5, 6),
                 (0, 6)]
        verdict = propagate_and_check(conflict_graph(range(7), edges))
        assert isinstance(verdict, InfeasibleWitness)
        assert verdict.edge == (0, 6)
        assert verdict.path == (0, 3, 6)

    def test_k4_infeasible(self):
        assert isinstance(propagate_and_check(k4_graph()), InfeasibleWitness)

    def test_k4_witness_is_the_shortest_chain(self):
        # K4's apex pairs, in the order triangles are listed: (0,1) shared
        # by the last triangles, so a spanning forest grown in that order
        # (2-3, 1-3, 0-3) links 0 to 1 only through 3; the shortest chain
        # is the apex pair (0,1) itself
        verdict = propagate_and_check(k4_graph())
        assert verdict.edge == (0, 1)
        assert verdict.path == (0, 1)

    def test_shortest_chain_ties_go_to_the_smaller_neighbor(self):
        # two chains of two apex pairs from 0 to 6, through 3 or through 2
        edges = [(0, 1), (0, 4), (1, 4), (1, 3), (3, 4),  # apexes 0, 3 on (1,4)
                 (0, 5), (0, 7), (5, 7), (5, 2), (2, 7),  # apexes 0, 2 on (5,7)
                 (3, 8), (3, 9), (8, 9), (8, 6), (6, 9),  # apexes 3, 6 on (8,9)
                 (2, 10), (2, 11), (10, 11), (10, 6), (6, 11),  # apexes 2, 6
                 (0, 6)]
        verdict = propagate_and_check(conflict_graph(range(12), edges))
        assert verdict.edge == (0, 6)
        assert verdict.path == (0, 2, 6)

    def test_bipartite_all_singletons(self):
        # no triangles: every class is a single node, so no witness
        edges = [(0, 2), (0, 3), (1, 2), (1, 3)]
        assert propagate_and_check(conflict_graph(range(4), edges)) is None

    def test_soundness_against_oracle(self):
        rng = np.random.default_rng(11)
        flagged = 0
        for _ in range(60):
            n = int(rng.integers(4, 12))
            dg = random_graph(rng, n, 0.45, 0.0)
            verdict = propagate_and_check(dg)
            if isinstance(verdict, InfeasibleWitness):
                flagged += 1
                assert brute_force_optimum(dg, 0.1).conflict_count >= 1
        assert flagged >= 3  # density chosen so the check actually fires

    def test_grotzsch_not_detected(self):
        nodes, edges = grotzsch_graph()
        assert len(edges) == 20
        assert propagate_and_check(conflict_graph(nodes, edges)) is None

    def test_grotzsch_truly_un3colorable(self):
        nodes, edges = grotzsch_graph()
        dg = conflict_graph(nodes, edges)
        assert brute_force_optimum(dg, 0.1).conflict_count >= 1

    def test_detection_does_not_modify_input(self):
        dg = conflict_graph(range(7), BOWTIE + [(3, 4), (3, 5), (4, 5), (4, 6), (5, 6), (0, 6)])
        ce, nodes = set(dg.ce), dg.nodes
        first = propagate_and_check(dg)
        assert set(dg.ce) == ce and dg.nodes == nodes
        assert propagate_and_check(dg) == first


# --- the apex pairs from sorted-tuple adjacency, and networkx's components
# and shortest paths, as the reference for the module's verdicts ----------


def reference_apex_pairs(dg) -> list[tuple[int, int]]:
    """The apex pairs of every two triangles sharing a conflict edge."""
    adj = adjacency(dg.nodes, dg.ce)
    out = []
    for u, v in sorted(dg.ce):
        common = sorted(set(adj[u]).intersection(adj[v]))
        for i in range(len(common)):
            for j in range(i + 1, len(common)):
                out.append((common[i], common[j]))
    return out


def apex_pair_graph(dg):
    """networkx graph of the apex pairs of ``reference_apex_pairs``."""
    nx = pytest.importorskip("networkx")
    graph = nx.Graph()
    graph.add_nodes_from(dg.nodes)
    graph.add_edges_from(reference_apex_pairs(dg))
    return graph


def messy_graph(rng, n, density) -> DecompositionGraph:
    """Conflict edges on scattered ids, each written either way round, some
    repeated, with some endpoints left out of the node list; the graph
    takes the listed nodes plus every endpoint."""
    ids = [int(i) for i in rng.choice(10 * n, size=n, replace=False) - 3 * n]
    edges = []
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < density:
                u, v = (ids[a], ids[b]) if rng.random() < 0.5 else (ids[b], ids[a])
                edges += [(u, v)] * (2 if rng.random() < 0.1 else 1)
    nodes = [i for i in ids if rng.random() < 0.8]
    return conflict_graph(set(nodes) | {x for e in edges for x in e}, edges)


class TestAgainstReference:
    """The classes are the connected components of the apex pairs, the
    witness edge is the first sorted conflict edge inside a class, and its
    chain is a shortest path of apex pairs between its endpoints; with no
    such edge the verdict is None."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_graphs(self, seed):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        dg = messy_graph(rng, n, float(rng.choice([0.1, 0.25, 0.5, 0.8])))
        apexes = apex_pair_graph(dg)
        joined = [e for e in sorted(dg.ce) if nx.has_path(apexes, *e)]
        got = propagate_and_check(dg)
        if joined:
            assert isinstance(got, InfeasibleWitness)
            assert got.edge == joined[0]
            assert (got.path[0], got.path[-1]) == got.edge
            assert all(apexes.has_edge(a, b) for a, b in zip(got.path, got.path[1:]))
            assert len(got.path) - 1 == nx.shortest_path_length(apexes, *got.edge)
        else:
            assert got is None

    def test_both_verdicts_are_covered(self):
        verdicts = set()
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 30))
            dg = messy_graph(rng, n, float(rng.choice([0.1, 0.25, 0.5, 0.8])))
            verdicts.add(type(propagate_and_check(dg)))
        assert verdicts == {type(None), InfeasibleWitness}
