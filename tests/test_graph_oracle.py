"""The graph core (adjacency, components, bridges) against networkx."""

import numpy as np
import pytest

from conftest import random_graph
from trimask.cli import generate_layout
from trimask.geometry import build_layout_graph
from trimask.graphs import DecompositionGraph, component_sets, connected_components
from trimask.reductions import find_bridges

nx = pytest.importorskip("networkx")


def nx_graph(nodes, edges):
    g = nx.Graph()
    g.add_nodes_from(nodes)
    g.add_edges_from(edges)
    return g


def random_graphs():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(1, 25))
        yield random_graph(rng, n, float(rng.uniform(0.02, 0.3)), float(rng.uniform(0, 0.1)))


def path_graph(n=2000):
    return DecompositionGraph.from_edges(n, ce=[(i, i + 1) for i in range(n - 1)])


def check_core(graph, edges):
    ref = nx_graph(graph.nodes, edges)
    assert graph.adjacency == {n: tuple(sorted(ref[n])) for n in ref}
    expected = sorted(nx.connected_components(ref), key=min)
    assert component_sets(graph.nodes, edges) == expected


def check_split(dg):
    """The one-pass split against an induced subgraph per component: the
    same nodes and segments, and edge sets that iterate in the same order."""
    comps = connected_components(dg)
    ref = nx_graph(dg.nodes, dg.edges)
    refs = [dg.subgraph(comp) for comp in sorted(nx.connected_components(ref), key=min)]
    assert [c.nodes for c in comps] == [r.nodes for r in refs]
    assert [c.segments for c in comps] == [r.segments for r in refs]
    assert [list(c.ce) for c in comps] == [list(r.ce) for r in refs]
    assert [list(c.se) for c in comps] == [list(r.se) for r in refs]


@pytest.mark.parametrize("make", [random_graphs, lambda: [path_graph()]], ids=["random", "path2000"])
def test_decomposition_graph_matches_networkx(make):
    for dg in make():
        check_core(dg, dg.ce | dg.se)
        check_split(dg)
        ref = nx_graph(dg.nodes, dg.ce | dg.se)
        bridges = {tuple(sorted(e)) for e in nx.bridges(ref)}
        cuts = find_bridges(dg)
        assert {c.bridge for c in cuts} == bridges
        assert all(c.edge_kind == ("CE" if c.bridge in dg.ce else "SE") for c in cuts)


def test_layout_graph_matches_networkx():
    for seed, density in ((1, 6), (2, 4), (3, 2)):
        lg = build_layout_graph(generate_layout(120, density, seed=seed))
        check_core(lg, lg.edges)
