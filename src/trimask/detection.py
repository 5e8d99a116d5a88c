"""Pre-solve detection of one class of graphs that no 3-coloring can satisfy.

When two triangles of the conflict graph share an edge, their two outer
apexes are forced onto the same mask by any conflict-free coloring. Those
same-mask constraints are transitive; if a conflict edge ever joins two
nodes of one constraint class, no conflict-free assignment exists. The
check is sound but deliberately incomplete: triangle-free graphs that still
need four colors pass undetected.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import Pair, adjacency, ordered_pair
from .unionfind import DisjointSet


@dataclass(frozen=True)
class TrianglePair:
    """Two triangles sharing ``shared``; ``apex_a``/``apex_b`` must share a mask."""

    shared: Pair
    apex_a: int
    apex_b: int


@dataclass(frozen=True)
class ConstraintClasses:
    classes: tuple[tuple[int, ...], ...]
    witness: dict[Pair, tuple[TrianglePair, ...]] = field(default_factory=dict)

    def joint(self, u: int, v: int) -> bool:
        return any(u in cls and v in cls for cls in self.classes)


@dataclass(frozen=True)
class InfeasibleWitness:
    """A conflict edge inside one same-mask class, plus the constraint chain
    linking its endpoints."""

    edge: Pair
    path: tuple[int, ...]


def find_adjacent_triangles(nodes, ce_edges) -> list[TrianglePair]:
    """All pairs of triangles sharing an edge, over conflict edges only."""
    adj = adjacency(nodes, ce_edges)
    out = []
    for u, v in sorted(ordered_pair(a, b) for a, b in ce_edges):
        common = sorted(set(adj[u]).intersection(adj[v]))
        for i in range(len(common)):
            for j in range(i + 1, len(common)):
                out.append(TrianglePair(shared=(u, v), apex_a=common[i], apex_b=common[j]))
    return out


def propagate_and_check(nodes, ce_edges) -> ConstraintClasses | InfeasibleWitness:
    """Union every apex pair, then look for a conflict edge whose endpoints
    were forced together.

    Triangles are enumerated once on the original edge set and merged
    classes never act as synthetic edges, so one union pass reaches the
    fixpoint.
    """
    nodes = sorted(set(nodes) | {n for e in ce_edges for n in e})
    edges = sorted(ordered_pair(u, v) for u, v in ce_edges)
    dsu = DisjointSet(nodes)
    witness: dict[Pair, list[TrianglePair]] = {}
    links: dict[int, list[int]] = {n: [] for n in nodes}

    for tri in find_adjacent_triangles(nodes, edges):
        pair = ordered_pair(tri.apex_a, tri.apex_b)
        witness.setdefault(pair, []).append(tri)
        if dsu.union(*pair):
            links[pair[0]].append(pair[1])
            links[pair[1]].append(pair[0])

    for u, v in edges:
        if dsu.same(u, v):
            return InfeasibleWitness(edge=(u, v), path=_constraint_path(links, u, v))

    groups = dsu.groups()
    return ConstraintClasses(
        classes=tuple(tuple(members) for members in groups.values()),
        witness={p: tuple(w) for p, w in sorted(witness.items())},
    )


def _constraint_path(links: dict[int, list[int]], start: int, goal: int) -> tuple[int, ...]:
    """Shortest chain of same-mask constraints from start to goal (BFS)."""
    prev = {start: None}
    queue = [start]
    while queue:
        node = queue.pop(0)
        if node == goal:
            path = []
            while node is not None:
                path.append(node)
                node = prev[node]
            return tuple(reversed(path))
        for nxt in links[node]:
            if nxt not in prev:
                prev[nxt] = node
                queue.append(nxt)
    raise AssertionError("constrained nodes must be linked")
