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
from typing import NamedTuple

from .graphs import Pair, neighbor_sets, ordered_pair
from .unionfind import DisjointSet


class TrianglePair(NamedTuple):
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
    """All pairs of triangles sharing an edge, over conflict edges only, by
    shared edge and then by apexes. A duplicated edge is listed as often as
    it occurs, and an endpoint missing from ``nodes`` counts as a node."""
    adj = neighbor_sets(nodes, ce_edges)
    out = []
    for u, v in sorted(ordered_pair(a, b) for a, b in ce_edges):
        common = adj[u] & adj[v]
        if len(common) > 1:
            common = sorted(common)
            shared = (u, v)
            for i, a in enumerate(common, 1):
                for b in common[i:]:
                    out.append(TrianglePair(shared, a, b))
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
        a, b = pair = (tri.apex_a, tri.apex_b)  # apexes come in order
        seen = witness.get(pair)
        if seen is not None:  # already united
            seen.append(tri)
            continue
        witness[pair] = [tri]
        if dsu.union(a, b):
            links[a].append(b)
            links[b].append(a)

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
