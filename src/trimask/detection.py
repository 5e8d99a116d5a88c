"""Pre-solve detection of one class of graphs that no 3-coloring can satisfy.

When two triangles of the conflict graph share an edge, their two outer
apexes are forced onto the same mask by any conflict-free coloring. Those
same-mask constraints are transitive; if a conflict edge ever joins two
nodes of one constraint class, no conflict-free assignment exists. The
classes are the connected components of the apex pairs, and the witness of
such an edge is the shortest chain of apex pairs between its endpoints. The
check is sound but deliberately incomplete: triangle-free graphs that still
need four colors pass undetected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import NamedTuple

from .graphs import Pair, component_sets, neighbor_sets, ordered_pair


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


def _shared_edges(nodes, edges):
    """Each edge of ``edges``, in their order, that two or more triangles
    of conflict edges share, with the triangles' apexes (the common
    neighbors of its ends) sorted."""
    adj = neighbor_sets(nodes, edges)
    for u, v in edges:
        common = adj[u] & adj[v]
        if len(common) > 1:
            yield (u, v), sorted(common)


def find_adjacent_triangles(nodes, ce_edges) -> list[TrianglePair]:
    """All pairs of triangles sharing an edge, over conflict edges only, by
    shared edge and then by apexes. A duplicated edge is listed as often as
    it occurs, and an endpoint missing from ``nodes`` counts as a node."""
    edges = sorted(ordered_pair(a, b) for a, b in ce_edges)
    return [
        TrianglePair(shared, a, b)
        for shared, apexes in _shared_edges(nodes, edges)
        for a, b in combinations(apexes, 2)
    ]


def propagate_and_check(nodes, ce_edges) -> ConstraintClasses | InfeasibleWitness:
    """Join every apex pair into same-mask classes, then look for a conflict
    edge whose endpoints were forced together.

    Triangles are enumerated once on the original edge set and merged
    classes never act as synthetic edges, so the classes are the connected
    components of the apex pairs. The witness edge is the first such edge
    in sorted order, and its chain comes from the apex pairs alone. Only a
    feasible result lists the ``TrianglePair`` tuples behind each pair.
    """
    nodes = sorted(set(nodes) | {n for e in ce_edges for n in e})
    edges = sorted(ordered_pair(u, v) for u, v in ce_edges)
    pairs: set[Pair] = set()
    for _, apexes in _shared_edges(nodes, edges):
        pairs.update(combinations(apexes, 2))
    classes = component_sets(nodes, pairs)
    label = {n: k for k, cls in enumerate(classes) for n in cls}
    for u, v in edges:
        if label[u] == label[v]:
            # u is an apex, so the pairs' own nodes are all the chain needs
            path = _constraint_path(neighbor_sets((), pairs), u, v)
            return InfeasibleWitness(edge=(u, v), path=path)

    witness: dict[Pair, list[TrianglePair]] = {}
    for tri in find_adjacent_triangles(nodes, edges):
        witness.setdefault((tri.apex_a, tri.apex_b), []).append(tri)  # apexes come in order
    return ConstraintClasses(
        classes=tuple(tuple(sorted(cls)) for cls in classes),
        witness={p: tuple(w) for p, w in sorted(witness.items())},
    )


def _constraint_path(adj: dict[int, set[int]], start: int, goal: int) -> tuple[int, ...]:
    """Shortest chain of same-mask constraints from start to goal: a
    breadth-first search over the apex pairs' neighbor sets ``adj`` that
    visits neighbors in ascending id order, so of several shortest chains
    it returns the one first reached in that order. Only the nodes it
    visits have their neighbors sorted."""
    prev = {start: start}
    queue = [start]
    for node in queue:  # the list grows as it is read: a FIFO without pops
        for nxt in sorted(adj[node]):
            if nxt in prev:
                continue
            prev[nxt] = node
            if nxt == goal:
                path = [goal]
                while path[-1] != start:
                    path.append(prev[path[-1]])
                return tuple(reversed(path))
            queue.append(nxt)
    raise AssertionError("constrained nodes must be linked")
