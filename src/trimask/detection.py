"""Pre-solve detection of one class of graphs that no 3-coloring can satisfy.

When two triangles of the conflict graph share an edge, their two outer
apexes are forced onto the same mask by any conflict-free coloring. Those
same-mask constraints are transitive; if a conflict edge ever joins two
nodes of one constraint class, no conflict-free assignment exists. The
classes are the connected components of the apex pairs, and the witness of
such an edge is the shortest chain of apex pairs between its endpoints. The
check is sound but deliberately incomplete: triangle-free graphs that still
need four colors pass undetected.

The pipeline checks each component of the decomposition graph and keeps
only the witness, so a feasible component yields ``None``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graphs import DecompositionGraph, Pair, _union_find, neighbor_sets


@dataclass(frozen=True)
class InfeasibleWitness:
    """A conflict edge inside one same-mask class, plus the constraint chain
    linking its endpoints."""

    edge: Pair
    path: tuple[int, ...]


def propagate_and_check(dg: DecompositionGraph) -> InfeasibleWitness | None:
    """The witness that no conflict-free coloring of ``dg`` exists, or None
    when the same-mask classes hold no conflict edge.

    Each conflict edge that two or more triangles share joins every pair of
    its apexes (the common neighbors of its ends) into one class. Triangles
    are enumerated once on the conflict edges and merged classes never act
    as synthetic edges, so the classes are the connected components of the
    apex pairs. The witness edge is the first such edge in sorted order, and
    its chain comes from the apex pairs alone. ``dg.ce`` already holds
    ordered pairs of ``dg.nodes``, so no edge is normalized again.
    """
    edges = sorted(dg.ce)
    adj = neighbor_sets(dg.nodes, edges)
    pairs: set[Pair] = set()
    for u, v in edges:
        common = adj[u] & adj[v]
        if len(common) > 1:
            pairs.update(combinations(sorted(common), 2))
    # each node's class is named by its union-find root, the class's
    # smallest node; ascending, each parent already points at its root
    root = _union_find(dg.nodes, pairs)
    for n in dg.nodes:
        root[n] = root[root[n]]
    for u, v in edges:
        if root[u] == root[v]:
            # u is an apex, so the pairs' own nodes are all the chain needs
            path = _constraint_path(neighbor_sets((), pairs), u, v)
            return InfeasibleWitness(edge=(u, v), path=path)
    return None


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
