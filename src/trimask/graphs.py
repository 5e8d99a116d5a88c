"""Decomposition-graph structures, objective evaluation, and a brute-force oracle.

A decomposition graph carries two disjoint edge sets: conflict edges (CE),
penalized when both endpoints land on the same mask, and stitch edges (SE),
penalized (weight alpha) when the endpoints land on different masks. A
graph has one constructor, over its segment columns and edge sets;
``from_edges`` makes an abstract graph from node ids and edge pairs.
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import compress
from typing import NamedTuple

import numpy as np

Pair = tuple[int, int]


def ordered_pair(u: int, v: int) -> Pair:
    if u == v:
        raise ValueError(f"self-loop on node {u}")
    return (u, v) if u < v else (v, u)


def neighbor_sets(nodes, edges) -> dict[int, set[int]]:
    """Neighbor sets of an undirected edge set. Every node gets an entry,
    and so does an edge endpoint missing from ``nodes``."""
    adj: dict[int, set[int]] = {n: set() for n in nodes}
    # not setdefault: its default set would be built for every endpoint
    for u, v in edges:
        try:
            adj[u].add(v)
        except KeyError:
            adj[u] = {v}
        try:
            adj[v].add(u)
        except KeyError:
            adj[v] = {u}
    return adj


def adjacency(nodes, edges) -> dict[int, tuple[int, ...]]:
    """Sorted neighbor tuples of ``neighbor_sets(nodes, edges)``."""
    return {n: tuple(sorted(nbrs)) for n, nbrs in neighbor_sets(nodes, edges).items()}


def component_sets(nodes, edges) -> list[set[int]]:
    """Node sets of the connected components of the graph on ``nodes`` and
    ``edges``, ordered by smallest node id. The component split, the
    same-mask classes of detection and the relaxation's per-component steps
    all read it, and ``component_count`` shares its union-find.
    """
    parent = _union_find(nodes, edges)
    comps: dict[int, set[int]] = {}
    for n in sorted(parent):
        # the parent is smaller, so it already points at its root
        root = parent[n] = parent[parent[n]]
        try:
            comps[root].add(n)
        except KeyError:
            comps[root] = {n}
    return list(comps.values())


def component_count(nodes, edges) -> int:
    """The number of ``component_sets(nodes, edges)``, without building
    them: the roots of the union-find."""
    return sum(1 for n, p in _union_find(nodes, edges).items() if n == p)


def _union_find(nodes, edges) -> dict[int, int]:
    """The program's one union-find: each node's parent after joining the
    ends of every edge, with no adjacency built.

    It hangs the larger root under the smaller, so every node's parent is
    smaller than the node, and roots are exactly the nodes that are their
    own parent: the smallest nodes of their components.
    """
    parent = {n: n for n in nodes}
    for u, v in edges:
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        # not max and min: two builtin calls per edge doubled this loop's time
        if u < v:
            parent[v] = u
        elif v < u:
            parent[u] = v
    return parent


def connected_components(dg: DecompositionGraph) -> list[DecompositionGraph]:
    """The components of a decomposition graph as induced subgraphs,
    ordered by smallest node id. A layout graph's components are its
    ``component_sets``.

    One pass over the segments and the edges deals each to the component
    of its node in ``component_sets``. Each component keeps the parent's
    segment order and edge order, so its edge sets iterate as an induced
    ``subgraph`` of each would.
    """
    comps = component_sets(dg.nodes, dg.edges)
    label = {n: k for k, comp in enumerate(comps) for n in comp}
    # per component: its segments' rows, conflict edges and stitch edges
    parts = [([], [], []) for _ in comps]
    for row, seg_id in enumerate(dg.ids):
        parts[label[seg_id]][0].append(row)
    for e in dg.ce:
        parts[label[e[0]]][1].append(e)
    for e in dg.se:
        parts[label[e[0]]][2].append(e)
    return [
        DecompositionGraph(
            map(dg.ids.__getitem__, rows), map(dg.parents.__getitem__, rows),
            map(dg.rects.__getitem__, rows), frozenset(c), frozenset(t),
        )
        for rows, c, t in parts
    ]


def as_fraction(alpha) -> Fraction:
    """Exact rational view of a weight; floats go through their decimal repr."""
    if isinstance(alpha, Fraction):
        return alpha
    if isinstance(alpha, int):
        return Fraction(alpha)
    return Fraction(decimal.Decimal(repr(float(alpha))))


class Segment(NamedTuple):
    """One node of a decomposition graph: a piece of a parent shape.

    ``rect`` is None for abstract graphs that were not derived from geometry.
    A graph keeps no ``Segment``: it stores their fields as columns and
    ``DecompositionGraph.segments`` makes them on request.
    """

    id: int
    parent: int
    rect: tuple[int, int, int, int] | None = None


@dataclass(frozen=True)
class DecompositionGraph:
    """Segments and the conflict and stitch edges between them.

    The segments are stored as three columns, segment k being
    ``Segment(ids[k], parents[k], rects[k])``, and never as ``Segment``
    objects: a layout's graph has one segment per shape, and a layout of
    5000 shapes kept 5000 more tuples alive for the garbage collector to
    walk. The columns may be given as any iterables and are stored as
    tuples. Two graphs are equal when their columns and edges are.
    """

    ids: tuple[int, ...]
    parents: tuple[int, ...]
    rects: tuple[tuple[int, int, int, int] | None, ...]
    ce: frozenset[Pair]
    se: frozenset[Pair]

    def __post_init__(self):
        ids, parents, rects = tuple(self.ids), tuple(self.parents), tuple(self.rects)
        if not len(ids) == len(parents) == len(rects):
            raise ValueError("segment columns differ in length")
        known = set(ids)
        if len(known) != len(ids):
            raise ValueError("duplicate segment ids")
        for name, value in (("ids", ids), ("parents", parents), ("rects", rects)):
            object.__setattr__(self, name, value)
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop on node {u}")
            if u not in known or v not in known:
                raise ValueError(f"edge ({u},{v}) references unknown node")
        if self.ce & self.se:
            raise ValueError("an edge cannot be both conflict and stitch")

    @property
    def segments(self) -> tuple[Segment, ...]:
        """The segments in stored order, made afresh on each access."""
        return tuple(map(Segment, self.ids, self.parents, self.rects))

    @classmethod
    def from_edges(cls, nodes, ce=(), se=(), parents=None) -> "DecompositionGraph":
        """Abstract graph from plain node ids and edge pairs.

        ``nodes`` is an iterable of ids or an int n meaning ids 0..n-1.
        """
        if isinstance(nodes, int):
            nodes = range(nodes)
        ids = sorted(nodes)
        parents = parents or {}
        return cls(
            ids, [parents.get(i, i) for i in ids], [None] * len(ids),
            ce=frozenset(ordered_pair(u, v) for u, v in ce),
            se=frozenset(ordered_pair(u, v) for u, v in se),
        )

    @cached_property
    def nodes(self) -> tuple[int, ...]:
        return tuple(sorted(self.ids))

    @cached_property
    def edges(self) -> frozenset[Pair]:
        """Conflict and stitch edges together."""
        return self.ce | self.se

    @cached_property
    def adjacency(self) -> dict[int, tuple[int, ...]]:
        return adjacency(self.nodes, self.edges)

    def subgraph(self, keep) -> "DecompositionGraph":
        """Induced subgraph; node ids are preserved."""
        keep = set(keep)
        rows = [i in keep for i in self.ids]
        return DecompositionGraph(
            compress(self.ids, rows), compress(self.parents, rows), compress(self.rects, rows),
            ce=frozenset(e for e in self.ce if e[0] in keep and e[1] in keep),
            se=frozenset(e for e in self.se if e[0] in keep and e[1] in keep),
        )


@dataclass(frozen=True)
class MaskAssignment:
    """A full coloring plus the conflict/stitch sets it induces.

    The objective is kept exact: integer edge counts combined with a
    rational alpha, so ties never depend on float rounding.
    """

    colors: dict[int, int]
    conflicts: frozenset[Pair]
    stitches: frozenset[Pair]
    alpha: Fraction

    @property
    def conflict_count(self) -> int:
        return len(self.conflicts)

    @property
    def stitch_count(self) -> int:
        return len(self.stitches)

    @property
    def objective(self) -> Fraction:
        return Fraction(self.conflict_count) + self.alpha * self.stitch_count


def evaluate(dg: DecompositionGraph, colors: dict[int, int], alpha) -> MaskAssignment:
    """Score a coloring: conflicts on same-color CE, stitches on split SE.

    Every node of ``dg`` needs a color 0, 1 or 2: an ``int``, or a numpy
    integer, which the assignment stores as an ``int``. A ``bool`` or a
    float is no color. The assignment holds the colors of the nodes of
    ``dg`` alone, in node order, so ``format_assignment`` always writes
    integers.
    """
    color_of = colors.get
    out: dict[int, int] = {}
    for node in dg.nodes:
        color = color_of(node)
        if color.__class__ is not int:
            if node not in colors:
                raise ValueError(f"node {node} is uncolored")
            if isinstance(color, np.integer):
                color = int(color)
        if color.__class__ is not int or not 0 <= color <= 2:
            raise ValueError(f"node {node} has color {color}, expected 0..2")
        out[node] = color
    conflicts = frozenset([e for e in dg.ce if out[e[0]] == out[e[1]]])
    stitches = frozenset([e for e in dg.se if out[e[0]] != out[e[1]]])
    return MaskAssignment(
        colors=out,
        conflicts=conflicts,
        stitches=stitches,
        alpha=as_fraction(alpha),
    )


@lru_cache(maxsize=4)
def _color_table(n: int) -> np.ndarray:
    """All 3^n colorings as rows of base-3 digits, lexicographic order."""
    place = 3 ** np.arange(n - 1, -1, -1, dtype=np.int64)
    codes = np.arange(3**n, dtype=np.int64)
    return ((codes[:, None] // place[None, :]) % 3).astype(np.int8)


# the most nodes brute_force_optimum enumerates, 3^16 colorings
BRUTE_FORCE_LIMIT = 16


def brute_force_optimum(dg: DecompositionGraph, alpha) -> MaskAssignment:
    """Exhaustive 3^n minimization; the reference oracle for every solver.

    Ties break toward the lexicographically smallest color vector over nodes
    in ascending id order. The last (at most 12) nodes take their colors
    from the cached table of all their colorings; each coloring of the first
    n - 12 nodes, in lexicographic order, scores one block of that table.
    """
    nodes = dg.nodes
    n = len(nodes)
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force limited to {BRUTE_FORCE_LIMIT} nodes, got {n}")
    if n == 0:
        return evaluate(dg, {}, alpha)

    index = {node: k for k, node in enumerate(nodes)}
    frac = as_fraction(alpha)
    stitch_w, conflict_w = frac.numerator, frac.denominator
    ce = [(index[u], index[v]) for u, v in sorted(dg.ce)]
    se = [(index[u], index[v]) for u, v in sorted(dg.se)]
    high = max(0, n - 12)
    table = _color_table(n - high)
    place = 3 ** np.arange(n - 1, -1, -1, dtype=np.int64)
    # weights whose sums could pass int64 (a float alpha can have a
    # denominator of up to 1074 bits) score in Python ints
    dtype = np.int64 if conflict_w * len(ce) + stitch_w * len(se) < 2**62 else object

    best_score = best_code = None
    for prefix in range(3**high):
        # per node position: a fixed digit of the prefix, or a table column
        cols = [*(prefix * len(table) // place[:high] % 3), *table.T]
        score = np.zeros(len(table), dtype=dtype)
        for u, v in ce:
            score += np.multiply(cols[u] == cols[v], conflict_w, dtype=dtype)
        for u, v in se:
            score += np.multiply(cols[u] != cols[v], stitch_w, dtype=dtype)
        k = int(np.argmin(score))
        if best_score is None or score[k] < best_score:
            best_score, best_code = int(score[k]), prefix * len(table) + k

    digits = (best_code // place) % 3
    colors = {node: int(digits[index[node]]) for node in nodes}
    return evaluate(dg, colors, alpha)


def parse_edgelist(text: str) -> DecompositionGraph:
    """Read the solver-level text format: first line n, then 'C u v' / 'S u v'."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty edge-list file")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise ValueError(f"bad node count line: {lines[0]!r}") from exc
    if n < 0:
        raise ValueError(f"negative node count: {n}")
    ce, se = [], []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3 or parts[0] not in ("C", "S"):
            raise ValueError(f"bad edge line: {ln!r}")
        u, v = int(parts[1]), int(parts[2])
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        (ce if parts[0] == "C" else se).append((u, v))
    return DecompositionGraph.from_edges(n, ce=ce, se=se)
