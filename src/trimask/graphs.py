"""Decomposition-graph structures, objective evaluation, and a brute-force oracle.

A decomposition graph carries two disjoint edge sets: conflict edges (CE),
penalized when both endpoints land on the same mask, and stitch edges (SE),
penalized (weight alpha) when the endpoints land on different masks.
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

Pair = tuple[int, int]


def ordered_pair(u: int, v: int) -> Pair:
    if u == v:
        raise ValueError(f"self-loop on node {u}")
    return (u, v) if u < v else (v, u)


def adjacency(nodes, edges) -> dict[int, tuple[int, ...]]:
    """Sorted neighbor tuples of an undirected edge set. Every node gets an
    entry, and so does an edge endpoint missing from ``nodes``."""
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
    return {n: tuple(sorted(nbrs)) for n, nbrs in adj.items()}


def component_sets(graph) -> list[set[int]]:
    """Node sets of the connected components of a graph with ``nodes`` and
    ``edges`` (a layout or a decomposition graph), ordered by smallest
    node id.

    A union-find over the edges that hangs the larger root under the
    smaller, so every node's parent is smaller than the node, and roots
    are the smallest nodes of their components; no adjacency is built.
    """
    parent = {n: n for n in graph.nodes}
    for u, v in graph.edges:
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            parent[max(u, v)] = min(u, v)
    comps: dict[int, set[int]] = {}
    for n in sorted(parent):
        # the parent is smaller, so it already points at its root
        root = parent[n] = parent[parent[n]]
        try:
            comps[root].add(n)
        except KeyError:
            comps[root] = {n}
    return list(comps.values())


def connected_components(graph):
    """The components of a layout or a decomposition graph as induced
    subgraphs, ordered by smallest node id."""
    return [graph.subgraph(comp) for comp in component_sets(graph)]


def as_fraction(alpha) -> Fraction:
    """Exact rational view of a weight; floats go through their decimal repr."""
    if isinstance(alpha, Fraction):
        return alpha
    if isinstance(alpha, int):
        return Fraction(alpha)
    return Fraction(decimal.Decimal(repr(float(alpha))))


@dataclass(frozen=True)
class Segment:
    """One node of a decomposition graph: a piece of a parent shape.

    ``rect`` is None for abstract graphs that were not derived from geometry.
    """

    id: int
    parent: int
    rect: tuple[int, int, int, int] | None = None


@dataclass(frozen=True)
class DecompositionGraph:
    segments: tuple[Segment, ...]
    ce: frozenset[Pair]
    se: frozenset[Pair]

    def __post_init__(self):
        ids = [s.id for s in self.segments]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate segment ids")
        known = set(ids)
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop on node {u}")
            if u not in known or v not in known:
                raise ValueError(f"edge ({u},{v}) references unknown node")
        if self.ce & self.se:
            raise ValueError("an edge cannot be both conflict and stitch")

    @classmethod
    def from_edges(cls, nodes, ce=(), se=(), parents=None) -> "DecompositionGraph":
        """Abstract graph from plain node ids and edge pairs.

        ``nodes`` is an iterable of ids or an int n meaning ids 0..n-1.
        """
        if isinstance(nodes, int):
            nodes = range(nodes)
        ids = sorted(nodes)
        parents = parents or {}
        segs = tuple(Segment(i, parents.get(i, i)) for i in ids)
        return cls(
            segments=segs,
            ce=frozenset(ordered_pair(u, v) for u, v in ce),
            se=frozenset(ordered_pair(u, v) for u, v in se),
        )

    @cached_property
    def nodes(self) -> tuple[int, ...]:
        return tuple(sorted(s.id for s in self.segments))

    @cached_property
    def segment_by_id(self) -> dict[int, Segment]:
        return {s.id: s for s in self.segments}

    @cached_property
    def edges(self) -> frozenset[Pair]:
        """Conflict and stitch edges together."""
        return self.ce | self.se

    @cached_property
    def adjacency(self) -> dict[int, tuple[int, ...]]:
        return adjacency(self.nodes, self.edges)

    def degree(self, node: int) -> int:
        return len(self.adjacency[node])

    def subgraph(self, keep) -> "DecompositionGraph":
        """Induced subgraph; node ids are preserved."""
        keep = set(keep)
        return DecompositionGraph(
            segments=tuple(s for s in self.segments if s.id in keep),
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

    def objective_float(self) -> float:
        return float(self.objective)


def evaluate(dg: DecompositionGraph, colors: dict[int, int], alpha) -> MaskAssignment:
    """Score a coloring: conflicts on same-color CE, stitches on split SE."""
    for node in dg.nodes:
        if node not in colors:
            raise ValueError(f"node {node} is uncolored")
        if colors[node] not in (0, 1, 2):
            raise ValueError(f"node {node} has color {colors[node]}, expected 0..2")
    conflicts = frozenset(e for e in dg.ce if colors[e[0]] == colors[e[1]])
    stitches = frozenset(e for e in dg.se if colors[e[0]] != colors[e[1]])
    return MaskAssignment(
        colors=dict(colors),
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


def brute_force_optimum(dg: DecompositionGraph, alpha, max_nodes: int = 16) -> MaskAssignment:
    """Exhaustive 3^n minimization; the reference oracle for every solver.

    Ties break toward the lexicographically smallest color vector over nodes
    in ascending id order. The last (at most 12) nodes take their colors
    from the cached table of all their colorings; each coloring of the first
    n - 12 nodes, in lexicographic order, scores one block of that table.
    """
    nodes = dg.nodes
    n = len(nodes)
    if n > max_nodes:
        raise ValueError(f"brute force limited to {max_nodes} nodes, got {n}")
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

    best_score = best_code = None
    for prefix in range(3**high):
        # per node position: a fixed digit of the prefix, or a table column
        cols = [*(prefix * len(table) // place[:high] % 3), *table.T]
        score = np.zeros(len(table), dtype=np.int64)
        for u, v in ce:
            score += conflict_w * (cols[u] == cols[v])
        for u, v in se:
            score += stitch_w * (cols[u] != cols[v])
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


def format_edgelist(dg: DecompositionGraph) -> str:
    nodes = dg.nodes
    n = (max(nodes) + 1) if nodes else 0
    out = [str(n)]
    out += [f"C {u} {v}" for u, v in sorted(dg.ce)]
    out += [f"S {u} {v}" for u, v in sorted(dg.se)]
    return "\n".join(out) + "\n"
