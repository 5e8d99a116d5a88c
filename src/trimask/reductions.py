"""Optimality-preserving graph reductions.

Two reductions shrink the problem before any solver runs: iterative removal
of degree<=2 nodes from the layout graph (they can always be recolored
conflict-free afterwards), and cutting at bridges of the decomposition graph
(the two sides solve independently; a cyclic color rotation of one side
makes the bridge edge free).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .geometry import LayoutGraph
from .graphs import DecompositionGraph, Pair, ordered_pair


def peel_low_degree(lg: LayoutGraph) -> tuple[LayoutGraph, tuple[int, ...]]:
    """Remove nodes of current degree <= 2 until none remain. Returns the
    residual graph and the peeled nodes in removal order, which
    reinsertion pops in reverse.

    Always removes the smallest eligible node id first, so the order is
    deterministic. The residual graph has minimum degree 3 (or is empty).

    Degrees only fall, so a node joins the queue once: at the start, or
    when its degree drops to 2. Only the nodes of degree 3 or more wait,
    so only removals next to them are tracked, and no adjacency is built.
    """
    degree = dict.fromkeys(lg.nodes, 0)
    for u, v in lg.edges:
        degree[u] += 1
        degree[v] += 1
    waiting = {n: d for n, d in degree.items() if d > 2}
    # per node: its waiting neighbors, whose degree its removal lowers
    lowers: dict[int, list[int]] = {}
    for u, v in lg.edges:
        if v in waiting:
            lowers.setdefault(u, []).append(v)
        if u in waiting:
            lowers.setdefault(v, []).append(u)
    queue = [n for n, d in degree.items() if d <= 2]
    heapq.heapify(queue)
    order: list[int] = []
    while queue:
        node = heapq.heappop(queue)
        order.append(node)
        for other in lowers.get(node, ()):
            d = waiting.get(other)
            if d == 3:
                del waiting[other]
                heapq.heappush(queue, other)
            elif d is not None:
                waiting[other] = d - 1
    residual = lg.subgraph(waiting)
    return residual, tuple(order)


def reinsert_segments(dg: DecompositionGraph, peeled: tuple[int, ...], colors: dict[int, int]):
    """Pop the ``peeled`` shapes in reverse removal order, giving each the
    lowest color that clashes with the fewest colored segments within the
    coloring distance. Returns the colored map and the set of shapes for
    which all three colors clashed.

    When a shape comes back, the colored segments are those of the residual
    and of shapes peeled after it: all of them shapes still present when it
    was peeled, so at most two of them are its layout-graph neighbors, and
    a conflict-free color exists unless one of those is split."""
    # peeled shapes are never split: each is its parent's only segment
    seg_of = {seg.parent: seg.id for seg in dg.segments}
    # each edge is listed once, so no neighbor is gathered twice
    near: dict[int, list[int]] = {seg_of[shape_id]: [] for shape_id in peeled}
    for u, v in dg.edges:
        if u in near:
            near[u].append(v)
        if v in near:
            near[v].append(u)
    out = dict(colors)
    blocked: set[int] = set()
    for shape_id in reversed(peeled):
        seg_id = seg_of[shape_id]
        clash = [0, 0, 0]
        for other_seg in near[seg_id]:
            if other_seg in out:
                clash[out[other_seg]] += 1
        color = clash.index(min(clash))
        if clash[color]:
            blocked.add(shape_id)
        out[seg_id] = color
    return out, blocked


@dataclass(frozen=True)
class BridgeCut:
    bridge: Pair
    edge_kind: str  # "CE" or "SE"


def find_bridges(dg: DecompositionGraph) -> list[BridgeCut]:
    """All bridges over CE union SE via iterative DFS low-link, sorted."""
    adj = dg.adjacency
    order: dict[int, int] = {}
    low: dict[int, int] = {}
    bridges: list[Pair] = []
    counter = 0

    for root in dg.nodes:
        if root in order:
            continue
        # iterative DFS; entries are (node, parent, neighbor iterator)
        order[root] = low[root] = counter
        counter += 1
        stack = [(root, None, iter(adj[root]))]
        while stack:
            node, parent, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt == parent:
                    parent = None  # skip the tree edge once; simple graph
                    continue
                if nxt in order:
                    low[node] = min(low[node], order[nxt])
                else:
                    order[nxt] = low[nxt] = counter
                    counter += 1
                    stack[-1] = (node, parent, it)
                    stack.append((nxt, node, iter(adj[nxt])))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                if stack:
                    up = stack[-1][0]
                    low[up] = min(low[up], low[node])
                    if low[node] > order[up]:
                        bridges.append(ordered_pair(up, node))

    return [BridgeCut(bridge=e, edge_kind="CE" if e in dg.ce else "SE") for e in sorted(bridges)]


def stitch_and_rotate(
    cut: BridgeCut, color_a: dict[int, int], color_b: dict[int, int]
) -> dict[int, int]:
    """Merge two independently colored sides of a bridge.

    Each side's coloring holds one bridge endpoint, in either order. Side b
    is rotated by the smallest cyclic shift that makes the bridge endpoints
    differ (conflict bridge) or agree (stitch bridge); a shift in {0,1,2}
    always works, and rotation leaves side b's own cost unchanged.
    """
    u, v = cut.bridge
    end_a, end_b = (u, v) if u in color_a else (v, u)
    ca, cb = color_a[end_a], color_b[end_b]
    for k in range(3):
        rotated = (cb + k) % 3
        if cut.edge_kind == "CE" and rotated != ca:
            break
        if cut.edge_kind == "SE" and rotated == ca:
            break
    merged = dict(color_a)
    for node, color in color_b.items():
        merged[node] = (color + k) % 3
    return merged
