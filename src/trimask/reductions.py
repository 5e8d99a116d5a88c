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

    Degrees only fall, so a node becomes eligible once: at the start, or
    when its degree drops to 2. The nodes eligible at the start form one
    sorted run, and only the nodes that become eligible later go on a
    heap; each step removes the smaller of the run's head and the heap's
    top, which, ids being unique, is the order of one heap over all of
    them. Only the nodes of degree 3 or more wait, so only removals next
    to them are tracked, and no adjacency is built.
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
    run = sorted([n for n, d in degree.items() if d <= 2])
    heap: list[int] = []
    order: list[int] = []
    for node in _merged(run, heap):
        order.append(node)
        if node in lowers:
            for other in lowers[node]:
                d = waiting.get(other)
                if d == 3:
                    del waiting[other]
                    heapq.heappush(heap, other)
                elif d is not None:
                    waiting[other] = d - 1
    residual = lg.subgraph(waiting)
    return residual, tuple(order)


def _merged(run: list[int], heap: list[int]):
    """Yield the smaller of the sorted ``run``'s head and ``heap``'s top
    until both are empty. The caller may push onto ``heap`` between
    yields."""
    for head in run:
        while heap and heap[0] < head:
            yield heapq.heappop(heap)
        yield head
    while heap:
        yield heapq.heappop(heap)


def reinsert_segments(dg: DecompositionGraph, peeled: tuple[int, ...], colors: dict[int, int]):
    """Pop the ``peeled`` shapes in reverse removal order, giving each the
    lowest color that clashes with the fewest colored segments within the
    coloring distance. ``colors`` holds the colors, 0, 1 or 2, of segments
    that are not peeled. Returns the colored map and the set of shapes for
    which all three colors clashed.

    When a shape comes back, the colored segments are those of the residual
    and of shapes peeled after it: all of them shapes still present when it
    was peeled, so at most two of them are its layout-graph neighbors, and
    a conflict-free color exists unless one of those is split.

    Every segment gets a turn: the segments of ``colors`` first, in its
    order, then the peeled ones as they come back. An edge counts once, at
    the turn of its end colored later, against the other end, whose color
    is final by then; only the counts decide a color, so the edges may
    come in any order. Sorting one int per edge, the later turn times the
    number of turns plus the earlier turn, lines the edges up by turn, so
    no container is built per segment.
    """
    # peeled shapes are never split: each is its parent's only segment
    seg_of = dict(zip(dg.parents, dg.ids))
    back = [seg_of[shape_id] for shape_id in reversed(peeled)]
    got = list(colors.values())  # the color of each turn taken so far
    first = len(got)
    width = first + len(back)
    turn = dict(zip(colors, range(first)))
    turn.update(zip(back, range(first, width)))
    turn_of = turn.get
    keys = []
    for u, v in dg.edges:
        a = turn_of(u)
        b = turn_of(v)
        # an end with no turn is never colored; an edge between two
        # segments of ``colors`` is counted by neither
        if a is not None and b is not None:
            if a < b:
                a, b = b, a
            if a >= first:
                keys.append(a * width + b)
    keys.sort()
    keys.append(width * width)  # above every key: ends the last turn's run
    out = dict(colors)
    blocked: set[int] = set()
    k = 0
    for t, (shape_id, seg_id) in enumerate(zip(reversed(peeled), back), first):
        # clashes per color in locals, not a list: list indexing cost more
        c0 = c1 = c2 = 0
        base = t * width
        while keys[k] < base + width:
            seen = got[keys[k] - base]
            k += 1
            if seen == 0:
                c0 += 1
            elif seen == 1:
                c1 += 1
            else:
                c2 += 1
        # the first color of least clashes
        if c0 <= c1 and c0 <= c2:
            color, clash = 0, c0
        elif c1 <= c2:
            color, clash = 1, c1
        else:
            color, clash = 2, c2
        if clash:
            blocked.add(shape_id)
        got.append(color)
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
