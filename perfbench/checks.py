"""Output check and quality base, independent of the program's own scoring.

The check reads the input layout file, the segment rectangles of the
result, and the formatted assignment and stats strings. It recounts
conflicts and stitches from geometry alone: two segments closer than
``min_s`` conflict on the same mask unless they are touching pieces of one
shape, which instead form a stitch when their masks differ.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from fractions import Fraction


def geometric_pairs(segments, min_s: int) -> tuple[set, set]:
    """(conflict pairs, stitch pairs) among ``(id, parent, rect)`` segments,
    by a sort-and-sweep along x."""
    order = sorted(segments, key=lambda s: s[2][0])
    starts = [s[2][0] for s in order]
    limit = min_s * min_s
    ce, se = set(), set()
    for i, (a_id, a_parent, (_, ay0, ax1, ay1)) in enumerate(order):
        # sorted by x_lo, so a later segment starting min_s past a's end
        # and every one after it are too far away
        end = bisect_left(starts, ax1 + min_s, i + 1)
        for b_id, b_parent, (bx0, by0, _, by1) in order[i + 1 : end]:
            dx = max(0, bx0 - ax1)
            dy = max(0, by0 - ay1, ay0 - by1)
            if dx * dx + dy * dy >= limit:
                continue
            pair = (a_id, b_id) if a_id < b_id else (b_id, a_id)
            touching = dx == 0 and dy == 0
            (se if a_parent == b_parent and touching else ce).add(pair)
    return ce, se


def _covers(shape_rect, pieces) -> bool:
    x0, y0, x1, y1 = shape_rect
    area = 0
    for px0, py0, px1, py1 in pieces:
        if not (x0 <= px0 < px1 <= x1 and y0 <= py0 < py1 <= y1):
            return False
        area += (px1 - px0) * (py1 - py0)
    for i, a in enumerate(pieces):
        for b in pieces[i + 1 :]:
            if a[0] < b[2] and b[0] < a[2] and a[1] < b[3] and b[1] < a[3]:
                return False
    return area == (x1 - x0) * (y1 - y0)


def check_output(
    layout_doc: dict, segments, pairs, assignment_text: str, stats_text: str
) -> list[str]:
    """Problems with one decomposition; an empty list means it passes.

    ``segments`` are ``(id, parent, rect)`` of the result's decomposition
    graph, ``pairs`` their ``geometric_pairs``, and the texts are the
    program's formatted assignment and stats.
    """
    errors = []
    shapes = {s["id"]: tuple(s["rect"]) for s in layout_doc["shapes"]}
    alpha = Fraction(repr(float(layout_doc["params"]["alpha"])))

    by_parent: dict[int, list] = {}
    for seg_id, parent, rect in segments:
        by_parent.setdefault(parent, []).append(tuple(rect))
    if set(by_parent) != set(shapes):
        errors.append("segments do not map onto the input shapes one to one")
    for shape_id, rect in shapes.items():
        if shape_id in by_parent and not _covers(rect, by_parent[shape_id]):
            errors.append(f"shape {shape_id} is not exactly covered by its segments")

    doc = json.loads(assignment_text)
    masks = {int(k): v for k, v in doc["masks"].items()}
    if set(masks) != {s[0] for s in segments}:
        errors.append("masks do not cover exactly the segments")
    bad = [k for k, v in masks.items() if type(v) is not int or v not in (0, 1, 2)]
    if bad:
        errors.append(f"segment {bad[0]} has mask {masks[bad[0]]!r}, expected 0, 1 or 2")
    if errors:
        return errors

    ce, se = pairs
    conflicts = {p for p in ce if masks[p[0]] == masks[p[1]]}
    stitches = {p for p in se if masks[p[0]] != masks[p[1]]}
    if {tuple(p) for p in doc["conflicts"]} != conflicts:
        errors.append(f"reported conflicts differ from the {len(conflicts)} recounted")
    if {tuple(p) for p in doc["stitches"]} != stitches:
        errors.append(f"reported stitches differ from the {len(stitches)} recounted")
    stats = json.loads(stats_text)
    if (stats["cn"], stats["st"]) != (len(conflicts), len(stitches)):
        errors.append(
            f"stats report cn={stats['cn']} st={stats['st']}, "
            f"recounted {len(conflicts)} and {len(stitches)}"
        )
    objective = len(conflicts) + alpha * len(stitches)
    if abs(stats["objective"] - float(objective)) > 1e-9 * max(1.0, float(objective)):
        errors.append(f"stats objective {stats['objective']} != recounted {float(objective)}")
    return errors


def greedy_one_opt(nodes, ce, se, alpha: Fraction) -> Fraction:
    """Objective of a cheap reference coloring: greedy by descending degree,
    then single-node moves while any strictly lowers the cost."""
    conflict_w, stitch_w = alpha.denominator, alpha.numerator  # integer weights
    adj: dict[int, list] = {n: [] for n in nodes}
    for u, v in ce:
        adj[u].append((v, conflict_w, True))
        adj[v].append((u, conflict_w, True))
    for u, v in se:
        adj[u].append((v, stitch_w, False))
        adj[v].append((u, stitch_w, False))
    colors: dict[int, int] = {}

    def cost(node, c):
        return sum(
            w for other, w, is_ce in adj[node]
            if other in colors and (colors[other] == c) == is_ce
        )

    order = sorted(nodes, key=lambda n: (-len(adj[n]), n))
    for node in order:
        colors[node] = min(range(3), key=lambda c: (cost(node, c), c))
    improved = True
    while improved:
        improved = False
        for node in order:
            best = min(range(3), key=lambda c: (cost(node, c), c))
            if cost(node, best) < cost(node, colors[node]):
                colors[node] = best
                improved = True
    total = sum(conflict_w for u, v in ce if colors[u] == colors[v])
    total += sum(stitch_w for u, v in se if colors[u] != colors[v])
    return Fraction(total, conflict_w)
