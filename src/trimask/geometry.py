"""Layout ingestion, layout-graph construction, and projection-based splitting.

The input is a set of axis-aligned rectangles in integer nanometers. Two
features closer than the minimum colorable distance ``min_s`` form a conflict
pair. Features are split into segments at stitch candidates found by
projecting conflicting neighbors onto the feature's long axis: the midpoint
of each wide-enough uncovered interval becomes a legal split location.

Pair queries over the shapes (the layout graph's conflict pairs and the
disjointness check) are a sort and sweep along one axis, costing
O(n log n + candidates) time and memory, where the candidates are the pairs
within reach along the swept axis; no n×n array is built.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .graphs import DecompositionGraph, Pair, Segment, adjacency, ordered_pair

Rect = tuple[int, int, int, int]

# bound on a coordinate's magnitude: a gap between two coordinates, plus
# min_s, stays inside int64
COORD_LIMIT = 2**60
# bound on min_s: two gaps clamped at min_s, squared and summed, stay
# inside int64
MIN_S_LIMIT = 2**30


class LayoutError(ValueError):
    """Invalid layout file or layout invariant violation."""


@dataclass(frozen=True)
class ProcessParams:
    """Process constants in nm (alpha is the dimensionless stitch weight)."""

    min_s: int = 85
    overlap_margin: int = 10
    alpha: float = 0.1
    min_width: int = 25
    min_spacing: int = 30

    def __post_init__(self):
        for name in ("min_s", "overlap_margin", "alpha", "min_width", "min_spacing"):
            value = getattr(self, name)
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if not (real and math.isfinite(value)):
                raise LayoutError(f"{name} must be a finite number, got {value!r}")
        if not self.min_s > self.min_spacing > 0:
            raise LayoutError(
                f"require min_s > min_spacing > 0, got {self.min_s}, {self.min_spacing}"
            )
        if self.min_s > MIN_S_LIMIT:
            raise LayoutError(f"min_s must be at most 2**30, got {self.min_s}")
        if self.overlap_margin <= 0:
            raise LayoutError(f"overlap_margin must be positive, got {self.overlap_margin}")
        if self.alpha <= 0:
            raise LayoutError(f"alpha must be positive, got {self.alpha}")


@dataclass(frozen=True)
class Shape:
    id: int
    rect: Rect


@dataclass(frozen=True)
class Layout:
    shapes: tuple[Shape, ...]
    params: ProcessParams
    units: str = "nm"

    def __post_init__(self):
        if self.units != "nm":
            raise LayoutError(f"unsupported units {self.units!r}, expected 'nm'")
        ids = [s.id for s in self.shapes]
        if len(set(ids)) != len(ids):
            dup = sorted({i for i in ids if ids.count(i) > 1})
            raise LayoutError(f"duplicate shape id {dup[0]}")
        r = _rect_array(self.shapes)
        degenerate = (r[:, 0] >= r[:, 2]) | (r[:, 1] >= r[:, 3])
        if degenerate.any():
            s = self.shapes[int(np.argmax(degenerate))]
            raise LayoutError(f"degenerate rectangle on shape {s.id}: {s.rect}")
        _check_disjoint(self.shapes, r)

    @cached_property
    def shape_by_id(self) -> dict[int, Shape]:
        return {s.id: s for s in self.shapes}


def _rect_array(shapes: tuple[Shape, ...]) -> np.ndarray:
    """The rectangles as int64 rows of ``x_lo, y_lo, x_hi, y_hi``; a
    coordinate beyond ``COORD_LIMIT`` in magnitude is a ``LayoutError``."""
    rects = [s.rect for s in shapes]
    try:
        r = np.array(rects, dtype=np.int64).reshape(-1, 4)
        bad = ((r < -COORD_LIMIT) | (r > COORD_LIMIT)).any(axis=1)
    except OverflowError:
        bad = [any(abs(c) > COORD_LIMIT for c in rect) for rect in rects]
    if np.any(bad):
        s = shapes[int(np.argmax(bad))]
        raise LayoutError(f"shape {s.id}: coordinates must lie within ±2**60, got {s.rect}")
    return r


def _check_disjoint(shapes: tuple[Shape, ...], r: np.ndarray) -> None:
    """``r`` is ``_rect_array(shapes)``."""
    if len(shapes) < 2:
        return
    i, j = _near_pairs(r, 0)
    gx, gy = _axis_gaps(r, i, j)
    # interiors intersect iff both axes strictly overlap
    bad = (gx < 0) & (gy < 0)
    if bad.any():
        i, j = i[bad], j[bad]
        first = np.lexsort((j, i))[0]
        a, b = shapes[int(i[first])].id, shapes[int(j[first])].id
        raise LayoutError(f"overlapping shapes {min(a, b)} and {max(a, b)}")


def _near_pairs(r: np.ndarray, reach: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs ``(i, j)``, ``i < j``, of rectangles ``r`` (rows of
    ``x_lo, y_lo, x_hi, y_hi``) whose signed gap along the sweep axis is
    below ``reach``, each pair once and in no particular order.

    Sorted by low edge, a rectangle ``a`` and a later ``b`` have signed gap
    ``lo[b] - hi[a]`` (negative when their extents overlap), so the later
    rectangles within reach of ``a`` form one run that ``searchsorted``
    finds. Both axes are counted and the one listing fewer pairs is swept,
    so a column of vertical wires costs no more than a row of horizontal
    ones. Needs ``reach >= 0`` and ``lo < hi`` on every row.
    """
    n = len(r)
    best = None
    for axis in (0, 1):
        order = np.argsort(r[:, axis], kind="stable")
        end = np.searchsorted(r[order, axis], r[order, axis + 2] + reach, side="left")
        counts = end - np.arange(1, n + 1)
        total = int(counts.sum())
        if best is None or total < best[0]:
            best = (total, order, counts)
    total, order, counts = best
    first = np.repeat(np.arange(n), counts)
    # a pair's rank within its window, shifted past the window's own row
    starts = np.cumsum(counts) - counts
    second = first + 1 + np.arange(total) - np.repeat(starts, counts)
    a, b = order[first], order[second]
    return np.minimum(a, b), np.maximum(a, b)


def _axis_gaps(r: np.ndarray, i: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signed x and y gaps between rectangles ``r[i]`` and ``r[j]``: negative
    where their extents strictly overlap, 0 where they touch."""
    a, b = r[i], r[j]
    gx = np.maximum(a[:, 0] - b[:, 2], b[:, 0] - a[:, 2])
    gy = np.maximum(a[:, 1] - b[:, 3], b[:, 1] - a[:, 3])
    return gx, gy


def load_layout(path) -> Layout:
    """Parse a layout JSON file; every layout invariant is enforced here."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise LayoutError(f"cannot read layout {path}: {exc}") from exc
    return layout_from_dict(doc)


def layout_from_dict(doc: dict) -> Layout:
    if not isinstance(doc, dict) or not isinstance(doc.get("shapes"), list):
        raise LayoutError("layout document must be an object with a 'shapes' list")
    params_doc = doc.get("params", {})
    if not isinstance(params_doc, dict):
        raise LayoutError(f"params must be an object, got {params_doc!r}")
    known = {"min_s", "overlap_margin", "alpha", "min_width", "min_spacing"}
    extra = set(params_doc) - known
    if extra:
        raise LayoutError(f"unknown params keys: {sorted(extra)}")
    params = ProcessParams(**params_doc)
    shapes = []
    for entry in doc["shapes"]:
        try:
            sid = entry["id"]
            rect = entry["rect"]
        except (TypeError, KeyError) as exc:
            raise LayoutError(f"malformed shape entry {entry!r}") from exc
        if not isinstance(sid, int) or isinstance(sid, bool):
            raise LayoutError(f"shape id must be an integer, got {sid!r}")
        four = isinstance(rect, (list, tuple)) and len(rect) == 4
        if not four or not all(isinstance(c, int) and not isinstance(c, bool) for c in rect):
            raise LayoutError(f"shape {sid}: rect must be 4 integers, got {rect!r}")
        shapes.append(Shape(id=sid, rect=tuple(rect)))
    return Layout(shapes=tuple(shapes), params=params, units=doc.get("units", "nm"))


def layout_to_dict(layout: Layout) -> dict:
    p = layout.params
    return {
        "units": layout.units,
        "params": {
            "min_s": p.min_s,
            "overlap_margin": p.overlap_margin,
            "alpha": p.alpha,
            "min_width": p.min_width,
            "min_spacing": p.min_spacing,
        },
        "shapes": [{"id": s.id, "rect": list(s.rect)} for s in layout.shapes],
    }


def euclidean_gap(a: Shape | Rect, b: Shape | Rect) -> float:
    """Minimum euclidean distance between two closed rectangles (0 if touching)."""
    ra = a.rect if isinstance(a, Shape) else a
    rb = b.rect if isinstance(b, Shape) else b
    dx = max(0, ra[0] - rb[2], rb[0] - ra[2])
    dy = max(0, ra[1] - rb[3], rb[1] - ra[3])
    return math.hypot(dx, dy)


@dataclass(frozen=True)
class LayoutGraph:
    """Conflict graph over whole shapes: an edge iff gap < min_s (strict)."""

    nodes: tuple[int, ...]
    edges: frozenset[Pair]

    @cached_property
    def adjacency(self) -> dict[int, tuple[int, ...]]:
        return adjacency(self.nodes, self.edges)

    def degree(self, node: int) -> int:
        return len(self.adjacency[node])

    def subgraph(self, keep) -> "LayoutGraph":
        keep = set(keep)
        return LayoutGraph(
            nodes=tuple(n for n in self.nodes if n in keep),
            edges=frozenset(e for e in self.edges if e[0] in keep and e[1] in keep),
        )


def build_layout_graph(layout: Layout) -> LayoutGraph:
    shapes = sorted(layout.shapes, key=lambda s: s.id)
    ids = [s.id for s in shapes]
    n = len(shapes)
    if n < 2:
        return LayoutGraph(nodes=tuple(ids), edges=frozenset())
    r = np.array([s.rect for s in shapes], dtype=np.int64)
    min_s = layout.params.min_s
    i, j = _near_pairs(r, min_s)
    gx, gy = _axis_gaps(r, i, j)
    # a gap of min_s or more is never close, and clamped at min_s the
    # squares stay inside int64
    dx, dy = np.clip(gx, 0, min_s), np.clip(gy, 0, min_s)
    close = dx * dx + dy * dy < min_s**2
    i, j = i[close], j[close]
    # insert in row-major (i, j) order: the frozenset's iteration order
    # depends on insertion order, and callers iterate it
    order = np.lexsort((j, i))
    edges = frozenset(
        ordered_pair(ids[u], ids[v]) for u, v in zip(i[order].tolist(), j[order].tolist())
    )
    return LayoutGraph(nodes=tuple(ids), edges=edges)


def _merge_intervals(intervals: list[tuple[int, int]]) -> list[tuple[int, int]]:
    merged: list[list[int]] = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [(lo, hi) for lo, hi in merged]


def stitch_candidates(layout: Layout, lg: LayoutGraph, shape_id: int) -> list[int]:
    """Legal split positions along one shape's long axis.

    Conflicting neighbors project their extent onto the axis; each maximal
    uncovered span lying between two covered regions contributes its
    midpoint, kept only when the midpoint clears both shape ends and the
    adjacent covers by at least the overlap margin.
    """
    shape = layout.shape_by_id[shape_id]
    x_lo, y_lo, x_hi, y_hi = shape.rect
    horizontal = (x_hi - x_lo) >= (y_hi - y_lo)
    lo, hi = (x_lo, x_hi) if horizontal else (y_lo, y_hi)
    margin = layout.params.overlap_margin

    covers = []
    for other in lg.adjacency[shape_id]:
        o = layout.shape_by_id[other].rect
        c_lo, c_hi = (o[0], o[2]) if horizontal else (o[1], o[3])
        c_lo, c_hi = max(c_lo, lo), min(c_hi, hi)
        if c_lo < c_hi:
            covers.append((c_lo, c_hi))
    covers = _merge_intervals(covers)

    # only spans strictly between two covered regions qualify: splitting an
    # unconstrained stretch separates no conflicts
    uncovered = [
        (prev_hi, next_lo)
        for (_, prev_hi), (next_lo, _) in zip(covers, covers[1:])
        if prev_hi < next_lo
    ]

    out = []
    for u_lo, u_hi in uncovered:
        mid = (u_lo + u_hi) // 2
        if mid - lo < margin or hi - mid < margin:
            continue
        if mid - u_lo < margin or u_hi - mid < margin:
            continue
        out.append(mid)
    return out


def _split_rect(rect: Rect, cuts: list[int], horizontal: bool) -> list[Rect]:
    x_lo, y_lo, x_hi, y_hi = rect
    lo, hi = (x_lo, x_hi) if horizontal else (y_lo, y_hi)
    bounds = [lo] + sorted(cuts) + [hi]
    pieces = []
    for a, b in zip(bounds, bounds[1:]):
        pieces.append((a, y_lo, b, y_hi) if horizontal else (x_lo, a, x_hi, b))
    return pieces


def project_and_split(
    layout: Layout, lg: LayoutGraph, split_nodes=None
) -> DecompositionGraph:
    """Build the decomposition graph: split shapes at stitch candidates,
    connect consecutive pieces with SE, and recompute CE at segment level.

    ``lg`` is the layout's graph from ``build_layout_graph`` (or a subgraph
    of it). ``split_nodes`` restricts which shapes may be split (all by
    default); unsplit shapes still appear as single-segment nodes and still
    project onto their neighbors.
    """
    if split_nodes is None:
        split_nodes = set(lg.nodes)
    else:
        split_nodes = set(split_nodes)

    min_s = layout.params.min_s
    segments: list[Segment] = []
    by_shape: dict[int, list[Segment]] = {}
    next_id = 0
    for shape in sorted(layout.shapes, key=lambda s: s.id):
        x_lo, y_lo, x_hi, y_hi = shape.rect
        horizontal = (x_hi - x_lo) >= (y_hi - y_lo)
        cuts = stitch_candidates(layout, lg, shape.id) if shape.id in split_nodes else []
        pieces = _split_rect(shape.rect, cuts, horizontal) if cuts else [shape.rect]
        segs = []
        for rect in pieces:
            segs.append(Segment(id=next_id, parent=shape.id, rect=rect))
            next_id += 1
        segments.extend(segs)
        by_shape[shape.id] = segs

    se: set[Pair] = set()
    ce: set[Pair] = set()
    for shape_id, segs in by_shape.items():
        for a, b in zip(segs, segs[1:]):
            se.add(ordered_pair(a.id, b.id))
        # non-consecutive pieces of one shape sit apart but may still conflict
        for i in range(len(segs)):
            for j in range(i + 2, len(segs)):
                if euclidean_gap(segs[i].rect, segs[j].rect) < min_s:
                    ce.add(ordered_pair(segs[i].id, segs[j].id))
    # build_layout_graph keeps an edge iff dx² + dy² < min_s². For an
    # integral min_s up to 2**20 that test is exact and the squared gap is
    # at most min_s² - 1, so the gap is below min_s by more than 1/(2 min_s),
    # far beyond hypot's rounding error: the gap test below passes, and a
    # pair of unsplit shapes (each one segment, the shape itself) is a
    # conflict without testing
    edge_is_ce = float(min_s).is_integer() and 0 < min_s <= 2**20
    for u, v in sorted(lg.edges):
        segs_u, segs_v = by_shape[u], by_shape[v]
        if edge_is_ce and len(segs_u) == 1 and len(segs_v) == 1:
            ce.add(ordered_pair(segs_u[0].id, segs_v[0].id))
            continue
        for a in segs_u:
            for b in segs_v:
                if euclidean_gap(a.rect, b.rect) < min_s:
                    ce.add(ordered_pair(a.id, b.id))

    return DecompositionGraph(
        segments=tuple(segments), ce=frozenset(ce), se=frozenset(se)
    )
