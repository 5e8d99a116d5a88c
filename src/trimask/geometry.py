"""Layout ingestion, layout-graph construction, and projection-based splitting.

The input is a set of axis-aligned rectangles in integer nanometers. Two
features closer than the minimum colorable distance ``min_s`` form a conflict
pair. Features are split into segments at stitch candidates found by
projecting conflicting neighbors onto the feature's long axis: the midpoint
of each wide-enough uncovered interval becomes a legal split location.

One predicate, ``_close``, decides "closer than ``min_s``" for whole shapes
and for segments alike. Gaps are integers, so ``dx² + dy² < min_s²`` holds
iff ``dx² + dy² <= ceil(min_s²) - 1``, with ``min_s²`` taken exactly as a
fraction; clamped at ``ceil(min_s)`` the squares stay inside int64. The test
is exact for every finite ``min_s`` up to ``MIN_S_LIMIT``.

Pair queries go through ``_near_pairs``: it lists every pair whose x and
y gaps are both below the reach, once, among candidates for the exact
test. It runs once per layout, while the layout is validated, on the
shapes at reach ``ceil(min_s)``: that reach takes in every overlapping
pair, so the same candidates check disjointness and, through ``_close``,
give the layout's conflict pairs (``Layout.close_pairs``). ``_near_pairs``
sorts and sweeps along one axis and, when that sweep pairs many shapes of
one row, sweeps within strips across the other axis instead. It costs
O(n log n + candidates) time and memory, where the candidates are the
pairs within reach along the swept axis that share a strip; no n×n array
is built. On ``generate_layout(5000, 2)`` that is about 5k candidates for
about 5k conflict pairs, where the sweep alone listed 174k.

A layout keeps one id-sorted int64 array of its rectangles
(``Layout.rects``, beside ``Layout.sorted_shapes``) and its conflict
pairs, both made once while it is validated. The layout graph maps the
pairs to shape ids. The split reads the pairs too, by position: its
projections take each shape's neighbors from them, and it tests only the
segment pairs that those pairs and the split shapes allow, and sweeps
nothing: a segment lies inside its shape, so two segments are close only
if their shapes are, or if they are pieces of one shape.

The sweep and the split call ndarray methods (``a.repeat``,
``a.cumsum``, ``a.argsort``, ``a.searchsorted``, ``a.nonzero``) rather
than the numpy functions that forward to them: on clip-sized arrays each
of those wrappers costs 0.8–1.7 µs more than the method.
"""

from __future__ import annotations

import json
import math
import numbers
from bisect import bisect_left
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction
from itertools import chain
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .graphs import DecompositionGraph, Pair

Rect = tuple[int, int, int, int]

# bound on a coordinate's magnitude: a gap between two coordinates, plus
# min_s, stays inside int64
COORD_LIMIT = 2**60
# bound on min_s: two gaps clamped at ceil(min_s), squared and summed, stay
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
        for f in fields(self):
            value = getattr(self, f.name)
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if not (real and math.isfinite(value)):
                raise LayoutError(f"{f.name} must be a finite number, got {value!r}")
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


class Shape(NamedTuple):
    id: int
    rect: Rect


@dataclass(frozen=True)
class Layout:
    """Shapes in file order. Validation also keeps them sorted by id, in
    ``sorted_shapes``, and their rectangles in that order as int64 rows of
    ``x_lo, y_lo, x_hi, y_hi``, in ``rects``: the array it checked, so the
    layout graph and the split build none.

    Validation sweeps ``rects`` once, at reach ``ceil(min_s)``. Every pair
    of overlapping shapes lies within that reach, so the sweep's gaps check
    disjointness, and its pairs closer than ``min_s``, as index pairs
    ``(i, j)``, ``i < j``, into ``rects`` sorted row-major, are kept in
    ``close_pairs``: both conflict graphs are built from them, so loading
    pays the one sweep that building the layout graph would otherwise pay.
    """

    shapes: tuple[Shape, ...]
    params: ProcessParams
    units: str = "nm"
    sorted_shapes: tuple[Shape, ...] = field(init=False, repr=False, compare=False)
    rects: np.ndarray = field(init=False, repr=False, compare=False)
    close_pairs: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.units != "nm":
            raise LayoutError(f"unsupported units {self.units!r}, expected 'nm'")
        ids = [s.id for s in self.shapes]
        if len(set(ids)) != len(ids):
            dup = min(i for i, count in Counter(ids).items() if count > 1)
            raise LayoutError(f"duplicate shape id {dup}")
        if ids and not (-(2**63) <= min(ids) and max(ids) < 2**63):
            bad = next(i for i in ids if not -(2**63) <= i < 2**63)
            raise LayoutError(f"shape {bad}: id must lie within [-2**63, 2**63 - 1]")
        r = _rect_array(self.shapes)
        degenerate = (r[:, 0] >= r[:, 2]) | (r[:, 1] >= r[:, 3])
        if degenerate.any():
            s = self.shapes[int(np.argmax(degenerate))]
            raise LayoutError(f"degenerate rectangle on shape {s.id}: {s.rect}")
        order = sorted(range(len(ids)), key=ids.__getitem__)
        rects = r[order]
        min_s = self.params.min_s
        i, j = _near_pairs(rects, math.ceil(min_s))
        gx, gy = _axis_gaps(rects, i, j)
        # interiors intersect iff both axes strictly overlap
        bad = (gx < 0) & (gy < 0)
        if bad.any():
            # the message names the first overlapping pair in file order
            pos = np.array(order)
            a, b = pos[i[bad]], pos[j[bad]]
            a, b = np.minimum(a, b), np.maximum(a, b)
            first = np.lexsort((b, a))[0]
            x, y = self.shapes[int(a[first])].id, self.shapes[int(b[first])].id
            raise LayoutError(f"overlapping shapes {min(x, y)} and {max(x, y)}")
        close = _close(gx, gy, min_s)
        i, j = i[close], j[close]
        # both graphs insert their conflict pairs in this order: a
        # frozenset's iteration order depends on insertion order, and
        # callers iterate it
        row_major = np.lexsort((j, i))
        object.__setattr__(self, "sorted_shapes", tuple(map(self.shapes.__getitem__, order)))
        object.__setattr__(self, "rects", rects)
        object.__setattr__(self, "close_pairs", (i[row_major], j[row_major]))


def _rect_array(shapes: tuple[Shape, ...]) -> np.ndarray:
    """The rectangles as int64 rows of ``x_lo, y_lo, x_hi, y_hi``; a
    rectangle of other than four values, or a coordinate beyond
    ``COORD_LIMIT`` in magnitude, is a ``LayoutError``."""
    rects = [s.rect for s in shapes]
    if set(map(len, rects)) - {4}:
        s = next(s for s in shapes if len(s.rect) != 4)
        raise LayoutError(f"shape {s.id}: rect must be 4 integers, got {s.rect!r}")
    try:
        # from the flat values, which takes about half the time of
        # np.array's walk of the nested tuples
        r = np.fromiter(chain.from_iterable(rects), np.int64, count=4 * len(rects)).reshape(-1, 4)
        bad = ((r < -COORD_LIMIT) | (r > COORD_LIMIT)).any(axis=1)
    except OverflowError:
        bad = np.array([any(abs(c) > COORD_LIMIT for c in rect) for rect in rects])
    if bad.any():
        s = shapes[int(bad.argmax())]
        raise LayoutError(f"shape {s.id}: coordinates must lie within ±2**60, got {s.rect}")
    return r


def _near_pairs(r: np.ndarray, reach: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs ``(i, j)``, ``i < j``, of rectangles ``r`` (rows of
    ``x_lo, y_lo, x_hi, y_hi``), each pair once and in no particular order.
    Every pair whose x and y gaps are both below ``reach`` is listed; the
    others listed are candidates for the caller to test.

    Both axes are swept (``_sweep``) and the one listing fewer pairs is
    kept, so a column of vertical wires costs no more than a row of
    horizontal ones. When that sweep would list more than about four
    candidates per rectangle, the rectangles are first bucketed into strips
    across the other axis (``_strip_pairs``), so the wires of one row are
    no longer all paired with each other. Needs ``reach >= 0`` and
    ``lo < hi`` on every row.
    """
    n = len(r)
    best = None
    for axis in (0, 1):
        order, end = _sweep(r, reach, axis)
        counts = end - np.arange(1, n + 1)
        total = int(counts.sum())
        if best is None or total < best[0]:
            best = (total, axis, order, end, counts)
    total, axis, order, end, counts = best
    # the strip pass has a fixed numpy cost that a small sweep never earns
    # back: on 20-rectangle layouts it takes 1.75 times as long as listing
    # the sweep's pairs, and on generated layouts of 200-400 rectangles the
    # two break even between 1300 and 3800 candidates (2-CPU x86-64 host).
    # So smaller sweeps are listed as they are; a layout of at most 49
    # rectangles never reaches the strip pass
    if total > 4 * n + 1024:
        a, b = _strip_pairs(r, reach, axis, order, end)
    else:
        first, second = _windows(counts)
        a, b = order[first], order[second]
    return np.minimum(a, b), np.maximum(a, b)


def _sweep(r: np.ndarray, reach: int, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Rectangles ``r`` in order of their low edge along ``axis``, and for
    each position ``p`` in that order the end of the run of later positions
    whose signed gap to ``p`` along ``axis`` is below ``reach``.

    A rectangle ``a`` and a later ``b`` have signed gap ``lo[b] - hi[a]``
    (negative when their extents overlap), so those later rectangles are
    the ones whose low edge lies below ``hi[a] + reach``, and
    ``searchsorted`` finds where they end.
    """
    order = r[:, axis].argsort(kind="stable")
    end = r[order, axis].searchsorted(r[order, axis + 2] + reach, side="left")
    return order, end


def _windows(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every pair ``(p, q)`` with ``p < q <= p + counts[p]``."""
    first = np.arange(len(counts)).repeat(counts)
    # a pair's rank within its window, shifted past the window's own row
    starts = counts.cumsum() - counts
    second = first + 1 + np.arange(len(first)) - starts.repeat(counts)
    return first, second


def _strip_pairs(
    r: np.ndarray, reach: int, axis: int, order: np.ndarray, end: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The sweep ``order, end = _sweep(r, reach, axis)`` run within strips
    across the other axis: index pairs, each once, whose gap along ``axis``
    is below ``reach`` and that share a strip, which every pair within
    ``reach`` on both axes does.

    The strips are ``h`` wide. Along the other axis a rectangle covers
    ``[lo, hi + reach)``, and two rectangles whose gap there is below
    ``reach`` have covers that meet at the later low edge, in the later
    one's first strip. So a rectangle joins only the strips its cover meets
    that are some rectangle's first strip, and a pair is kept only in the
    first strip both join. ``h`` is at least ``reach`` and the mean extent,
    so there are fewer than ``4 n`` memberships, whatever the coordinates.

    One sorted int64 key per membership, strip rank × (n + 1) + sweep
    position, lists each strip's rectangles in sweep order, and the run a
    rectangle is paired with ends at its strip's key of ``end``. The ranks
    stay below ``n``, so no coordinate is multiplied.
    """
    n = len(r)
    lo, hi = r[order, 1 - axis], r[order, 3 - axis]
    h = max(reach, math.ceil((hi - lo).mean()))
    first_strip = lo // h
    # the distinct first strips, sorted (np.unique would import numpy.ma)
    heads = np.sort(first_strip)
    heads = heads[np.concatenate(([True], heads[1:] != heads[:-1]))]
    rank = heads.searchsorted(first_strip)
    joined = heads.searchsorted((hi + reach - 1) // h, side="right") - rank
    w = n + 1
    # the t-th strip that position p joins gets key (rank[p] + t) * w + p
    starts = joined.cumsum() - joined
    key = ((rank - starts) * w + np.arange(n)).repeat(joined)
    key += np.arange(len(key)) * w
    key.sort()
    strip, pos = np.divmod(key, w)
    stop = key.searchsorted(key - pos + end[pos], side="left")
    first, second = _windows(stop - np.arange(1, len(key) + 1))
    p, q = pos[first], pos[second]
    keep = strip[first] == np.maximum(rank[p], rank[q])
    return order[p[keep]], order[q[keep]]


def _axis_gaps(r: np.ndarray, i: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signed x and y gaps between rectangles ``r[i]`` and ``r[j]``: negative
    where their extents strictly overlap, 0 where they touch."""
    a, b = r[i], r[j]
    gx = np.maximum(a[:, 0] - b[:, 2], b[:, 0] - a[:, 2])
    gy = np.maximum(a[:, 1] - b[:, 3], b[:, 1] - a[:, 3])
    return gx, gy


def _close(gx: np.ndarray, gy: np.ndarray, min_s) -> np.ndarray:
    """Whether rectangle pairs with the signed gaps ``gx, gy`` of
    ``_axis_gaps`` are closer than ``min_s``, exactly (see the module
    docstring). A gap of ``ceil(min_s)`` or more is never close, and
    clamped there its square still fails the test."""
    cap = math.ceil(min_s)
    # not np.clip: its Python wrapper took about a third of this call
    dx, dy = np.minimum(np.maximum(gx, 0), cap), np.minimum(np.maximum(gy, 0), cap)
    return dx * dx + dy * dy <= math.ceil(Fraction(min_s) ** 2) - 1


def load_layout(path) -> Layout:
    """Parse a layout JSON file; every layout invariant is enforced here.

    Each shape entry becomes its ``Shape`` as the JSON is parsed
    (``_shape_entry`` is the parser's object hook), so the entry's dict
    and list are freed at once instead of living until the document is
    done: a 5000-shape file made about 10k containers that the garbage
    collector walked. A file that fails is read again without the hook,
    so each message quotes the document as JSON gives it.
    """
    try:
        text = Path(path).read_text()
        doc = json.loads(text, object_hook=_shape_entry)
    except (OSError, ValueError, RecursionError) as exc:
        raise LayoutError(f"cannot read layout {path}: {exc}") from exc
    try:
        return layout_from_dict(doc)
    except LayoutError:
        # the hook also turns shape-shaped objects outside ``shapes``
        # into ``Shape``s, which the messages would quote
        return layout_from_dict(json.loads(text))


def _shape_entry(entry):
    """The ``Shape`` of a shape entry with exact types, as JSON gives
    them: a dict whose "id" is an int and whose "rect" is a list of four
    ints. Anything else is returned as it is."""
    if entry.__class__ is dict:
        sid = entry.get("id")
        rect = entry.get("rect")
        if sid.__class__ is int and rect.__class__ is list and len(rect) == 4:
            x_lo, y_lo, x_hi, y_hi = rect
            if x_lo.__class__ is y_lo.__class__ is x_hi.__class__ is y_hi.__class__ is int:
                # not Shape(...): a named tuple's own __new__ is a Python
                # function, and calling it made the parse of a 5000-shape
                # file 15% slower (6.2 against 5.3 ms, 2-CPU x86-64 host)
                return tuple.__new__(Shape, (sid, (x_lo, y_lo, x_hi, y_hi)))
    return entry


def _checked_shape(entry) -> Shape:
    """The ``Shape`` of a shape entry that is not one yet, or the
    ``LayoutError`` that says what is wrong with it. An entry off
    ``_shape_entry``'s exact types takes the full checks, which accept and
    reject it as they would."""
    shape = _shape_entry(entry)
    if shape.__class__ is Shape:
        return shape
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
    return Shape(id=sid, rect=tuple(rect))


def layout_from_dict(doc: dict) -> Layout:
    """The layout of a parsed layout document. A shape entry is a dict
    with an integer "id" and a "rect" of four integers, or a ``Shape``,
    taken as it is, as ``load_layout``'s parse makes them."""
    if not isinstance(doc, dict) or not isinstance(doc.get("shapes"), list):
        raise LayoutError("layout document must be an object with a 'shapes' list")
    params_doc = doc.get("params", {})
    if not isinstance(params_doc, dict):
        raise LayoutError(f"params must be an object, got {params_doc!r}")
    extra = set(params_doc) - {f.name for f in fields(ProcessParams)}
    if extra:
        raise LayoutError(f"unknown params keys: {sorted(extra)}")
    params = ProcessParams(**params_doc)
    shapes = tuple([
        entry if entry.__class__ is Shape else _checked_shape(entry) for entry in doc["shapes"]
    ])
    return Layout(shapes=shapes, params=params, units=doc.get("units", "nm"))


def layout_to_dict(layout: Layout) -> dict:
    return {
        "units": layout.units,
        "params": asdict(layout.params),
        "shapes": [{"id": s.id, "rect": list(s.rect)} for s in layout.shapes],
    }


@dataclass(frozen=True)
class LayoutGraph:
    """Conflict graph over whole shapes: an edge iff gap < min_s (strict)."""

    nodes: tuple[int, ...]
    edges: frozenset[Pair]

    def subgraph(self, keep) -> "LayoutGraph":
        keep = set(keep)
        return LayoutGraph(
            nodes=tuple(n for n in self.nodes if n in keep),
            edges=frozenset(e for e in self.edges if e[0] in keep and e[1] in keep),
        )


def build_layout_graph(layout: Layout) -> LayoutGraph:
    """The layout's conflict pairs (``Layout.close_pairs``, found while it
    was validated) as an edge set over shape ids, inserted row-major."""
    ids = tuple(s.id for s in layout.sorted_shapes)
    # the rows are in id order, so each pair is already ordered
    i, j = layout.close_pairs
    edges = frozenset(zip(map(ids.__getitem__, i.tolist()), map(ids.__getitem__, j.tolist())))
    return LayoutGraph(nodes=ids, edges=edges)


def stitch_candidates(layout: Layout, shape_ids=None) -> dict[int, list[int]]:
    """Legal split positions along the long axis of each shape of
    ``shape_ids`` (every shape by default), by shape id, for the shapes
    that have any; an id not in the layout gets no entry.

    A shape's conflicting neighbors, its pairs in ``Layout.close_pairs``,
    project their extent onto the axis; each maximal uncovered span lying
    between two covered regions contributes its midpoint, kept only when
    the midpoint clears both shape ends and the adjacent covers by at least
    the overlap margin.
    """
    shapes = layout.sorted_shapes
    if shape_ids is None:
        rows = range(len(shapes))
    else:
        wanted = set(shape_ids)
        rows = [k for k, s in enumerate(shapes) if s.id in wanted] if wanted else ()
    # the neighbors' rectangles of each shape asked for, by position
    others: dict[int, list[Rect]] = {k: [] for k in rows}
    if others:
        i, j = layout.close_pairs
        for a, b in zip(i.tolist(), j.tolist()):
            if a in others:
                others[a].append(shapes[b].rect)
            if b in others:
                others[b].append(shapes[a].rect)
    margin = layout.params.overlap_margin
    cuts_of = {}
    for k, rects in others.items():
        if rects and (cuts := _cuts(shapes[k].rect, rects, margin)):
            cuts_of[shapes[k].id] = cuts
    return cuts_of


def _horizontal(rect: Rect) -> bool:
    return rect[2] - rect[0] >= rect[3] - rect[1]


def _cuts(rect: Rect, others: list[Rect], margin) -> list[int]:
    """The cuts of ``rect`` against its neighbors' rectangles, which may
    come in any order: their covers are sorted."""
    a = 0 if _horizontal(rect) else 1
    lo, hi = rect[a], rect[a + 2]
    # clamped to the shape by comparisons: max and min, two builtin calls
    # per neighbor, took a third of this call's time
    covers = sorted([(o[a] if o[a] > lo else lo, o[a + 2] if o[a + 2] < hi else hi)
                     for o in others])
    out = []
    covered = None  # the high end of the covers merged so far
    for c_lo, c_hi in covers:
        if c_lo >= c_hi:
            continue
        # only spans strictly between two covered regions qualify: splitting
        # an unconstrained stretch separates no conflicts. The covers lie
        # within the shape, so a midpoint that clears them clears its ends
        if covered is not None and covered < c_lo:
            mid = (covered + c_lo) // 2
            if mid - covered >= margin and c_lo - mid >= margin:
                out.append(mid)
        if covered is None or covered < c_hi:
            covered = c_hi
    return out


def _split_rect(rect: Rect, cuts: list[int]) -> list[Rect]:
    x_lo, y_lo, x_hi, y_hi = rect
    horizontal = _horizontal(rect)
    lo, hi = (x_lo, x_hi) if horizontal else (y_lo, y_hi)
    bounds = [lo] + sorted(cuts) + [hi]
    pieces = []
    for a, b in zip(bounds, bounds[1:]):
        pieces.append((a, y_lo, b, y_hi) if horizontal else (x_lo, a, x_hi, b))
    return pieces


def project_and_split(layout: Layout, split_nodes=None) -> DecompositionGraph:
    """Build the decomposition graph: split shapes at their stitch
    candidates, connect consecutive pieces with SE, and recompute CE at
    segment level.

    ``split_nodes`` restricts which shapes may be split (all by default),
    and the cuts of those are ``stitch_candidates(layout, split_nodes)``;
    unsplit shapes still appear as single-segment nodes and still project
    onto their neighbors.

    The conflict edges are the segment pairs closer than ``min_s``, less
    the consecutive pieces of one shape, which the stitch edges join, in
    row-major order. Only the segments of the layout's close shape pairs
    (``Layout.close_pairs``) and the pieces of one shape are tested.
    """
    shapes = layout.sorted_shapes
    cuts_of = stitch_candidates(layout, split_nodes)

    # a shape without cuts is one segment on its own rectangle; a split one
    # is its pieces, in order, and a stitch edge between each two
    # consecutive pieces. The loop visits only the split shapes; the runs
    # of shapes between them are copied as slices
    shape_ids = tuple(s.id for s in shapes)
    shape_rects = tuple(s.rect for s in shapes)
    parents: list[int] = []
    seg_rects: list[Rect] = []
    se: set[Pair] = set()
    count = np.ones(len(shapes), dtype=np.int64)  # per shape: its pieces
    split_rows: list[int] = []  # the segments of split shapes, and their rects
    split_rects: list[Rect] = []
    done = 0  # the shapes whose segments are listed
    for k in sorted(bisect_left(shape_ids, n) for n in cuts_of):
        parents += shape_ids[done:k]
        seg_rects += shape_rects[done:k]
        pieces = _split_rect(shape_rects[k], cuts_of[shape_ids[k]])
        start = len(parents)
        count[k] = len(pieces)
        parents += [shape_ids[k]] * len(pieces)
        seg_rects += pieces
        split_rows.extend(range(start, len(parents)))
        split_rects.extend(pieces)
        se.update((t - 1, t) for t in range(start + 1, len(parents)))
        done = k + 1
    parents += shape_ids[done:]
    seg_rects += shape_rects[done:]
    r = layout.rects.repeat(count, axis=0)
    r[split_rows] = np.array(split_rects, dtype=np.int64).reshape(-1, 4)

    # the conflict candidates: every pair of segments of two close shapes (a
    # segment lies inside its shape, so its gaps are never smaller), and the
    # pieces of one shape two or more apart; consecutive ones are stitches.
    # Each candidate pair of shapes (u, v) is a block of count[u] × count[v]
    # segment pairs
    first = count.cumsum() - count
    u, v = layout.close_pairs
    many = (count > 2).nonzero()[0]
    u, v = np.concatenate((u, many)), np.concatenate((v, many))
    size = count[u] * count[v]
    block = np.arange(len(u)).repeat(size)
    rank = np.arange(len(block)) - (size.cumsum() - size).repeat(size)
    width = count[v][block]
    i = first[u][block] + rank // width
    j = first[v][block] + rank % width
    keep = (u != v)[block] | (j - i >= 2)
    i, j = i[keep], j[keep]
    close = _close(*_axis_gaps(r, i, j), layout.params.min_s)
    i, j = i[close], j[close]
    row_major = np.lexsort((j, i))
    ce = frozenset(zip(i[row_major].tolist(), j[row_major].tolist()))

    return DecompositionGraph(
        range(len(parents)), parents, seg_rects, ce, frozenset(se)
    )
