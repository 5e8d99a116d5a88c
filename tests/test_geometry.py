import json
import math
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trimask import geometry
from trimask.cli import generate_layout
from trimask.geometry import (
    COORD_LIMIT,
    MIN_S_LIMIT,
    Layout,
    LayoutGraph,
    LayoutError,
    ProcessParams,
    Shape,
    _close,
    _cuts,
    _near_pairs,
    _rect_array,
    _split_rect,
    _strip_pairs,
    _sweep,
    build_layout_graph,
    layout_from_dict,
    layout_to_dict,
    load_layout,
    project_and_split,
    stitch_candidates,
)
from trimask.graphs import DecompositionGraph, Segment, ordered_pair
from trimask.pipeline import decompose
from trimask.reductions import peel_low_degree


def make_layout(rects, **params):
    shapes = tuple(Shape(id=i, rect=r) for i, r in enumerate(rects))
    return Layout(shapes=shapes, params=ProcessParams(**params))


class TestLoadLayout(object):
    def test_three_disjoint_rects(self, tmp_path):
        doc = {
            "units": "nm",
            "params": {"min_s": 85, "overlap_margin": 10, "alpha": 0.1,
                       "min_width": 25, "min_spacing": 30},
            "shapes": [
                {"id": 0, "rect": [0, 0, 100, 25]},
                {"id": 1, "rect": [0, 100, 100, 125]},
                {"id": 2, "rect": [300, 0, 400, 25]},
            ],
        }
        path = tmp_path / "layout.json"
        path.write_text(json.dumps(doc))
        layout = load_layout(path)
        assert len(layout.shapes) == 3
        assert layout.params.min_s == 85
        assert layout_to_dict(layout) == doc

    def test_degenerate_rectangle(self, tmp_path):
        doc = {"shapes": [{"id": 7, "rect": [5, 0, 5, 10]}]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(LayoutError, match="degenerate rectangle.*7"):
            load_layout(path)

    def test_identical_rects_overlap(self, tmp_path):
        doc = {"shapes": [{"id": 0, "rect": [0, 0, 10, 10]},
                          {"id": 1, "rect": [0, 0, 10, 10]}]}
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(LayoutError, match="overlapping shapes"):
            load_layout(path)

    def test_degenerate_rectangle_reported_before_an_overlap(self):
        shapes = (Shape(0, (0, 0, 10, 10)), Shape(1, (5, 5, 15, 15)), Shape(2, (20, 0, 20, 10)))
        with pytest.raises(LayoutError, match=r"^degenerate rectangle on shape 2"):
            Layout(shapes, ProcessParams())

    def test_duplicate_id(self, tmp_path):
        doc = {"shapes": [{"id": 0, "rect": [0, 0, 10, 10]},
                          {"id": 0, "rect": [50, 0, 60, 10]}]}
        path = tmp_path / "dupid.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(LayoutError, match="duplicate shape id"):
            load_layout(path)

    def test_duplicate_id_among_many_shapes_is_found_in_one_pass(self):
        # counting each id's occurrences took 5.9 s at 20,000 shapes, and
        # grows with the square of the count
        shapes = [{"id": i, "rect": [3 * i, 0, 3 * i + 2, 2]} for i in range(50_000)]
        shapes.append({"id": 7, "rect": [0, 10, 2, 12]})
        start = time.perf_counter()
        with pytest.raises(LayoutError, match=r"^duplicate shape id 7$"):
            layout_from_dict({"shapes": shapes})
        assert time.perf_counter() - start < 5

    @pytest.mark.parametrize("coord", [10**20, -(2**63), COORD_LIMIT + 1, -COORD_LIMIT - 1])
    def test_coordinate_out_of_range(self, coord):
        doc = {"shapes": [{"id": 0, "rect": [0, 0, 10, 10]},
                          {"id": 3, "rect": [0, coord, 10, 10]}]}
        with pytest.raises(LayoutError, match="shape 3: coordinates must lie within"):
            layout_from_dict(doc)

    @pytest.mark.parametrize("sid", [2**63, 2**70, -(2**63) - 1])
    def test_shape_id_beyond_int64(self, sid):
        doc = {"shapes": [{"id": sid, "rect": [0, 0, 50, 10]},
                          {"id": 1, "rect": [0, 40, 50, 50]}]}
        message = rf"^shape {sid}: id must lie within \[-2\*\*63, 2\*\*63 - 1\]$"
        with pytest.raises(LayoutError, match=message):
            layout_from_dict(doc)
        with pytest.raises(LayoutError, match=message):
            Layout(shapes=(Shape(1, (0, 40, 50, 50)), Shape(sid, (0, 0, 50, 10))),
                   params=ProcessParams())

    @pytest.mark.parametrize("sid", [2**63 - 1, -(2**63)])
    def test_shape_id_at_int64_limit_decomposes(self, sid):
        layout = layout_from_dict({"shapes": [{"id": sid, "rect": [0, 0, 50, 10]},
                                              {"id": 1, "rect": [0, 40, 50, 50]}]})
        result = decompose(layout)
        assert {s.parent for s in result.dg.segments} == {sid, 1}
        assert result.conflict_count == 0

    def test_a_direct_layout_with_ragged_rects_fails(self):
        # 3 + 5 values are the 8 of two rectangles, which must not be
        # read as two rows of 4
        shapes = (Shape(1, (0, 0, 10)), Shape(2, (20, 0, 30, 10, 5)))
        with pytest.raises(LayoutError, match=r"^shape 1: rect must be 4 integers"):
            Layout(shapes=shapes, params=ProcessParams())
        with pytest.raises(LayoutError, match=r"^shape 2: rect must be 4 integers"):
            Layout(shapes=shapes[1:], params=ProcessParams())

    def test_coordinate_limit_itself_allowed(self):
        doc = {"shapes": [{"id": 0, "rect": [-COORD_LIMIT, 0, COORD_LIMIT, 10]}]}
        assert layout_from_dict(doc).shapes[0].rect[2] == COORD_LIMIT

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(LayoutError):
            load_layout(tmp_path / "missing.json")

    def test_touching_shapes_allowed(self):
        make_layout([(0, 0, 10, 10), (10, 0, 20, 10)])


class TestLayoutGraph:
    def test_triangle_all_close(self):
        layout = make_layout([(0, 0, 50, 50), (100, 0, 150, 50), (50, 100, 100, 150)])
        lg = build_layout_graph(layout)
        assert lg.edges == {(0, 1), (0, 2), (1, 2)}

    def test_strict_threshold(self):
        # gap exactly min_s is legal spacing: no edge
        layout = make_layout([(0, 0, 10, 10), (95, 0, 105, 10)])
        assert build_layout_graph(layout).edges == frozenset()
        layout = make_layout([(0, 0, 10, 10), (94, 0, 104, 10)])
        assert build_layout_graph(layout).edges == {(0, 1)}

    def test_single_shape(self):
        lg = build_layout_graph(make_layout([(0, 0, 10, 10)]))
        assert lg.nodes == (0,) and not lg.edges

    def test_reorder_invariance(self):
        rects = [(0, 0, 50, 50), (100, 0, 150, 50), (50, 100, 100, 150), (400, 0, 420, 30)]
        base = build_layout_graph(make_layout(rects))
        shuffled = Layout(
            shapes=tuple(Shape(id=i, rect=r) for i, r in reversed(list(enumerate(rects)))),
            params=ProcessParams(),
        )
        assert build_layout_graph(shuffled).edges == base.edges


def wire_fixture():
    """A 200nm wire whose neighbors cover [0,80] and [120,200] of its span."""
    return make_layout([
        (0, 0, 200, 25),      # the wire
        (0, -80, 80, -55),    # below-left neighbor
        (120, 50, 200, 75),   # above-right neighbor
    ])


class TestProjection:
    def test_no_neighbors_single_segment(self):
        layout = make_layout([(0, 0, 200, 25)])
        lg = build_layout_graph(layout)
        assert stitch_candidates(layout, lg, 0) == []
        dg = project_and_split(layout, lg)
        assert len(dg.segments) == 1 and not dg.se and not dg.ce

    def test_wire_candidate_at_midgap(self):
        layout = wire_fixture()
        lg = build_layout_graph(layout)
        assert stitch_candidates(layout, lg, 0) == [100]
        dg = project_and_split(layout, lg)
        wire_segs = [s for s in dg.segments if s.parent == 0]
        assert len(wire_segs) == 2
        assert {s.rect for s in wire_segs} == {(0, 0, 100, 25), (100, 0, 200, 25)}
        assert len(dg.se) == 1

    def test_narrow_gap_rejected(self):
        # uncovered span too close to the covers on both sides
        layout = make_layout([
            (0, 0, 200, 25),
            (0, -80, 92, -55),
            (108, 50, 200, 75),
        ])
        lg = build_layout_graph(layout)
        assert stitch_candidates(layout, lg, 0) == []

    def test_segments_partition_shape(self):
        layout = wire_fixture()
        dg = project_and_split(layout, build_layout_graph(layout))
        for shape in layout.shapes:
            segs = sorted(
                (s.rect for s in dg.segments if s.parent == shape.id),
                key=lambda r: (r[0], r[1]),
            )
            x_lo, y_lo, x_hi, y_hi = shape.rect
            assert segs[0][:2] == (x_lo, y_lo)
            assert segs[-1][2:] == (x_hi, y_hi)
            for a, b in zip(segs, segs[1:]):
                assert a[2] == b[0] and a[1] == b[1] and a[3] == b[3]

    def test_min_segment_length(self):
        layout = wire_fixture()
        margin = layout.params.overlap_margin
        dg = project_and_split(layout, build_layout_graph(layout))
        for s in dg.segments:
            x_lo, y_lo, x_hi, y_hi = s.rect
            assert max(x_hi - x_lo, y_hi - y_lo) >= margin

    def test_ce_se_disjoint_with_stitches_present(self):
        dg = project_and_split(wire_fixture(), build_layout_graph(wire_fixture()))
        assert len(dg.se) >= 1
        assert not (dg.ce & dg.se)

    def test_merging_segments_recovers_layout_graph(self):
        layout = wire_fixture()
        lg = build_layout_graph(layout)
        dg = project_and_split(layout, lg)
        parent = {seg.id: seg.parent for seg in dg.segments}
        recovered = set()
        for u, v in dg.ce:
            pu, pv = parent[u], parent[v]
            if pu != pv:
                recovered.add((min(pu, pv), max(pu, pv)))
        assert recovered == set(lg.edges)

    def test_conflicts_between_pieces_of_one_shape(self):
        # three neighbors above the wire leave two uncovered spans, so it
        # splits into three pieces; no generated layout has a conflict
        # edge between two pieces of one shape
        layout = make_layout([
            (0, 0, 200, 25),
            (0, 55, 40, 80),
            (60, 55, 100, 80),
            (120, 55, 200, 80),
        ])
        dg = project_and_split(layout, build_layout_graph(layout))
        assert [s.rect for s in dg.segments[:3]] == [
            (0, 0, 50, 25), (50, 0, 110, 25), (110, 0, 200, 25)]
        assert dg.se == {(0, 1), (1, 2)}
        # non-consecutive pieces of one shape, 60 < 85 apart
        assert (0, 2) in dg.ce
        # consecutive ids, but the wire's last piece and the next shape
        assert dg.segments[3].parent == 1 and (2, 3) in dg.ce

    def test_split_nodes_restriction(self):
        layout = wire_fixture()
        lg = build_layout_graph(layout)
        dg = project_and_split(layout, lg, split_nodes=[1, 2])
        assert len([s for s in dg.segments if s.parent == 0]) == 1


class TestParams:
    def test_invariant_violations(self):
        with pytest.raises(LayoutError):
            ProcessParams(min_s=20, min_spacing=30)
        with pytest.raises(LayoutError):
            ProcessParams(overlap_margin=0)
        with pytest.raises(LayoutError):
            ProcessParams(alpha=0)

    @pytest.mark.parametrize("value", ["x", float("nan"), float("inf"), -float("inf"), None,
                                       True])
    def test_non_numeric_and_non_finite_rejected(self, value):
        for name in ("min_s", "overlap_margin", "alpha", "min_width", "min_spacing"):
            with pytest.raises(LayoutError, match=name):
                ProcessParams(**{name: value})


def test_non_contiguous_shape_ids():
    layout = Layout(
        shapes=(Shape(10, (0, 0, 50, 50)), Shape(99, (100, 0, 150, 50))),
        params=ProcessParams(),
    )
    lg = build_layout_graph(layout)
    assert lg.edges == {(10, 99)}
    dg = project_and_split(layout, lg)
    assert {s.parent for s in dg.segments} == {10, 99}


# --- exact all-pairs references for the sort-and-sweep pair queries --------


def squared_gap(a, b) -> int:
    """Squared euclidean distance between two closed rectangles, in integers."""
    dx = max(0, a[0] - b[2], b[0] - a[2])
    dy = max(0, a[1] - b[3], b[1] - a[3])
    return dx * dx + dy * dy


def reference_layout_edges(layout: Layout) -> list:
    """Layout-graph edges from every pair's exact rational distance test, in
    row-major insertion order."""
    shapes = sorted(layout.shapes, key=lambda s: s.id)
    limit = Fraction(layout.params.min_s) ** 2
    return [
        ordered_pair(a.id, b.id)
        for k, a in enumerate(shapes)
        for b in shapes[k + 1:]
        if squared_gap(a.rect, b.rect) < limit
    ]


def reference_overlap_error(shapes) -> str | None:
    """The overlap message of the n×n interior-intersection matrix, or None."""
    if len(shapes) < 2:
        return None
    r = np.array([s.rect for s in shapes], dtype=np.int64)
    x_lo, y_lo, x_hi, y_hi = r[:, 0], r[:, 1], r[:, 2], r[:, 3]
    ox = (x_lo[:, None] < x_hi[None, :]) & (x_lo[None, :] < x_hi[:, None])
    oy = (y_lo[:, None] < y_hi[None, :]) & (y_lo[None, :] < y_hi[:, None])
    bad = ox & oy
    np.fill_diagonal(bad, False)
    if not bad.any():
        return None
    i, j = np.argwhere(bad)[0]
    a, b = shapes[int(i)].id, shapes[int(j)].id
    return f"overlapping shapes {min(a, b)} and {max(a, b)}"


def overlap_error(shapes) -> str | None:
    """The message ``Layout`` raises for ``shapes``, or None."""
    try:
        Layout(tuple(shapes), ProcessParams())
    except LayoutError as exc:
        return str(exc)
    return None


def axis_pairs(r: np.ndarray, axis: int, reach: int) -> set:
    """Pairs whose signed gap along ``axis`` is below ``reach``, by brute force."""
    lo, hi = r[:, axis], r[:, axis + 2]
    return {
        (i, j)
        for i in range(len(r))
        for j in range(i + 1, len(r))
        if max(lo[i] - hi[j], lo[j] - hi[i]) < reach
    }


def assert_matches_reference(rects, ids=None, min_s=85):
    ids = list(range(len(rects))) if ids is None else ids
    shapes = tuple(Shape(id=i, rect=r) for i, r in zip(ids, rects))
    layout = Layout(shapes=shapes, params=ProcessParams(min_s=min_s))
    edges = build_layout_graph(layout).edges
    expected = reference_layout_edges(layout)
    assert edges == frozenset(expected)
    # same insertion order, so the frozenset iterates in the same order
    assert list(edges) == list(frozenset(expected))
    return edges


def disjoint(rects):
    """Drop every rectangle whose interior meets an earlier kept one."""
    kept = []
    for r in rects:
        if all(not (r[0] < k[2] and k[0] < r[2] and r[1] < k[3] and k[1] < r[3]) for k in kept):
            kept.append(r)
    return kept


@st.composite
def rects(draw, max_size=30, span=400, max_len=300):
    out = []
    for _ in range(draw(st.integers(0, max_size))):
        x = draw(st.integers(-span, span))
        y = draw(st.integers(-span, span))
        w = draw(st.integers(1, max_len))
        h = draw(st.integers(1, max_len))
        out.append((x, y, x + w, y + h))
    return out


@st.composite
def far_rects(draw, max_size=30):
    """Rectangles near the origin or within 2**30 of ±COORD_LIMIT, each
    coordinate on its own, in units of 1 or 2**20."""
    unit = draw(st.sampled_from([1, 2**20]))
    bases = st.sampled_from([-350 * unit, -COORD_LIMIT, COORD_LIMIT - 700 * unit])
    out = []
    for _ in range(draw(st.integers(2, max_size))):
        x = draw(bases) + draw(st.integers(0, 400)) * unit
        y = draw(bases) + draw(st.integers(0, 400)) * unit
        w = draw(st.integers(1, 300)) * unit
        h = draw(st.integers(1, 300)) * unit
        out.append((x, y, x + w, y + h))
    return out


REACH = (st.sampled_from([0, 1, 85]) | st.integers(0, 300).map(lambda k: k * 2**20)
         | st.just(2**30))

HYPOTHESIS = settings(max_examples=300, deadline=None, database=None, derandomize=True)

MIN_S = st.one_of(
    st.integers(31, 200),
    st.integers(31, 200).map(float),
    st.floats(30.01, 200.0).filter(lambda s: not s.is_integer()),
)


JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.text(max_size=4))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=4),
    max_leaves=12,
)
PARAMS = st.dictionaries(
    st.sampled_from(["min_s", "overlap_margin", "alpha", "min_width", "min_spacing", "gap"]),
    st.integers() | JSON_SCALARS, max_size=3,
) | JSON_VALUES
COORDS = (st.integers(-300, 300) | st.integers(-(2**64), 2**64)
          | st.sampled_from([COORD_LIMIT, COORD_LIMIT + 1, 2**63, -(2**63) - 1]))


def rarely(draw) -> bool:
    return draw(st.integers(0, 5)) == 0


@st.composite
def shape_entries(draw):
    if rarely(draw):
        return draw(JSON_VALUES)
    sid = draw(JSON_SCALARS) if rarely(draw) else draw(st.integers(-3, 3))
    rects = st.lists(COORDS, max_size=6) | JSON_VALUES
    rect = draw(rects) if rarely(draw) else draw(st.lists(COORDS, min_size=4, max_size=4))
    return {"id": sid, "rect": rect}


@st.composite
def layout_documents(draw):
    """JSON-like documents, most of them close enough to a layout file that
    the checks past the first few are reached."""
    if rarely(draw):
        return draw(JSON_VALUES)
    doc = {"shapes": draw(JSON_VALUES if rarely(draw) else st.lists(shape_entries(), max_size=4))}
    if rarely(draw):
        doc["params"] = draw(PARAMS)
    if rarely(draw):
        doc["units"] = draw(st.just("nm") | JSON_SCALARS)
    return doc


def reference_layout_from_dict(doc: dict) -> Layout:
    """The loader without its exact-type fast path: every entry takes the
    full checks."""
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


def load_outcome(load, doc):
    """The layout ``load(doc)`` returns, or the message of its LayoutError."""
    try:
        return load(doc)
    except LayoutError as exc:
        return str(exc)


class TestLayoutDocuments:
    @HYPOTHESIS
    @given(layout_documents())
    def test_layout_from_dict_raises_only_layout_error(self, doc):
        layout = load_outcome(layout_from_dict, doc)
        # the same layout, or the same message, as with the full checks
        assert layout == load_outcome(reference_layout_from_dict, doc)
        if isinstance(layout, Layout):
            # an accepted layout builds its graph without overflow
            build_layout_graph(layout)

    @pytest.mark.parametrize("entry", [
        {"id": 1, "rect": (0, 0, 5, 5)},
        {"id": True, "rect": [0, 0, 5, 5]},
        {"id": 1, "rect": [0, 0, 5, True]},
        {"id": 1, "rect": [0, 0, 5, 5.0]},
        {"id": 1, "rect": [0, 0, 5]},
        {"id": 1, "rect": "0005"},
        {"id": 1.0, "rect": [0, 0, 5, 5]},
    ])
    def test_entries_off_the_fast_path_match_the_reference(self, entry):
        doc = {"shapes": [entry]}
        assert load_outcome(layout_from_dict, doc) == load_outcome(reference_layout_from_dict, doc)


def parse_outcomes(text, directory):
    """What ``load_layout`` makes of ``text`` as a file, and what
    ``layout_from_dict`` makes of ``json.loads(text)``: layouts or
    messages."""
    path = directory / "layout.json"
    path.write_text(text)
    return load_outcome(load_layout, path), load_outcome(layout_from_dict, json.loads(text))


# a shape entry as JSON gives it, which the parse makes a Shape wherever it is
ENTRY = '{"id": 1, "rect": [0, 0, 5, 5]}'


class TestLoadParity:
    """``load_layout`` makes the shape entries ``Shape``s as it parses; it
    must accept what ``layout_from_dict`` accepts and say what it says."""

    @pytest.mark.parametrize("text", [
        # accepted
        '{"shapes": []}',
        '{"shapes": [%s, {"id": 2, "rect": [10, 0, 15, 5]}]}' % ENTRY,
        '{"units": "nm", "params": {"min_s": 85, "alpha": 0.2}, "shapes": [%s]}' % ENTRY,
        '{"shapes": [{"id": 1, "rect": [0, 0, 5, 5], "layer": "M1"}]}',
        '{"shapes": [{"rect": [0, 0, 5, 5], "id": 1, "twin": %s}]}' % ENTRY,
        '{"shapes": [{"id": 1, "id": 2, "rect": [0, 0, 5, 5]}]}',
        '{"shapes": [{"id": 1, "rect": [0, 0, 5], "rect": [0, 0, 5, 5]}]}',
        '{"id": 1, "rect": [0, 0, 5, 5], "shapes": [%s]}' % ENTRY,
        # rejected
        '{"shapes": [{"id": true, "rect": [0, 0, 5, 5]}]}',
        '{"shapes": [{"id": 1.0, "rect": [0, 0, 5, 5]}]}',
        '{"shapes": [{"id": 1, "rect": [0, 0, 5, 5.0]}]}',
        '{"shapes": [{"id": 1, "rect": [0.0, 0, 5, 5]}]}',
        '{"shapes": [{"id": 1, "rect": [0, 0, 5, false]}]}',
        '{"shapes": [{"id": 1, "rect": [0, 0, 5]}]}',
        '{"shapes": [{"id": 1, "rect": [0, 0, 5, 5, 9]}]}',
        '{"shapes": [{"id": 1, "rect": [0, 0, 5, 5]}, {"id": 1, "rect": [10, 0, 15, 5]}]}',
        '{"shapes": [{"id": 1, "rect": [0, 0, 5, 5]}, {"id": 2, "rect": [2, 2, 9, 9]}]}',
        '{"shapes": [{"id": 1, "rect": [0, 0, 5, 5], "rect": [0, 0, 5]}]}',
        '{"params": %s, "shapes": []}' % ENTRY,
        '{"params": {"min_s": %s}, "shapes": []}' % ENTRY,
        '{"units": %s, "shapes": [%s]}' % (ENTRY, ENTRY),
        '{"shapes": [[%s]]}' % ENTRY,
        '{"shapes": [{"id": 1, "box": %s}]}' % ENTRY,
        '{"shapes": [{"id": 1, "rect": %s}]}' % ENTRY,
        '{"shapes": [{"id": %s, "rect": [0, 0, 5, 5]}]}' % ENTRY,
        '{"shapes": %s}' % ENTRY,
        ENTRY,
        "[%s]" % ENTRY,
    ])
    def test_same_layout_or_message(self, text, tmp_path):
        loaded, parsed = parse_outcomes(text, tmp_path)
        assert loaded == parsed
        if isinstance(loaded, Layout):
            assert list(map(type, loaded.shapes)) == [Shape] * len(loaded.shapes)

    @HYPOTHESIS
    @given(layout_documents())
    def test_documents(self, tmp_path_factory, doc):
        loaded, parsed = parse_outcomes(json.dumps(doc), tmp_path_factory.getbasetemp())
        assert loaded == parsed


class TestSweepOracle:
    @HYPOTHESIS
    @given(rects(), st.sampled_from([0, 1, 30, 85]))
    def test_near_pairs_lists_every_close_pair_once(self, rs, reach):
        if len(rs) < 2:
            return
        r = np.array(rs, dtype=np.int64)
        i, j = _near_pairs(r, reach)
        got = list(zip(i.tolist(), j.tolist()))
        assert len(got) == len(set(got))
        assert all(a < b for a, b in got)
        by_x, by_y = axis_pairs(r, 0, reach), axis_pairs(r, 1, reach)
        assert by_x & by_y <= set(got)
        assert len(got) <= min(len(by_x), len(by_y))

    @HYPOTHESIS
    @given(far_rects(), REACH)
    def test_strip_pass_lists_every_close_pair_once(self, rs, reach):
        # the strip pass run on its own, since _near_pairs takes it only
        # for inputs too large for a brute-force reference
        r = np.array(rs, dtype=np.int64)
        by_x, by_y = axis_pairs(r, 0, reach), axis_pairs(r, 1, reach)
        for axis, swept in ((0, by_x), (1, by_y)):
            i, j = _strip_pairs(r, reach, axis, *_sweep(r, reach, axis))
            got = [(min(a, b), max(a, b)) for a, b in zip(i.tolist(), j.tolist())]
            assert len(got) == len(set(got))
            assert all(a != b for a, b in got)
            assert by_x & by_y <= set(got) <= swept

    @pytest.mark.parametrize("density", [2, 6])
    def test_generated_layouts_take_the_strip_path(self, density):
        layout = generate_layout(300, density, seed=1)
        r = _rect_array(layout.shapes)
        n = len(r)
        sweeps = [_sweep(r, 85, axis)[1] - np.arange(1, n + 1) for axis in (0, 1)]
        assert min(int(c.sum()) for c in sweeps) > 4 * n + 1024
        assert_matches_reference([s.rect for s in layout.shapes])
        shifted = [(x - 2**59, y + 2**59, u - 2**59, v + 2**59) for x, y, u, v in
                   (s.rect for s in layout.shapes)]
        assert_matches_reference(shifted)
        x, y, u, v = layout.shapes[150].rect
        bad = layout.shapes + (Shape(-1, (x + 1, y + 1, u + 1, v + 1)),)
        assert overlap_error(bad) == reference_overlap_error(bad) is not None

    def test_sparse_layout_lists_few_more_candidates_than_edges(self):
        # the sweep alone listed 174,385 candidates for 4,929 edges
        layout = generate_layout(5000, 2, seed=1)
        r = _rect_array(layout.shapes)
        i, _ = _near_pairs(r, math.ceil(layout.params.min_s))
        assert len(i) <= 2 * len(build_layout_graph(layout).edges)

    @HYPOTHESIS
    @given(rects(), MIN_S, st.randoms(use_true_random=False))
    def test_layout_graph_matches_dense_reference(self, rs, min_s, random):
        rs = disjoint(rs)
        ids = random.sample(range(10 * len(rs) + 1), len(rs))
        assert_matches_reference(rs, ids, min_s=min_s)

    @HYPOTHESIS
    @given(rects(max_size=20, span=100, max_len=120), st.randoms(use_true_random=False))
    def test_overlap_error_names_reference_pair(self, rs, random):
        ids = random.sample(range(10 * len(rs) + 1), len(rs))
        shapes = [Shape(id=i, rect=r) for i, r in zip(ids, rs)]
        assert overlap_error(shapes) == reference_overlap_error(shapes)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("file_order", ["generated", "reversed"])
    def test_overlap_error_with_several_overlaps(self, seed, file_order):
        # shifted copies of a few shapes, each overlapping its original and
        # perhaps its neighbors, at random places in the file
        layout = generate_layout(300, 2 * (1 + seed % 3), seed=seed)
        rng = np.random.default_rng(seed)
        shapes = list(layout.shapes)
        for k, index in enumerate(rng.choice(len(shapes), size=2 + seed, replace=False)):
            x, y, u, v = shapes[index].rect
            dx, dy = rng.integers(-5, 6, size=2)
            copy = Shape(1000 + k, (x + dx, y + dy, u + dx, v + dy))
            shapes.insert(int(rng.integers(0, len(shapes) + 1)), copy)
        if file_order == "reversed":
            shapes.reverse()
        assert overlap_error(shapes) == reference_overlap_error(shapes) is not None

    def test_touching_rectangles(self):
        # edge to edge and corner to corner: a conflict, never an overlap
        rs = [(0, 0, 10, 10), (10, 0, 20, 10), (20, 10, 30, 20), (0, 10, 10, 20)]
        assert overlap_error([Shape(i, r) for i, r in enumerate(rs)]) is None
        edges = assert_matches_reference(rs)
        assert len(edges) == 6

    def test_diagonal_gap_of_exactly_min_s(self):
        # dx=51, dy=68: 51² + 68² = 85², legal spacing
        assert assert_matches_reference([(0, 0, 10, 10), (61, 78, 70, 90)]) == frozenset()
        assert assert_matches_reference([(0, 0, 10, 10), (61, 77, 70, 90)]) == {(0, 1)}
        assert assert_matches_reference([(61, 78, 70, 90), (0, 0, 10, 10)]) == frozenset()

    def test_gap_of_min_s_minus_one(self):
        assert assert_matches_reference([(0, 0, 10, 10), (94, 0, 104, 10)]) == {(0, 1)}
        assert assert_matches_reference([(0, 0, 10, 10), (0, 94, 10, 104)]) == {(0, 1)}
        assert assert_matches_reference([(0, 0, 10, 10), (95, 0, 105, 10)]) == frozenset()

    def test_far_pair_is_not_a_conflict_through_int64_overflow(self):
        # the three shapes at y=0 make the x sweep the cheaper one, so the
        # pair (0, 1) is tested; its squared y gap, about 2**64, wraps in int64
        big = 2**32
        rs = [(0, 0, 10, 30), (0, big, 10, big + 30), (100_000, 0, 100_010, 30),
              (200_000, 0, 200_010, 30), (300_000, 0, 300_010, 30)]
        layout = Layout(tuple(Shape(i, r) for i, r in enumerate(rs)), ProcessParams())
        assert build_layout_graph(layout).edges == frozenset()

    def test_largest_coordinates_and_min_s_stay_exact(self):
        lim = COORD_LIMIT
        rs = [(-lim, -lim, -lim + 10, -lim + 10), (lim - 10, lim - 10, lim, lim),
              (-lim + 10 + 2**30 - 1, -lim, -lim + 2**31, -lim + 10)]
        layout = Layout(tuple(Shape(i, r) for i, r in enumerate(rs)),
                        ProcessParams(min_s=2**30))
        assert build_layout_graph(layout).edges == {(0, 2)}

    def test_min_s_limit_makes_a_complete_graph(self):
        # every pair of 50 shapes lies within 2**30: a sweep of 1225
        # candidates, which takes the strip pass
        rs = [(1000 * k, 0, 1000 * k + 10, 10) for k in range(50)]
        layout = make_layout(rs, min_s=MIN_S_LIMIT)
        assert len(build_layout_graph(layout).edges) == 50 * 49 // 2
        assert_matches_reference(rs, min_s=MIN_S_LIMIT)

    def test_negative_coordinates_and_equal_low_edges(self):
        rs = [(-300, -50, -200, -25), (-300, 20, -250, 45), (-300, -140, -100, -115),
              (-150, -50, -120, -25), (-300, 129, -290, 200)]
        edges = assert_matches_reference(rs)
        assert edges == {(0, 1), (0, 2), (0, 3), (1, 4), (2, 3)}
        overlapping = [Shape(7, (-300, -50, -200, -25)), Shape(3, (-300, -30, -250, 0))]
        assert overlap_error(overlapping) == "overlapping shapes 3 and 7"

    def test_long_wires_spanning_many_others(self):
        rs = [(0, 0, 10_000, 25), (0, 2_000, 10_000, 2_025)]
        rs += [(100 * k, 60, 100 * k + 40, 85) for k in range(100)]
        rs += [(100 * k + 50, 1_940, 100 * k + 90, 1_960) for k in range(100)]
        edges = assert_matches_reference(rs)
        assert len(edges) == 2 * (100 + 99)
        assert overlap_error([Shape(i, r) for i, r in enumerate(rs)]) is None

    def test_column_of_vertical_wires_sweeps_y(self):
        # every wire shares x with every other: x would list all pairs
        rs = [(k % 3, 200 * k, 25 + k % 3, 200 * k + 150) for k in range(200)]
        i, _ = _near_pairs(np.array(rs, dtype=np.int64), 85)
        assert len(i) == 199
        edges = assert_matches_reference(rs)
        assert edges == {(k, k + 1) for k in range(199)}

    def test_overlap_error_names_smallest_index_pair(self):
        # bad pairs by index: (1, 3) and (0, 2); the reference names (0, 2)
        rs = [(0, 0, 50, 50), (500, 0, 550, 50), (40, 40, 90, 90), (520, 20, 600, 60)]
        shapes = [Shape(i, r) for i, r in zip([9, 1, 4, 2], rs)]
        assert reference_overlap_error(shapes) == "overlapping shapes 4 and 9"
        assert overlap_error(shapes) == "overlapping shapes 4 and 9"


def test_one_proximity_sweep_per_layout(tmp_path, monkeypatch):
    # validation's sweep feeds both conflict graphs, so decompose sweeps
    # nothing
    path = tmp_path / "layout.json"
    path.write_text(json.dumps(layout_to_dict(generate_layout(400, 6, seed=1))))
    calls = []
    near_pairs = geometry._near_pairs

    def counted(*args):
        calls.append(args)
        return near_pairs(*args)

    monkeypatch.setattr(geometry, "_near_pairs", counted)
    layout = load_layout(path)
    assert len(calls) == 1
    calls.clear()
    decompose(layout)
    assert calls == []


def test_layout_graph_memory_stays_linear(tmp_path):
    # the n×n gap matrices of 5000 shapes took 764 MiB, and the candidate
    # pairs of a sweep without strips about 21 MiB
    path = tmp_path / "sparse.json"
    path.write_text(json.dumps(layout_to_dict(generate_layout(5000, 2, seed=1))))
    tracemalloc.start()
    try:
        build_layout_graph(load_layout(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


# --- exact reference for the conflict edges of project_and_split ------------


def reference_split_ce(layout: Layout, lg, dg) -> set:
    """Segment-level CE of ``dg``'s segments with every candidate pair tested
    by its exact rational distance."""
    limit = Fraction(layout.params.min_s) ** 2
    by_shape: dict = {}
    for seg in dg.segments:
        by_shape.setdefault(seg.parent, []).append(seg)
    ce = set()
    for segs in by_shape.values():
        for i in range(len(segs)):
            for j in range(i + 2, len(segs)):
                if squared_gap(segs[i].rect, segs[j].rect) < limit:
                    ce.add(ordered_pair(segs[i].id, segs[j].id))
    for u, v in sorted(lg.edges):
        for a in by_shape[u]:
            for b in by_shape[v]:
                if squared_gap(a.rect, b.rect) < limit:
                    ce.add(ordered_pair(a.id, b.id))
    return ce


def assert_split_ce_matches_reference(layout: Layout, split_nodes=None):
    lg = build_layout_graph(layout)
    dg = project_and_split(layout, lg, split_nodes=split_nodes)
    # inserted in row-major order, so the frozenset iterates in the same order
    expected = frozenset(sorted(reference_split_ce(layout, lg, dg)))
    assert dg.ce == expected
    assert list(dg.ce) == list(expected)
    return dg


class TestSplitOracle:
    @HYPOTHESIS
    @given(rects(span=300, max_len=250), MIN_S, st.randoms(use_true_random=False))
    def test_random_rects(self, rs, min_s, random):
        rs = disjoint(rs)
        shapes = tuple(Shape(id=i, rect=r) for i, r in enumerate(rs))
        layout = Layout(shapes=shapes, params=ProcessParams(min_s=min_s))
        split = random.sample(range(len(rs)), random.randint(0, len(rs)))
        assert_split_ce_matches_reference(layout, split)
        assert_split_ce_matches_reference(layout)

    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(st.integers(1, 60), st.sampled_from([2, 4, 6]), MIN_S)
    def test_generated_layouts_with_splits(self, seed, density, min_s):
        params = ProcessParams(min_s=min_s)
        layout = generate_layout(40, density, seed=seed, params=params)
        assert_split_ce_matches_reference(layout)

    def test_generated_layouts_split(self):
        # the generated corpus does split shapes, so both paths run
        dg = assert_split_ce_matches_reference(generate_layout(40, 6, seed=1))
        assert dg.se and len(dg.segments) > 40

    @pytest.mark.parametrize("square, dx, dy", [(962, 1, 31), (905, 8, 29)])
    def test_boundary_pair_conflicts_in_both_graphs(self, square, dx, dy):
        # min_s is the float nearest sqrt(square), which lies just above it,
        # so a pair at exactly that distance is closer than min_s. Float
        # tests miss it: hypot(dx, dy) == min_s, and sqrt(905)**2 == 905.0
        min_s = math.sqrt(square)
        assert dx * dx + dy * dy == square < Fraction(min_s) ** 2
        layout = make_layout([(0, 0, 10, 10), (10 + dx, 10 + dy, 20 + dx, 20 + dy)],
                             min_s=min_s)
        assert build_layout_graph(layout).edges == {(0, 1)}
        assert assert_split_ce_matches_reference(layout).ce == {(0, 1)}


# --- the per-shape loops that the layout's id-sorted array replaced ---------


def reference_layout_graph(layout: Layout) -> LayoutGraph:
    """``build_layout_graph`` sorting the shapes and building their array
    itself."""
    shapes = sorted(layout.shapes, key=lambda s: s.id)
    ids = [s.id for s in shapes]
    if len(shapes) < 2:
        return LayoutGraph(nodes=tuple(ids), edges=frozenset())
    r = np.array([s.rect for s in shapes], dtype=np.int64)
    min_s = layout.params.min_s
    i, j = _near_pairs(r, math.ceil(min_s))
    close = _close(r, i, j, min_s)
    i, j = i[close], j[close]
    order = np.lexsort((j, i))
    edges = frozenset(
        ordered_pair(ids[u], ids[v]) for u, v in zip(i[order].tolist(), j[order].tolist())
    )
    return LayoutGraph(nodes=tuple(ids), edges=edges)


def reference_project_and_split(layout: Layout, lg, split_nodes=None) -> DecompositionGraph:
    """``project_and_split`` cutting and splitting every shape in one loop,
    building the segment array from the segments' rectangles, and testing
    every pair of segments for a conflict."""
    shapes = sorted(layout.shapes, key=lambda s: s.id)
    rect_of = {s.id: s.rect for s in shapes}
    margin = layout.params.overlap_margin
    others = {n: [] for n in (lg.nodes if split_nodes is None else split_nodes)}
    for a, b in lg.edges:
        if a in others:
            others[a].append(rect_of[b])
        if b in others:
            others[b].append(rect_of[a])
    segments, se = [], set()
    for shape in shapes:
        cuts = []
        if shape.id in others:
            cuts = _cuts(shape.rect, others[shape.id], margin)
        pieces = _split_rect(shape.rect, cuts) if cuts else [shape.rect]
        start = len(segments)
        for rect in pieces:
            segments.append(Segment(id=len(segments), parent=shape.id, rect=rect))
        se.update((k - 1, k) for k in range(start + 1, len(segments)))
    # every pair, row-major, less the consecutive pieces of one shape
    i, j = np.triu_indices(len(segments), 1)
    parent = np.array([s.parent for s in segments], dtype=np.int64)
    keep = (parent[i] != parent[j]) | (j - i >= 2)
    i, j = i[keep], j[keep]
    r = np.array([seg.rect for seg in segments], dtype=np.int64).reshape(-1, 4)
    close = _close(r, i, j, layout.params.min_s)
    ce = frozenset(zip(i[close].tolist(), j[close].tolist()))
    return DecompositionGraph(
        [s.id for s in segments], [s.parent for s in segments], [s.rect for s in segments],
        ce=ce, se=frozenset(se),
    )


def assert_graphs_match_the_reference(layout: Layout):
    lg = build_layout_graph(layout)
    expected = reference_layout_graph(layout)
    assert lg.nodes == expected.nodes
    # the frozensets iterate in insertion order, and callers iterate them
    assert list(lg.edges) == list(expected.edges)
    for split_nodes in (None, peel_low_degree(lg)[0].nodes):
        dg = project_and_split(layout, lg, split_nodes)
        ref = reference_project_and_split(layout, lg, split_nodes)
        assert dg.segments == ref.segments
        assert list(dg.ce) == list(ref.ce)
        assert list(dg.se) == list(ref.se)
    return project_and_split(layout, lg)


class TestReferenceLoops:
    @pytest.mark.parametrize("density", [2, 4, 6])
    @pytest.mark.parametrize("shapes, seed", [(40, 1), (200, 2), (400, 3)])
    @pytest.mark.parametrize("file_order", ["generated", "reversed"])
    def test_graphs_and_segments_match_the_reference(self, shapes, density, seed, file_order):
        layout = generate_layout(shapes, density, seed=seed)
        if file_order == "reversed":
            layout = Layout(shapes=layout.shapes[::-1], params=layout.params)
        assert_graphs_match_the_reference(layout)

    @pytest.mark.parametrize("density", [2, 4, 6])
    def test_non_integer_min_s(self, density):
        # sqrt(905) lies just above 30.083, so ceil(min_s) = 31 is the
        # sweep's reach and a gap of 8 by 29 is a conflict
        layout = generate_layout(200, density, seed=4)
        assert_graphs_match_the_reference(
            Layout(shapes=layout.shapes, params=replace(layout.params, min_s=math.sqrt(905))))

    def test_shape_split_into_three_or_more_pieces(self):
        # four neighbors above the wire leave three uncovered spans, so it
        # splits into four pieces, and pieces two apart conflict
        layout = make_layout([(0, 0, 250, 25)] + [(x, 55, x + 40, 80) for x in (0, 70, 140, 210)])
        dg = assert_graphs_match_the_reference(layout)
        assert [s.parent for s in dg.segments[:5]] == [0, 0, 0, 0, 1]
        assert {(0, 2), (1, 3)} <= dg.ce

    def test_the_reference_cases_split_shapes(self):
        # so that the comparison above covers the pieces and their stitches
        layout = generate_layout(400, 6, seed=3)
        lg = build_layout_graph(layout)
        dg = project_and_split(layout, lg, peel_low_degree(lg)[0].nodes)
        assert len(dg.se) > 50 and len(dg.segments) > 450
