import json

import pytest

from trimask.geometry import (
    Layout,
    LayoutError,
    ProcessParams,
    Shape,
    build_layout_graph,
    euclidean_gap,
    layout_to_dict,
    load_layout,
    project_and_split,
    stitch_candidates,
)


def make_layout(rects, **params):
    shapes = tuple(Shape(id=i, rect=r) for i, r in enumerate(rects))
    return Layout(shapes=shapes, params=ProcessParams(**params))


class TestEuclideanGap:
    def test_aligned_horizontal(self):
        assert euclidean_gap(Shape(0, (0, 0, 10, 10)), Shape(1, (20, 0, 30, 10))) == 10

    def test_corner_345(self):
        assert euclidean_gap(Shape(0, (0, 0, 10, 10)), Shape(1, (13, 14, 20, 20))) == 5

    def test_touching(self):
        assert euclidean_gap(Shape(0, (0, 0, 10, 10)), Shape(1, (10, 0, 20, 10))) == 0

    def test_symmetric(self):
        a, b = Shape(0, (0, 0, 10, 10)), Shape(1, (40, 25, 60, 30))
        assert euclidean_gap(a, b) == euclidean_gap(b, a)


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

    def test_duplicate_id(self, tmp_path):
        doc = {"shapes": [{"id": 0, "rect": [0, 0, 10, 10]},
                          {"id": 0, "rect": [50, 0, 60, 10]}]}
        path = tmp_path / "dupid.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(LayoutError, match="duplicate shape id"):
            load_layout(path)

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
        recovered = set()
        for u, v in dg.ce:
            pu, pv = dg.segment_by_id[u].parent, dg.segment_by_id[v].parent
            if pu != pv:
                recovered.add((min(pu, pv), max(pu, pv)))
        assert recovered == set(lg.edges)

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
