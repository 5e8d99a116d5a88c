import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trimask.cli import format_assignment, generate_layout, main, render_svg
from trimask.geometry import build_layout_graph, load_layout, project_and_split
from trimask.graphs import MaskAssignment, component_sets, evaluate, parse_edgelist
from trimask.pipeline import DecomposeConfig, decompose

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import inputs  # noqa: E402

TRIANGLE_EDGELIST = "3\nC 0 1\nC 1 2\nC 0 2\n"
# the five-node reference instance, shifted to 0-based ids
WORKED_EDGELIST = "5\nC 0 1\nC 0 2\nC 0 4\nC 1 2\nC 1 4\nC 2 3\nC 3 4\nS 0 3\n"


def run(args):
    return main(args)


class TestDecomposeCommand:
    def test_triangle_exact_three_masks(self, tmp_path):
        graph = tmp_path / "tri.txt"
        graph.write_text(TRIANGLE_EDGELIST)
        out = tmp_path / "assignment.json"
        assert run(["decompose", "--graph", str(graph), "--solver", "exact",
                    "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert sorted(doc["masks"].values()) == [0, 1, 2]
        assert doc["conflicts"] == [] and doc["stitches"] == []

    def test_worked_example_sdp_objective_zero(self, tmp_path):
        graph = tmp_path / "ref.txt"
        graph.write_text(WORKED_EDGELIST)
        stats = tmp_path / "stats.json"
        assert run(["decompose", "--graph", str(graph), "--solver", "sdp",
                    "--stats", str(stats)]) == 0
        doc = json.loads(stats.read_text())
        assert doc["objective"] == 0.0
        assert doc["cn"] == 0 and doc["st"] == 0
        assert doc["SE"] == 1 and doc["CE"] == 7

    def test_stats_field_names(self, tmp_path):
        graph = tmp_path / "tri.txt"
        graph.write_text(TRIANGLE_EDGELIST)
        stats = tmp_path / "stats.json"
        run(["decompose", "--graph", str(graph), "--stats", str(stats)])
        doc = json.loads(stats.read_text())
        assert list(doc) == ["components", "SE", "CE", "st", "cn", "objective",
                             "proven_optimal", "wall_s", "solver", "un3colorable_witnesses"]
        assert doc["proven_optimal"] is True

    def test_missing_input_exit_2(self, tmp_path):
        assert run(["decompose", "--input", str(tmp_path / "nope.json")]) == 2

    def test_unknown_flag_exit_1(self, tmp_path):
        assert run(["decompose", "--frobnicate", "1"]) == 1

    def test_both_inputs_exit_1(self, tmp_path):
        graph = tmp_path / "g.txt"
        graph.write_text(TRIANGLE_EDGELIST)
        assert run(["decompose", "--graph", str(graph), "--input", str(graph)]) == 1

    def test_no_input_exit_1(self):
        assert run(["decompose"]) == 1

    def test_svg_requires_layout(self, tmp_path):
        graph = tmp_path / "g.txt"
        graph.write_text(TRIANGLE_EDGELIST)
        assert run(["decompose", "--graph", str(graph), "--svg", str(tmp_path / "x.svg")]) == 2

    @pytest.mark.parametrize("min_s", ["nan", "-3"])
    def test_min_s_requires_layout(self, tmp_path, capsys, min_s):
        graph = tmp_path / "g.txt"
        graph.write_text(TRIANGLE_EDGELIST)
        assert run(["decompose", "--graph", str(graph), "--min-s", min_s]) == 2
        assert "--min-s needs a layout" in capsys.readouterr().err

    def test_degenerate_layout_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"shapes": [{"id": 0, "rect": [0, 0, 0, 10]}]}))
        assert run(["decompose", "--input", str(bad)]) == 2

    @pytest.mark.parametrize("doc", [
        {"shapes": [{"id": 1, "rect": 5}]},
        {"shapes": [{"id": 1, "rect": None}]},
        {"shapes": 5},
        {"shapes": [{"id": 0, "rect": [0, 0, 10**20, 10]}]},
        {"shapes": [{"id": 0, "rect": [-(2**61), 0, 10, 10]}]},
        {"params": {"min_s": 2**40}, "shapes": [{"id": 0, "rect": [0, 0, 10, 10]}]},
    ])
    def test_malformed_layout_exit_2(self, tmp_path, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run(["decompose", "--input", str(bad)]) == 2

    @pytest.mark.parametrize("name", ["alpha", "min_s", "overlap_margin", "min_width",
                                      "min_spacing"])
    @pytest.mark.parametrize("value", ['"x"', "NaN", "Infinity", "-Infinity", "null", "true",
                                       "[1]"])
    def test_bad_process_param_exit_2(self, tmp_path, name, value):
        bad = tmp_path / "bad.json"
        bad.write_text(f'{{"params": {{"{name}": {value}}}, '
                       '"shapes": [{"id": 0, "rect": [0, 0, 10, 10]}]}')
        assert run(["decompose", "--input", str(bad)]) == 2

    @pytest.mark.parametrize("sid", [2**63, 2**70, -(2**63) - 1])
    def test_shape_id_beyond_int64_exit_2(self, tmp_path, capsys, sid):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"shapes": [{"id": sid, "rect": [0, 0, 50, 10]},
                                              {"id": 1, "rect": [0, 40, 50, 50]}]}))
        assert run(["decompose", "--input", str(bad)]) == 2
        assert f"shape {sid}: id must lie within" in capsys.readouterr().err

    @pytest.mark.parametrize("sid", [2**63 - 1, -(2**63)])
    def test_shape_id_at_int64_limit_exit_0(self, tmp_path, sid):
        path = tmp_path / "edge.json"
        out = tmp_path / "out.json"
        path.write_text(json.dumps({"shapes": [{"id": sid, "rect": [0, 0, 50, 10]},
                                               {"id": 1, "rect": [0, 40, 50, 50]}]}))
        assert run(["decompose", "--input", str(path), "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["masks"]) == 2

    def test_params_not_an_object_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"params": [1], "shapes": []}')
        assert run(["decompose", "--input", str(bad)]) == 2

    def test_layout_to_assignment_and_svg(self, tmp_path):
        layout_path = tmp_path / "layout.json"
        run(["gen", "--shapes", "12", "--density", "2", "--seed", "3",
             "--out", str(layout_path)])
        out = tmp_path / "out.json"
        svg = tmp_path / "out.svg"
        stats = tmp_path / "stats.json"
        code = run(["decompose", "--input", str(layout_path), "--solver", "exact",
                    "--out", str(out), "--svg", str(svg), "--stats", str(stats)])
        assert code == 0
        doc = json.loads(out.read_text())
        layout = load_layout(layout_path)
        # re-derive the decomposition graph the way the pipeline builds it:
        # only shapes surviving the low-degree peel get split
        from trimask.reductions import peel_low_degree

        lg = build_layout_graph(layout)
        residual, _ = peel_low_degree(lg)
        dg = project_and_split(layout, lg, split_nodes=residual.nodes)
        assert set(doc["masks"]) == {str(s.id) for s in dg.segments}
        # stats counts must agree with re-evaluating the emitted assignment
        colors = {int(k): v for k, v in doc["masks"].items()}
        again = evaluate(dg, colors, layout.params.alpha)
        stats_doc = json.loads(stats.read_text())
        assert stats_doc["cn"] == again.conflict_count
        assert stats_doc["st"] == again.stitch_count

    def test_dump_lp_and_x(self, tmp_path):
        graph = tmp_path / "tri.txt"
        graph.write_text(TRIANGLE_EDGELIST)
        lp = tmp_path / "model.lp"
        xcsv = tmp_path / "x.csv"
        assert run(["decompose", "--graph", str(graph), "--dump-lp", str(lp),
                    "--dump-x", str(xcsv)]) == 0
        assert lp.read_text().startswith("Minimize")
        rows = xcsv.read_text().strip().split("\n")
        assert len(rows) == 3 and len(rows[0].split(",")) == 3

    def test_seed_changes_nothing_but_is_accepted(self, tmp_path):
        graph = tmp_path / "tri.txt"
        graph.write_text(TRIANGLE_EDGELIST)
        assert run(["decompose", "--graph", str(graph), "--seed", "99"]) == 0

    def test_alpha_override_scales_stitches(self, tmp_path):
        # forced stitch: two nodes tied by SE but driven apart by conflicts
        graph = tmp_path / "stitchy.txt"
        graph.write_text("5\nC 0 2\nC 0 3\nC 1 2\nC 1 3\nC 2 3\nC 0 4\nC 1 4\nS 0 1\n")
        objectives = {}
        for alpha in ("0.1", "0.5"):
            stats = tmp_path / f"stats_{alpha}.json"
            assert run(["decompose", "--graph", str(graph), "--solver", "exact",
                        "--alpha", alpha, "--stats", str(stats)]) == 0
            objectives[alpha] = json.loads(stats.read_text())["objective"]
        assert objectives["0.5"] >= objectives["0.1"]

    @pytest.mark.parametrize("source", ["--graph", "--input"])
    @pytest.mark.parametrize("alpha", ["0", "-1", "inf", "nan"])
    def test_bad_alpha_exit_2(self, tmp_path, source, alpha):
        path = tmp_path / "in.txt"
        if source == "--graph":
            path.write_text(WORKED_EDGELIST)
        else:
            assert run(["gen", "--shapes", "30", "--density", "6", "--seed", "1",
                        "--out", str(path)]) == 0
        stats = tmp_path / "stats.json"
        assert run(["decompose", source, str(path), "--alpha", alpha,
                    "--stats", str(stats)]) == 2
        assert not stats.exists()

    @pytest.mark.parametrize("text", ["", "x\n", "3\nX 0 1\n", "2\nC 0 5\n", "2\nC 0 x\n",
                                      "2\nC 1 1\n", "2\nC 0 1\nS 0 1\n"])
    def test_bad_edgelist_exit_2(self, tmp_path, text):
        graph = tmp_path / "bad.txt"
        graph.write_text(text)
        assert run(["decompose", "--graph", str(graph)]) == 2

    def test_negative_node_count_exit_2(self, tmp_path, capsys):
        graph = tmp_path / "bad.txt"
        graph.write_text("-1\n")
        stats = tmp_path / "stats.json"
        assert run(["decompose", "--graph", str(graph), "--stats", str(stats)]) == 2
        assert "negative node count" in capsys.readouterr().err
        assert not stats.exists()

    @pytest.mark.parametrize("source", ["--graph", "--input"])
    def test_tiny_alpha_exit_0(self, tmp_path, source):
        # alpha 1e-300 is the fraction 1/10**300: the draws' exact costs
        # exceed int64 and must still be scored and compared
        path = tmp_path / "in.txt"
        if source == "--graph":
            path.write_text(WORKED_EDGELIST)
            extra = ["--solver", "sdp"]
        else:
            assert run(["gen", "--shapes", "100", "--density", "6", "--seed", "1",
                        "--out", str(path)]) == 0
            extra = []
        stats = tmp_path / "stats.json"
        assert run(["decompose", source, str(path), "--alpha", "1e-300",
                    "--stats", str(stats), *extra]) == 0
        doc = json.loads(stats.read_text())
        assert doc["objective"] >= doc["cn"]

    @pytest.mark.parametrize("source", ["--graph", "--input"])
    def test_value_error_inside_pipeline_exit_3(self, tmp_path, monkeypatch, capsys, source):
        # past input validation a ValueError is a bug, not bad input
        path = tmp_path / "in.txt"
        if source == "--graph":
            path.write_text(WORKED_EDGELIST)
        else:
            assert run(["gen", "--shapes", "30", "--density", "6", "--seed", "1",
                        "--out", str(path)]) == 0

        def broken(*args, **kwargs):
            raise ValueError("stage bug")

        monkeypatch.setattr("trimask.pipeline.evaluate", broken)
        assert run(["decompose", source, str(path)]) == 3
        assert "internal error: stage bug" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["--graph", "--input"])
    @pytest.mark.parametrize("data", [b"\xff\xfe", b"[" * 100_000 + b"]" * 100_000],
                             ids=["not-utf8", "deep-nesting"])
    def test_unreadable_file_exit_2(self, tmp_path, capsys, source, data):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        assert run(["decompose", source, str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("source", ["--graph", "--input"])
    @pytest.mark.parametrize("seed", ["-5", "-1"])
    def test_bad_seed_exit_2(self, tmp_path, capsys, source, seed):
        path = tmp_path / "in.txt"
        if source == "--graph":
            path.write_text(WORKED_EDGELIST)
        else:
            assert run(["gen", "--shapes", "40", "--density", "6", "--seed", "1",
                        "--out", str(path)]) == 0
        out = tmp_path / "out.json"
        assert run(["decompose", source, str(path), "--seed", seed, "--out", str(out)]) == 2
        assert "seed must be a non-negative integer" in capsys.readouterr().err
        assert not out.exists()

    def test_real_min_s(self, tmp_path):
        # a gap of 85 nm conflicts at min_s 85.5 but not at 85
        doc = {"shapes": [{"id": 0, "rect": [0, 0, 50, 50]},
                          {"id": 1, "rect": [135, 0, 185, 50]}]}
        layout = tmp_path / "pair.json"
        layout.write_text(json.dumps(doc))
        edges = {}
        for min_s in ("85", "85.5"):
            stats = tmp_path / f"stats_{min_s}.json"
            assert run(["decompose", "--input", str(layout), "--min-s", min_s,
                        "--stats", str(stats)]) == 0
            edges[min_s] = json.loads(stats.read_text())["CE"]
        assert edges == {"85": 0, "85.5": 1}

    @pytest.mark.parametrize("min_s", ["nan", "inf", "-85.5", "30", "2e9"])
    def test_bad_min_s_exit_2(self, tmp_path, min_s):
        layout = tmp_path / "layout.json"
        assert run(["gen", "--shapes", "12", "--density", "2", "--seed", "3",
                    "--out", str(layout)]) == 0
        assert run(["decompose", "--input", str(layout), "--min-s", min_s]) == 2

    def test_integral_min_s_matches_the_layout_value(self, tmp_path):
        layout = tmp_path / "layout.json"
        assert run(["gen", "--shapes", "40", "--density", "6", "--seed", "1",
                    "--out", str(layout)]) == 0
        outs = []
        for extra in ([], ["--min-s", "85"]):
            out = tmp_path / f"out{len(outs)}.json"
            assert run(["decompose", "--input", str(layout), "--out", str(out), *extra]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_min_s_override_adds_edges(self, tmp_path):
        doc = {"shapes": [{"id": 0, "rect": [0, 0, 50, 50]},
                          {"id": 1, "rect": [150, 0, 200, 50]}]}
        layout = tmp_path / "pair.json"
        layout.write_text(json.dumps(doc))
        for min_s, expected_ce in ((85, 0), (120, 1)):
            stats = tmp_path / f"stats_{min_s}.json"
            assert run(["decompose", "--input", str(layout), "--min-s", str(min_s),
                        "--stats", str(stats)]) == 0
            assert json.loads(stats.read_text())["CE"] == expected_ce


class TestGenCommand:
    def test_round_trip(self, tmp_path):
        out = tmp_path / "layout.json"
        assert run(["gen", "--shapes", "100", "--density", "2", "--seed", "1",
                    "--out", str(out)]) == 0
        layout = load_layout(out)
        assert len(layout.shapes) == 100

    def test_zero_density_edgeless(self, tmp_path):
        out = tmp_path / "flat.json"
        run(["gen", "--shapes", "30", "--density", "0", "--seed", "2", "--out", str(out)])
        lg = build_layout_graph(load_layout(out))
        assert not lg.edges

    def test_dense_forty_has_big_component(self, tmp_path):
        out = tmp_path / "dense.json"
        run(["gen", "--shapes", "40", "--density", "6", "--seed", "4", "--out", str(out)])
        lg = build_layout_graph(load_layout(out))
        assert max(map(len, component_sets(lg.nodes, lg.edges))) >= 10

    def test_infeasible_density_exit_2(self, tmp_path):
        assert run(["gen", "--shapes", "10", "--density", "9", "--seed", "1",
                    "--out", str(tmp_path / "x.json")]) == 2

    @pytest.mark.parametrize("density", ["nan", "inf", "-inf", "-0.5", "8.5"])
    def test_density_outside_0_8_exit_2(self, tmp_path, density):
        out = tmp_path / "x.json"
        assert run(["gen", "--shapes", "10", f"--density={density}", "--seed", "1",
                    "--out", str(out)]) == 2
        assert not out.exists()

    def test_no_shapes_exit_2(self, tmp_path):
        assert run(["gen", "--shapes", "0", "--density", "2", "--seed", "1",
                    "--out", str(tmp_path / "x.json")]) == 2

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["gen", "--shapes", "25", "--density", "4", "--seed", "7", "--out", str(a)])
        run(["gen", "--shapes", "25", "--density", "4", "--seed", "7", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
    def test_benchmark_layouts_keep_their_pins(self, workload):
        # the benchmark refuses to run on layouts whose digests moved
        spec = inputs.WORKLOADS[workload]
        gen_seed, pinned = next(iter(inputs.load_pins()[workload]["main"].items()))
        data = inputs.generate(spec.shapes, spec.density, int(gen_seed))
        assert inputs.digest(data) == pinned


class TestRenderSvg:
    def test_single_shape_single_rect(self):
        layout = generate_layout(1, 0, seed=0)
        result = decompose(layout, DecomposeConfig(solver="exact"))
        svg = render_svg(layout, result.assignment, result.dg)
        # one background plus one segment rect
        assert svg.count("<rect") == 2
        assert svg.count('stroke="red"') == 0

    def test_triangle_three_fills_no_conflicts(self):
        from test_pipeline import TRIANGLE

        result = decompose(TRIANGLE, DecomposeConfig(solver="exact"))
        svg = render_svg(TRIANGLE, result.assignment, result.dg)
        from trimask.cli import MASK_FILLS

        assert all(svg.count(f'fill="{fill}"') == 1 for fill in MASK_FILLS)
        assert svg.count('stroke="red"') == 0

    def test_k4_exactly_one_conflict_line(self):
        from test_pipeline import K4

        result = decompose(K4, DecomposeConfig(solver="exact"))
        svg = render_svg(K4, result.assignment, result.dg)
        assert svg.count('stroke="red"') == 1

    def test_stitch_drawn_dashed(self):
        from test_geometry import wire_fixture

        layout = wire_fixture()
        result = decompose(layout, DecomposeConfig(solver="exact"))
        svg = render_svg(layout, result.assignment, result.dg)
        if result.stitch_count:
            assert "stroke-dasharray" in svg


class TestAssignmentFormat:
    def test_round_trip_masks(self, rng):
        from conftest import random_graph

        dg = random_graph(rng, 7)
        from trimask.pipeline import decompose_graph

        result = decompose_graph(dg, DecomposeConfig(solver="exact"))
        doc = json.loads(format_assignment(result.assignment))
        colors = {int(k): v for k, v in doc["masks"].items()}
        assert colors == result.assignment.colors
        assert [tuple(e) for e in doc["conflicts"]] == sorted(result.assignment.conflicts)
        assert [tuple(e) for e in doc["stitches"]] == sorted(result.assignment.stitches)

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(
        st.dictionaries(st.integers(-2**40, 2**40), st.integers(0, 2), max_size=12),
        st.frozensets(st.tuples(st.integers(-2**40, 2**40), st.integers(-2**40, 2**40)),
                      max_size=6),
        st.frozensets(st.tuples(st.integers(-2**40, 2**40), st.integers(-2**40, 2**40)),
                      max_size=6),
    )
    @example({}, frozenset(), frozenset())
    @example({-1: 2, 2**31: 0}, frozenset({(-1, 2**31)}), frozenset())
    def test_writes_the_bytes_of_the_json_encoder(self, colors, stitches, conflicts):
        assignment = MaskAssignment(colors, conflicts, stitches, Fraction(1, 10))
        doc = {
            "masks": {str(node): colors[node] for node in sorted(colors)},
            "stitches": [list(e) for e in sorted(stitches)],
            "conflicts": [list(e) for e in sorted(conflicts)],
        }
        assert format_assignment(assignment) == json.dumps(doc, indent=2) + "\n"
