"""Tests for the benchmark's own code: the output check, the input digests
and the span arithmetic. Run with ``PYTHONPATH=src python -m pytest perfbench``."""

import json
from dataclasses import replace
from fractions import Fraction

import pytest

import inputs
from checks import check_output, geometric_pairs, greedy_one_opt
from spans import self_times
from trimask.cli import format_assignment, format_stats, generate_layout
from trimask.pipeline import DecomposeConfig, decompose


def decomposed(layout):
    result = decompose(layout, DecomposeConfig(solver="auto", seed=42))
    segments = [(s.id, s.parent, s.rect) for s in result.dg.segments]
    return result, segments, format_assignment(result.assignment), format_stats(result)


def check(doc, segments, assignment, stats):
    pairs = geometric_pairs(segments, doc["params"]["min_s"])
    return check_output(doc, segments, pairs, assignment, stats)


def test_check_accepts_the_program_output_and_matches_its_graph():
    layout = generate_layout(40, 6, seed=1)
    doc = json.loads(inputs.layout_bytes(layout))
    result, segments, assignment, stats = decomposed(layout)
    assert check(doc, segments, assignment, stats) == []
    ce, se = geometric_pairs(segments, layout.params.min_s)
    assert (ce, se) == (set(result.dg.ce), set(result.dg.se))


def test_check_rejects_a_mask_flipped_onto_a_conflicting_neighbor():
    layout = generate_layout(40, 6, seed=1)
    doc = json.loads(inputs.layout_bytes(layout))
    result, segments, assignment, stats = decomposed(layout)
    masks = result.assignment.colors
    u, v = next((u, v) for u, v in sorted(result.dg.ce) if masks[u] != masks[v])
    edited = json.loads(assignment)
    edited["masks"][str(v)] = masks[u]
    problems = check(doc, segments, json.dumps(edited), stats)
    assert any("conflicts differ" in p for p in problems)


def test_check_rejects_a_segment_that_leaves_part_of_its_shape_uncovered():
    layout = generate_layout(40, 6, seed=1)
    doc = json.loads(inputs.layout_bytes(layout))
    _, segments, assignment, stats = decomposed(layout)
    seg_id, parent, (x0, y0, x1, y1) = segments[0]
    segments[0] = (seg_id, parent, (x0, y0, x1 - 1, y1))
    problems = check(doc, segments, assignment, stats)
    assert any("not exactly covered" in p for p in problems)


def test_digest_check_rejects_an_edited_input(tmp_path):
    instances = inputs.prepare("clips", 1, tmp_path)
    inputs.verify(instances)
    path = tmp_path / "edited.json"
    doc = json.loads(open(instances[0].path).read())
    doc["shapes"][0]["rect"][2] += 1
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
    edited = replace(instances[0], path=str(path))
    with pytest.raises(inputs.DigestMismatch):
        inputs.verify([edited])


def test_digest_check_rejects_a_changed_generator(tmp_path, monkeypatch):
    real = inputs.generate
    monkeypatch.setattr(inputs, "generate", lambda n, d, s: real(n, d, s + 1))
    with pytest.raises(inputs.DigestMismatch):
        inputs.prepare("clips", 1, tmp_path)


def test_held_out_seeds_never_share_a_layout_with_tuning_seeds():
    pins = inputs.load_pins()
    tuning = {i.gen_seed for seed in range(50) for i in inputs.select("dense", seed, pins)}
    held = {i.gen_seed for seed in range(1000, 1050) for i in inputs.select("dense", seed, pins)}
    assert tuning and held and not tuning & held


def test_self_time_subtracts_children():
    spans = [
        {"name": "decompose", "parent": None, "start": 0.0, "end": 10.0},
        {"name": "solve_relaxation", "parent": 0, "start": 1.0, "end": 7.0},
        {"name": "evaluate", "parent": 0, "start": 8.0, "end": 9.0},
    ]
    assert self_times(spans) == [3.0, 6.0, 1.0]


def test_greedy_one_opt_colors_a_triangle_and_k4():
    triangle = [(0, 1), (1, 2), (0, 2)]
    assert greedy_one_opt(range(3), triangle, [], Fraction(1, 10)) == 0
    k4 = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    assert greedy_one_opt(range(4), k4, [], Fraction(1, 10)) == 1


def test_layer_checks_fail_when_a_workload_misses_its_layer():
    from run import layer_checks

    sparse = {"pipeline.decompose_s": 1.0, "geometry.load_s": 0.2,
              "geometry.layout_graph_s": 0.8, "geometry.split_s": 0.0,
              "ilp.calls": 0, "sdp.relax_calls": 1}
    assert [ok for _, ok in layer_checks("sparse", sparse)] == [True, False]
    clips = {"pipeline.decompose_s": 1.0, "ilp.calls": 180, "sdp.relax_calls": 0}
    assert [ok for _, ok in layer_checks("clips", clips)] == [False]
