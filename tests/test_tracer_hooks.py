"""The benchmark's tracer patches functions by name on ``trimask.pipeline``;
a renamed or inlined call would silently zero its per-layer metric."""

import sys
from pathlib import Path

import numpy as np

import trimask.pipeline
from conftest import random_graph
from trimask.cli import generate_layout
from trimask.graphs import DecompositionGraph, connected_components
from trimask.pipeline import DecomposeConfig
from trimask.reductions import find_bridges

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402


def traced_names(run) -> set[str]:
    tracer = spans.Tracer()
    with tracer.patched(trimask.pipeline):
        run()
    return {span["name"] for span in tracer.spans}


def test_every_traced_name_is_looked_up_on_the_pipeline():
    missing = [name for name in spans.PIPELINE_CALLS if not hasattr(trimask.pipeline, name)]
    assert missing == []


def test_traced_layout_records_each_layer():
    layout = generate_layout(20, 6, seed=1)
    names = traced_names(lambda: trimask.pipeline.decompose(layout, DecomposeConfig()))
    for name in ("connected_components", "propagate_and_check", "find_bridges",
                 "evaluate", "solve_exact"):
        assert name in names


def test_traced_bridge_records_rotation():
    dg = DecompositionGraph.from_edges(
        6, ce=[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
    )
    names = traced_names(lambda: trimask.pipeline.decompose_graph(dg, DecomposeConfig()))
    assert "stitch_and_rotate" in names


def test_traced_relaxation_records_the_rounding():
    # the dense layer check sums the self time of these two spans
    dg = DecompositionGraph.from_edges(4, ce=[(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    names = traced_names(
        lambda: trimask.pipeline.decompose_graph(dg, DecomposeConfig(solver="sdp"))
    )
    assert {"solve_relaxation", "map_to_masks"} <= names


def test_traced_relaxation_records_size_and_convergence():
    # the benchmark's sdp metrics read n and converged from these two spans,
    # through the records' .index and .converged
    dg = random_graph(np.random.default_rng(1), 20, 0.3, 0.1)
    assert len(connected_components(dg)) == 1 and not find_bridges(dg)
    tracer = spans.Tracer()
    with tracer.patched(trimask.pipeline):
        trimask.pipeline.decompose_graph(dg, DecomposeConfig(solver="sdp"))
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span["name"], []).append(span)
    (built,) = by_name["build_cost_matrix"]
    (relaxed,) = by_name["solve_relaxation"]
    assert built["n"] == relaxed["n"] == 20
    assert isinstance(relaxed["converged"], bool)


def test_traced_layout_records_graph_sizes_and_peeled_count():
    # the sparse layer check reads these counts from the geometry and peel spans
    layout = generate_layout(40, 6, seed=1)
    tracer = spans.Tracer()
    with tracer.patched(trimask.pipeline):
        result = trimask.pipeline.decompose(layout, DecomposeConfig())
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span["name"], []).append(span)
    (built,) = by_name["build_layout_graph"]
    (peeled,) = by_name["peel_low_degree"]
    (split,) = by_name["project_and_split"]
    assert built["lg_edges"] == len(result.lg.edges)
    assert peeled["peeled"] == result.peeled > 0
    assert split["segments"] == len(result.dg.segments)
    assert split["ce"] == len(result.dg.ce)
    assert split["se"] == len(result.dg.se) > 0


def test_one_relaxation_for_two_relaxed_components():
    # two disjoint dense blocks above the exact search's size: each is
    # built as its own leaf, and both relax in one call
    block = random_graph(np.random.default_rng(4), 30, 0.5, 0.0)
    dg = DecompositionGraph.from_edges(
        60, ce=[*block.ce, *((u + 30, v + 30) for u, v in block.ce)]
    )
    assert [len(c.nodes) for c in connected_components(dg)] == [30, 30]
    assert not find_bridges(block)
    tracer = spans.Tracer()
    with tracer.patched(trimask.pipeline):
        result = trimask.pipeline.decompose_graph(dg, DecomposeConfig(solver="auto"))
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span["name"], []).append(span)
    assert [span["n"] for span in by_name["build_cost_matrix"]] == [30, 30]
    (relaxed,) = by_name["solve_relaxation"]
    assert relaxed["n"] == 60
    assert len(by_name["map_to_masks"]) == 2
    assert [r.solver for r in result.per_component] == ["sdp", "sdp"]
    assert spans.layer_metrics(tracer.spans)["reductions.largest_piece"] == 30
