"""Properties of ``decompose`` over small generated layouts: every segment
gets a mask, the reported objective is the one ``evaluate`` scores, and the
result never scores above a greedy coloring polished by single-node moves."""

import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from trimask.cli import generate_layout
from trimask.graphs import evaluate
from trimask.pipeline import DecomposeConfig, decompose

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from checks import greedy_one_opt  # noqa: E402


def check_decompose(layout, cfg):
    result = decompose(layout, cfg)
    dg, asg = result.dg, result.assignment
    assert set(asg.colors) == set(dg.nodes)
    assert set(asg.colors.values()) <= {0, 1, 2}
    scored = evaluate(dg, asg.colors, layout.params.alpha)
    assert result.objective == float(scored.objective)
    assert (result.conflict_count, result.stitch_count) == (
        scored.conflict_count, scored.stitch_count,
    )
    assert scored.objective <= greedy_one_opt(dg.nodes, dg.ce, dg.se, asg.alpha)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(
    st.integers(1, 40),
    st.sampled_from([2, 4, 6]),
    st.integers(0, 2**16),
    st.sampled_from(["auto", "sdp"]),
)
def test_decompose_colors_every_segment_and_beats_greedy(shapes, density, seed, solver):
    cfg = DecomposeConfig(solver=solver, seed=seed)
    check_decompose(generate_layout(shapes, density, seed=seed), cfg)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(st.integers(20, 60), st.sampled_from([4, 6]), st.integers(0, 2**16))
def test_exact_with_unproven_leaves_beats_greedy(shapes, density, seed):
    # a budget of 1000 search nodes leaves most pieces above 25 nodes unproven
    cfg = DecomposeConfig(solver="exact", node_budget=1000, seed=seed)
    check_decompose(generate_layout(shapes, density, seed=seed), cfg)
