"""
End-to-end decomposition of a synthetic benchmark
=================================================

Generate a dense synthetic layout, run both solver pipelines on it, and
write the artifacts a batch run would produce: assignment JSON, stats JSON,
and an SVG rendering (colored segments, red conflict markers, dashed
stitch markers).
"""

from pathlib import Path

from trimask import DecomposeConfig, decompose
from trimask.cli import format_assignment, format_stats, generate_layout, render_svg

out_dir = Path(__file__).resolve().parent / "output"
out_dir.mkdir(exist_ok=True)

layout = generate_layout(shapes=40, density=6.0, seed=5)
print(f"generated {len(layout.shapes)} wires")

result = decompose(layout, DecomposeConfig(solver="auto", seed=42))
print(f"components: {result.components}, peeled shapes: {result.peeled}")
print(f"conflicts: {result.conflict_count}, stitches: {result.stitch_count}, "
      f"objective: {result.objective:.2f}")
for report in result.per_component:
    print(f"  component at node {report.component}: size {report.size}, "
          f"solved with {report.solver}, bridges cut {report.bridges_cut}")

(out_dir / "assignment.json").write_text(format_assignment(result.assignment))
(out_dir / "stats.json").write_text(format_stats(result))
(out_dir / "render.svg").write_text(render_svg(layout, result.assignment, result.dg))
print(f"\nwrote assignment.json, stats.json, render.svg to {out_dir}")

print("\nexact vs relaxation on the same layout:")
runs = {
    solver: decompose(layout, DecomposeConfig(solver=solver))
    for solver in ("exact", "sdp")
}
for solver, run in runs.items():
    print(f"  {solver:5s}: {run.conflict_count} conflicts, {run.stitch_count} stitches, "
          f"objective {run.objective:.2f}, {run.wall_time:.2f}s")
exact, sdp = runs["exact"], runs["sdp"]
if exact.objective:
    print(f"  objective ratio {sdp.objective / exact.objective:.2f}")
print(f"  speedup {exact.wall_time / max(sdp.wall_time, 1e-12):.1f}x")
