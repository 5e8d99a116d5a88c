"""
From rectangles to graphs
=========================

Walk a tiny layout through the first stage of decomposition: the conflict
graph over whole shapes, the projection that finds legal split locations,
and the segment-level graph the solvers actually color.
"""

from trimask import (
    Layout,
    ProcessParams,
    Shape,
    build_layout_graph,
    project_and_split,
    stitch_candidates,
)

# a 200nm wire flanked by two neighbors that each shadow part of its span
layout = Layout(
    shapes=(
        Shape(0, (0, 0, 200, 25)),     # the wire
        Shape(1, (0, -80, 80, -55)),   # covers x in [0, 80]
        Shape(2, (120, 50, 200, 75)),  # covers x in [120, 200]
    ),
    params=ProcessParams(),  # min_s=85, overlap_margin=10, alpha=0.1
)

lg = build_layout_graph(layout)
print("conflict pairs between whole shapes:", sorted(lg.edges))

# the uncovered stretch between the two shadows admits one split point
print("legal split positions, by shape:", stitch_candidates(layout))

dg = project_and_split(layout)
print(f"{len(dg.segments)} segments after splitting:")
for seg in dg.segments:
    print(f"  segment {seg.id} of shape {seg.parent}: {seg.rect}")
print("stitch edges (same shape, touching):", sorted(dg.se))
print("conflict edges (closer than min_s): ", sorted(dg.ce))
