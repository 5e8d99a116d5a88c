"""
Reductions that cost nothing
============================

Two graph reductions shrink instances before any solver runs, provably
without changing the reachable optimum: peeling nodes of degree <= 2 (they
can always be recolored last), and cutting bridges (each side solves alone,
then one side's colors rotate to make the bridge edge free).
"""

from trimask import (
    DecompositionGraph,
    LayoutGraph,
    brute_force_optimum,
    connected_components,
    evaluate,
    find_bridges,
    peel_low_degree,
    reinsert_segments,
    solve_exact,
    stitch_and_rotate,
)

# --- peeling ---------------------------------------------------------------
# a 5-cycle: every node has degree 2, so the whole thing dissolves
cycle = LayoutGraph(
    nodes=(0, 1, 2, 3, 4),
    edges=frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}),
)
residual, peeled = peel_low_degree(cycle)
print(f"cycle of 5: residual nodes {residual.nodes}, {len(peeled)} peeled")

dg_cycle = DecompositionGraph.from_edges(5, ce=[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
colors, blocked = reinsert_segments(dg_cycle, peeled, {})
print("greedy reinsertion colors:", colors, "blocked shapes:", sorted(blocked))
print("conflicts after reinsertion:", evaluate(dg_cycle, colors, 0.1).conflict_count)

# --- bridges ---------------------------------------------------------------
# two triangles joined by one edge: the joint is a bridge
dg = DecompositionGraph.from_edges(
    6, ce=[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
)
cut = find_bridges(dg)[0]
pruned = DecompositionGraph(
    dg.ids, dg.parents, dg.rects, dg.ce - {cut.bridge}, dg.se - {cut.bridge}
)
left_side, right_side = connected_components(pruned)
print(f"\nbridge found: {cut.bridge} ({cut.edge_kind}), "
      f"sides {list(left_side.nodes)} / {list(right_side.nodes)}")

left = solve_exact(left_side, 0.1).assignment.colors
right = solve_exact(right_side, 0.1).assignment.colors
print("sides solved independently:", left, right)

merged = stitch_and_rotate(cut, left, right)
whole = evaluate(dg, merged, 0.1)
oracle = brute_force_optimum(dg, 0.1)
print(f"merged objective {float(whole.objective):.1f} == "
      f"whole-graph optimum {float(oracle.objective):.1f}")
