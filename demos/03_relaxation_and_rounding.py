"""
The relaxation on a five-node instance
======================================

A 5-node graph with 7 conflict edges and 1 stitch edge. The relaxation
assigns every node a unit vector; pairs pushed to dot product 1 belong on
one mask, pairs at -1/2 on different masks. Rounding the vectors
recovers a conflict-free 3-mask assignment that keeps the stitched pair
together.
"""

import numpy as np

from trimask import (
    DecompositionGraph,
    brute_force_optimum,
    build_cost_matrix,
    map_to_masks,
    solve_relaxation,
)

ce = [(1, 2), (1, 3), (1, 5), (2, 3), (2, 5), (3, 4), (4, 5)]
dg = DecompositionGraph.from_edges([1, 2, 3, 4, 5], ce=ce, se=[(1, 4)])

cost = build_cost_matrix(dg, alpha=0.1)
print("edge pairs and their weights (1 = conflict pair, -0.1 = stitch pair):")
for pairs, weight in ((cost.ce, 1.0), (cost.se, -float(cost.alpha))):
    for a, b in pairs.tolist():
        print(f"  {cost.index[a]} - {cost.index[b]}: {weight:g}")

sol = solve_relaxation(cost)
np.set_printoptions(precision=3, suppress=True)
print("\nGram matrix of the optimized vectors:")
print(sol.v @ sol.v.T)
print(f"converged: {sol.converged}  relaxation value: {sol.obj_relaxation:.2e}")

assignment = map_to_masks(sol)
groups = {}
for node, mask in sorted(assignment.colors.items()):
    groups.setdefault(mask, []).append(node)
print("\nmask groups after rounding:", sorted(groups.values()))
print(f"conflicts: {assignment.conflict_count}, stitches: {assignment.stitch_count}")

# the relaxation value can never exceed the true optimum
opt = brute_force_optimum(dg, 0.1)
print(f"\nexhaustive optimum: {float(opt.objective):.1f} "
      f">= relaxation value {sol.obj_relaxation:.2e}")
