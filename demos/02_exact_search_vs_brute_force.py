"""
Exact solver against the exhaustive oracle
==========================================

The exact solver must reproduce exhaustive enumeration exactly. It
eliminates the nodes along a min-fill order and falls back to a branch and
bound when that order is too wide. This script races both methods and
enumeration on random graphs, names the method that ``solve_exact`` ran,
and shows the 0-1 model view of a solution.
"""

import time

import numpy as np

from trimask import (
    DecompositionGraph,
    brute_force_optimum,
    build_ilp,
    check_encoding,
    encode_coloring,
    solve_exact,
)
from trimask.ilp import branch_and_bound

# what nodes_explored counts for each method
WORK_UNIT = {"elimination": "table entries", "branch_and_bound": "search nodes"}

rng = np.random.default_rng(7)
total_exact = total_bnb = total_bf = 0.0
for trial in range(20):
    n = int(rng.integers(6, 13))
    ce, se = [], []
    for i in range(n):
        for j in range(i + 1, n):
            r = rng.random()
            if r < 0.3:
                ce.append((i, j))
            elif r < 0.4:
                se.append((i, j))
    dg = DecompositionGraph.from_edges(n, ce=ce, se=se)

    t0 = time.perf_counter()
    report = solve_exact(dg, 0.1)
    total_exact += time.perf_counter() - t0

    t0 = time.perf_counter()
    searched = branch_and_bound(dg, 0.1)
    total_bnb += time.perf_counter() - t0

    t0 = time.perf_counter()
    oracle = brute_force_optimum(dg, 0.1)
    total_bf += time.perf_counter() - t0

    assert report.assignment.objective == searched.assignment.objective == oracle.objective
    print(
        f"n={n:2d} |CE|={len(ce):2d} |SE|={len(se):2d}  "
        f"optimum={float(oracle.objective):.1f}  "
        f"{report.method}: {report.nodes_explored} {WORK_UNIT[report.method]}, "
        f"branch and bound: {searched.nodes_explored} search nodes"
    )

print(
    f"\nsolve_exact: {total_exact:.3f}s, branch and bound: {total_bnb:.3f}s, "
    f"exhaustive enumeration: {total_bf:.2f}s"
)

# the 0-1 model is the specification of record for the solvers: any solution
# must check out feasible with matching objective
dg = DecompositionGraph.from_edges(4, ce=[(0, 1), (1, 2), (2, 3)], se=[(0, 3)])
model = build_ilp(dg, 0.1)
colors = solve_exact(dg, 0.1).assignment.colors
verdict = check_encoding(model, encode_coloring(model, colors))
print(f"\nmodel check: feasible={verdict.feasible}, objective={verdict.objective}")
