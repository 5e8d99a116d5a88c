"""
Exact solver against the exhaustive oracle
==========================================

The exact solver must reproduce exhaustive enumeration exactly. It
eliminates the nodes along a min-fill order, and returns None for an order
whose tables would pass the elimination budget (the pipeline then relaxes
that piece). This script
races elimination against enumeration on random graphs, reports the table
entries each elimination filled, and shows the 0-1 model view of a solution.
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

rng = np.random.default_rng(7)
total_exact = total_bf = 0.0
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
    oracle = brute_force_optimum(dg, 0.1)
    total_bf += time.perf_counter() - t0

    assert report.proven_optimal and report.assignment.objective == oracle.objective
    print(
        f"n={n:2d} |CE|={len(ce):2d} |SE|={len(se):2d}  "
        f"optimum={float(oracle.objective):.1f}  "
        f"elimination: {report.nodes_explored} table entries"
    )

print(f"\nelimination: {total_exact:.3f}s, exhaustive enumeration: {total_bf:.2f}s")

# the 0-1 model is the specification of record for the solvers: any solution
# must check out feasible with matching objective
dg = DecompositionGraph.from_edges(4, ce=[(0, 1), (1, 2), (2, 3)], se=[(0, 3)])
model = build_ilp(dg, 0.1)
colors = solve_exact(dg, 0.1).assignment.colors
verdict = check_encoding(model, encode_coloring(model, colors))
print(f"\nmodel check: feasible={verdict.feasible}, objective={verdict.objective}")
