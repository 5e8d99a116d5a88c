"""Exact minimization: the paper's 0-1 linear model and bucket elimination.

The 0-1 model is the specification of record: each node carries two bits
(the pair (1,1) is forbidden, leaving three codes), auxiliary bit pairs
linearize per-edge equality/inequality tests, and the objective sums
conflict indicators plus alpha times stitch indicators. The bit model is
kept for verification and for export to external LP solvers.

The solver works on ternary node colors with integer costs. ``solve_exact``
eliminates the nodes along a min-fill order, which proves the optimum in
3^(w + 1) table entries per node for an order of width w. Layout pieces have
small width (4-8 on the benchmark's clips, 7-9 on the 110-300-node pieces
of density-6 layouts). An order wider than ``ELIMINATION_WIDTH``, or one
whose tables exceed the budget, is not run: ``solve_exact`` returns None,
and the pipeline relaxes that piece instead.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import (
    DecompositionGraph,
    MaskAssignment,
    Pair,
    as_fraction,
    evaluate,
)

# color code -> (first bit, second bit); (1,1) is never used
COLOR_BITS = {0: (0, 0), 1: (0, 1), 2: (1, 0)}
BITS_COLOR = {bits: color for color, bits in COLOR_BITS.items()}


@dataclass(frozen=True)
class LinearConstraint:
    """Canonical form: sum(coeff * var) <= rhs with integer coefficients."""

    name: str
    coeffs: dict[str, int]
    rhs: int

    def violated_by(self, bits: dict[str, int]) -> bool:
        return sum(c * bits[v] for v, c in self.coeffs.items()) > self.rhs


@dataclass(frozen=True)
class IlpModel:
    variables: tuple[str, ...]
    constraints: tuple[LinearConstraint, ...]
    objective: dict[str, Fraction]
    alpha: Fraction
    nodes: tuple[int, ...]
    ce: tuple[Pair, ...]
    se: tuple[Pair, ...]


def _x(i: int, bit: int) -> str:
    return f"x{i}_{bit}"


def _c(i: int, j: int, bit: int | None = None) -> str:
    return f"c{i}_{j}" if bit is None else f"c{i}_{j}_{bit}"


def _s(i: int, j: int, bit: int | None = None) -> str:
    return f"s{i}_{j}" if bit is None else f"s{i}_{j}_{bit}"


def build_ilp(dg: DecompositionGraph, alpha) -> IlpModel:
    """Assemble the 0-1 model: one color-cap row per node, five rows per
    conflict edge, six per stitch edge (the final or-constraint splits in two)."""
    frac = as_fraction(alpha)
    nodes = dg.nodes
    ce = tuple(sorted(dg.ce))
    se = tuple(sorted(dg.se))

    variables: list[str] = []
    constraints: list[LinearConstraint] = []
    objective: dict[str, Fraction] = {}

    for i in nodes:
        variables += [_x(i, 1), _x(i, 2)]
        constraints.append(
            LinearConstraint(f"color_cap[{i}]", {_x(i, 1): 1, _x(i, 2): 1}, 1)
        )

    for i, j in ce:
        variables += [_c(i, j, 1), _c(i, j, 2), _c(i, j)]
        objective[_c(i, j)] = Fraction(1)
        constraints += [
            LinearConstraint(
                f"conflict_bit1_hi[{i},{j}]",
                {_x(i, 1): 1, _x(j, 1): 1, _c(i, j, 1): -1},
                1,
            ),
            LinearConstraint(
                f"conflict_bit1_lo[{i},{j}]",
                {_x(i, 1): -1, _x(j, 1): -1, _c(i, j, 1): -1},
                -1,
            ),
            LinearConstraint(
                f"conflict_bit2_hi[{i},{j}]",
                {_x(i, 2): 1, _x(j, 2): 1, _c(i, j, 2): -1},
                1,
            ),
            LinearConstraint(
                f"conflict_bit2_lo[{i},{j}]",
                {_x(i, 2): -1, _x(j, 2): -1, _c(i, j, 2): -1},
                -1,
            ),
            LinearConstraint(
                f"conflict_and[{i},{j}]",
                {_c(i, j, 1): 1, _c(i, j, 2): 1, _c(i, j): -1},
                1,
            ),
        ]

    for i, j in se:
        variables += [_s(i, j, 1), _s(i, j, 2), _s(i, j)]
        objective[_s(i, j)] = frac
        constraints += [
            LinearConstraint(
                f"stitch_bit1_pos[{i},{j}]",
                {_x(i, 1): 1, _x(j, 1): -1, _s(i, j, 1): -1},
                0,
            ),
            LinearConstraint(
                f"stitch_bit1_neg[{i},{j}]",
                {_x(j, 1): 1, _x(i, 1): -1, _s(i, j, 1): -1},
                0,
            ),
            LinearConstraint(
                f"stitch_bit2_pos[{i},{j}]",
                {_x(i, 2): 1, _x(j, 2): -1, _s(i, j, 2): -1},
                0,
            ),
            LinearConstraint(
                f"stitch_bit2_neg[{i},{j}]",
                {_x(j, 2): 1, _x(i, 2): -1, _s(i, j, 2): -1},
                0,
            ),
            LinearConstraint(
                f"stitch_or_1[{i},{j}]", {_s(i, j, 1): 1, _s(i, j): -1}, 0
            ),
            LinearConstraint(
                f"stitch_or_2[{i},{j}]", {_s(i, j, 2): 1, _s(i, j): -1}, 0
            ),
        ]

    return IlpModel(
        variables=tuple(variables),
        constraints=tuple(constraints),
        objective=objective,
        alpha=frac,
        nodes=nodes,
        ce=ce,
        se=se,
    )


def encode_coloring(model: IlpModel, colors: dict[int, int]) -> dict[str, int]:
    """Tight 0-1 encoding of a coloring: every auxiliary variable takes its
    minimal feasible value, so the encoded objective equals the true cost."""
    bits: dict[str, int] = {}
    for i in model.nodes:
        b1, b2 = COLOR_BITS[colors[i]]
        bits[_x(i, 1)] = b1
        bits[_x(i, 2)] = b2
    for i, j in model.ce:
        c1 = int(bits[_x(i, 1)] == bits[_x(j, 1)])
        c2 = int(bits[_x(i, 2)] == bits[_x(j, 2)])
        bits[_c(i, j, 1)] = c1
        bits[_c(i, j, 2)] = c2
        bits[_c(i, j)] = max(0, c1 + c2 - 1)
    for i, j in model.se:
        s1 = abs(bits[_x(i, 1)] - bits[_x(j, 1)])
        s2 = abs(bits[_x(i, 2)] - bits[_x(j, 2)])
        bits[_s(i, j, 1)] = s1
        bits[_s(i, j, 2)] = s2
        bits[_s(i, j)] = max(s1, s2)
    return bits


def decode_bits(model: IlpModel, bits: dict[str, int]) -> dict[int, int]:
    """Colors from the node bit variables, e.g. of an externally solved model."""
    return {i: BITS_COLOR[(bits[_x(i, 1)], bits[_x(i, 2)])] for i in model.nodes}


@dataclass(frozen=True)
class EncodingCheck:
    feasible: bool
    objective: Fraction | None
    violations: tuple[str, ...]


def check_encoding(model: IlpModel, bits: dict[str, int]) -> EncodingCheck:
    """Verify a full variable assignment against every constraint."""
    for var in model.variables:
        if var not in bits:
            raise ValueError(f"variable {var} is unassigned")
        if bits[var] not in (0, 1):
            raise ValueError(f"variable {var} must be 0/1, got {bits[var]}")
    violations = tuple(c.name for c in model.constraints if c.violated_by(bits))
    if violations:
        return EncodingCheck(feasible=False, objective=None, violations=violations)
    obj = sum((w * bits[v] for v, w in model.objective.items()), Fraction(0))
    return EncodingCheck(feasible=True, objective=obj, violations=())


@dataclass(frozen=True)
class SolveReport:
    assignment: MaskAssignment
    # the table entries of the elimination
    nodes_explored: int
    # always True: elimination proves its optimum
    proven_optimal: bool


# the widest elimination order solve_exact runs: its largest bucket is a
# table of 3^(ELIMINATION_WIDTH + 1) entries
ELIMINATION_WIDTH = 10


def solve_exact(
    dg: DecompositionGraph, alpha, budget: int = 5_000_000
) -> SolveReport | None:
    """Proven minimum by min-sum bucket elimination along a min-fill order
    (Bertelè & Brioschi 1972; Dechter 1999), or None when the order's width
    passes ``ELIMINATION_WIDTH`` or its tables would pass ``budget``
    entries.

    Costs are integers: ``alpha.denominator`` per conflict,
    ``alpha.numerator`` per stitch. Each edge is a 3 x 3 table in the bucket
    of its end eliminated first. Eliminating a node adds its bucket's tables
    over their joint scope, stores the argmin over the node and passes the
    min on to the bucket of the scope's next node. Every scope is kept in
    elimination order, so a table joins a bucket by ``reshape`` alone.
    Decoding walks the order backwards. ``nodes_explored`` reports the
    entries, 3^(scope size) per bucket.
    """
    plan = _min_fill_order(dg, budget)
    if plan is None:
        return None
    order, scopes, work = plan
    frac = as_fraction(alpha)
    conflict_w, stitch_w = frac.denominator, frac.numerator
    # no table entry exceeds the sum of all edge costs, nor does either
    # weight's own table; sums that could pass int64 (a float alpha can have
    # a denominator of up to 1074 bits) are taken in Python ints
    bound = conflict_w * (len(dg.ce) + 1) + stitch_w * (len(dg.se) + 1)
    dtype = np.int64 if bound < 2**62 else object

    pos = {v: k for k, v in enumerate(order)}
    # per position: the tables in its bucket, each with its scope of positions
    buckets: list[list[tuple[tuple[int, ...], np.ndarray]]] = [[] for _ in order]
    eye = np.eye(3, dtype=dtype)
    for edges, table in ((dg.ce, conflict_w * eye), (dg.se, stitch_w * (1 - eye))):
        for u, v in edges:
            a, b = pos[u], pos[v]
            scope = (a, b) if a < b else (b, a)
            buckets[scope[0]].append((scope, table))

    choices: list[np.ndarray | None] = [None] * len(order)
    for k, scope in enumerate(scopes):
        if not buckets[k]:
            continue  # an isolated node keeps color 0
        total = 0
        for sub, table in buckets[k]:
            total = total + table.reshape([3 if p in sub else 1 for p in scope])
        choices[k] = total.argmin(axis=0).astype(np.int8)
        if len(scope) > 1:
            buckets[scope[1]].append((scope[1:], total.min(axis=0)))

    colors = [0] * len(order)
    for k in range(len(order) - 1, -1, -1):
        if choices[k] is not None:
            colors[k] = int(choices[k][tuple(colors[p] for p in scopes[k][1:])])
    assignment = evaluate(dg, {v: colors[k] for k, v in enumerate(order)}, alpha)
    return SolveReport(assignment, work, True)


def _min_fill_order(
    dg: DecompositionGraph, budget: int
) -> tuple[list[int], list[tuple[int, ...]], int] | None:
    """Greedy min-fill elimination order of ``dg`` (ties by degree, then
    id), with each node's bucket scope as positions in the order, itself
    first, and the elimination's work, the sum of 3^(scope size). None as
    soon as a scope passes ``ELIMINATION_WIDTH`` neighbors or the work
    passes ``budget``.

    A node's fill is C(degree, 2) less ``tri``, the edges among its
    neighbors. Eliminating a node joins its neighbors pairwise, and each new
    edge adds one to ``tri`` of the ends' common neighbors; dropping the node
    then takes degree - 1 from each neighbor's. So only the scores of its
    neighbors and of those common neighbors move.
    """
    nodes = dg.nodes
    index = {v: i for i, v in enumerate(nodes)}
    nbrs: list[set[int]] = [set() for _ in nodes]
    for u, v in dg.edges:
        a, b = index[u], index[v]
        nbrs[a].add(b)
        nbrs[b].add(a)
    tri = [0] * len(nodes)
    for u, v in dg.edges:
        for w in nbrs[index[u]] & nbrs[index[v]]:
            tri[w] += 1

    heap = [(len(nb) * (len(nb) - 1) // 2 - tri[i], len(nb), i) for i, nb in enumerate(nbrs)]
    heapq.heapify(heap)
    done = [False] * len(nodes)
    order: list[int] = []
    neighbors: list[set[int]] = []
    work = 0
    while heap:
        f, d, i = heapq.heappop(heap)
        nb = nbrs[i]
        if done[i] or d != len(nb) or f != d * (d - 1) // 2 - tri[i]:
            continue  # a stale score
        if d > ELIMINATION_WIDTH:
            return None
        work += 3 ** (d + 1)
        if work > budget:
            return None
        done[i] = True
        order.append(i)
        neighbors.append(nb)
        touched = set(nb)
        for a in nb:
            for b in nb - nbrs[a]:
                if b != a:
                    common = nbrs[a] & nbrs[b]
                    for w in common:
                        tri[w] += 1
                    tri[a] += len(common)
                    tri[b] += len(common)
                    nbrs[a].add(b)
                    nbrs[b].add(a)
                    touched |= common
        for a in nb:
            nbrs[a].discard(i)
            tri[a] -= d - 1
        for w in touched:
            if not done[w]:
                degree = len(nbrs[w])
                heapq.heappush(heap, (degree * (degree - 1) // 2 - tri[w], degree, w))
    pos = {i: k for k, i in enumerate(order)}
    scopes = [(k,) + tuple(sorted(pos[a] for a in nb)) for k, nb in enumerate(neighbors)]
    return [nodes[i] for i in order], scopes, work


def write_lp(model: IlpModel) -> str:
    """Serialize the model in LP-format text (minimize, <= rows, binaries)."""
    terms = []
    for var, w in model.objective.items():
        # repr, not a fixed precision: the float of alpha reads back exactly
        coef = float(w)
        terms.append(f"+ {coef!r} {var}" if coef >= 0 else f"- {-coef!r} {var}")
    obj = " ".join(terms) if terms else "0"
    lines = ["Minimize", f" obj: {obj}", "Subject To"]
    for con in model.constraints:
        row = []
        for var, coef in con.coeffs.items():
            row.append(f"+ {coef} {var}" if coef >= 0 else f"- {-coef} {var}")
        name = con.name.replace("[", "_").replace("]", "").replace(",", "_")
        lines.append(f" {name}: {' '.join(row)} <= {con.rhs}")
    lines.append("Binary")
    for var in model.variables:
        lines.append(f" {var}")
    lines.append("End")
    return "\n".join(lines) + "\n"
