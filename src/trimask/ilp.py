"""Exact minimization: the paper's 0-1 linear model and bucket elimination.

The 0-1 model is the specification of record. Node i carries the color
bits x_i1 and x_i2, a conflict edge (i, j) the indicators c_1, c_2 and c,
and a stitch edge s_1, s_2 and s. Its rows, with b over the bits ``BITS``:

    x_ib + x_jb - c_b <= 1    -x_ib - x_jb - c_b <= -1    (conflict edge)
    c_1 + c_2 - c <= 1                                    (conflict edge)
    ±(x_ib - x_jb) - s_b <= 0    s_b - s <= 0             (stitch edge)
    x_i1 + x_i2 <= 1                                      (node)

So c_b is 1 when the ends' b-th bits are equal and c when both are, s_b is
1 when they differ and s when either does, and the code (1,1) is
forbidden, leaving three colors. The objective is the sum of c plus alpha
times the sum of s. The bit model is kept for verification and for export
to external LP solvers.

The solver works on ternary node colors with integer costs. ``solve_exact``
eliminates the nodes along a min-fill order, which proves the optimum in
3^(d + 1) table entries for a node of d neighbors at its turn. Layout pieces
have small width (4-8 on the benchmark's clips, 7-9 on the 110-300-node
pieces of density-6 layouts). An order whose tables would pass
``ELIMINATION_BUDGET`` entries is not run: ``solve_exact`` returns None,
and the pipeline relaxes that piece instead.

The order fixes every bucket's scope before elimination starts, so each
edge table and each message is shaped for the bucket it joins when it is
filed, and summing a bucket takes one numpy add per table. A node's choice
is kept as two comparisons of its three color slices, which decoding reads
as the first least color, the one argmin gives. Argmin over an axis of 3
loops once per entry of the others: on a 3^10 table argmin and min take
about 580 µs, the comparisons and the message about 30 µs (2-CPU x86-64
host).
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
# the two color bits, b in each per-bit rule
BITS = (1, 2)


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
        variables += [_x(i, b) for b in BITS]
        constraints.append(LinearConstraint(f"color_cap[{i}]", {_x(i, b): 1 for b in BITS}, 1))

    for i, j in ce:
        c = _c(i, j)
        variables += [_c(i, j, b) for b in BITS] + [c]
        objective[c] = Fraction(1)
        for b in BITS:
            xi, xj, cb = _x(i, b), _x(j, b), _c(i, j, b)
            constraints += [
                LinearConstraint(f"conflict_bit{b}_hi[{i},{j}]", {xi: 1, xj: 1, cb: -1}, 1),
                LinearConstraint(f"conflict_bit{b}_lo[{i},{j}]", {xi: -1, xj: -1, cb: -1}, -1),
            ]
        and_row = {_c(i, j, b): 1 for b in BITS} | {c: -1}
        constraints.append(LinearConstraint(f"conflict_and[{i},{j}]", and_row, 1))

    for i, j in se:
        s = _s(i, j)
        variables += [_s(i, j, b) for b in BITS] + [s]
        objective[s] = frac
        for b in BITS:
            xi, xj, sb = _x(i, b), _x(j, b), _s(i, j, b)
            constraints += [
                LinearConstraint(f"stitch_bit{b}_pos[{i},{j}]", {xi: 1, xj: -1, sb: -1}, 0),
                LinearConstraint(f"stitch_bit{b}_neg[{i},{j}]", {xj: 1, xi: -1, sb: -1}, 0),
            ]
        constraints += [
            LinearConstraint(f"stitch_or_{b}[{i},{j}]", {_s(i, j, b): 1, s: -1}, 0)
            for b in BITS
        ]

    return IlpModel(tuple(variables), tuple(constraints), objective, frac, nodes, ce, se)


def encode_coloring(model: IlpModel, colors: dict[int, int]) -> dict[str, int]:
    """Tight 0-1 encoding of a coloring: every auxiliary variable takes its
    minimal feasible value, so the encoded objective equals the true cost."""
    bits: dict[str, int] = {}
    for i in model.nodes:
        for b, bit in zip(BITS, COLOR_BITS[colors[i]]):
            bits[_x(i, b)] = bit
    for i, j in model.ce:
        # a conflict is paid when both bits are equal
        for b in BITS:
            bits[_c(i, j, b)] = int(bits[_x(i, b)] == bits[_x(j, b)])
        bits[_c(i, j)] = min(bits[_c(i, j, b)] for b in BITS)
    for i, j in model.se:
        # a stitch is paid when either bit differs
        for b in BITS:
            bits[_s(i, j, b)] = abs(bits[_x(i, b)] - bits[_x(j, b)])
        bits[_s(i, j)] = max(bits[_s(i, j, b)] for b in BITS)
    return bits


def decode_bits(model: IlpModel, bits: dict[str, int]) -> dict[int, int]:
    """Colors from the node bit variables, e.g. of an externally solved model."""
    return {i: BITS_COLOR[tuple(bits[_x(i, b)] for b in BITS)] for i in model.nodes}


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


# the most table entries solve_exact fills for one graph. It bounds the
# elimination's time, its largest table and so its width, to 12: a node of
# 13 neighbors fills 3^14 = 4,782,969 entries and leaves them a 13-clique
# whose first node fills at least 3^13 = 1,594,323 more. K13, of width 12,
# fills 2,391,483 in all.
ELIMINATION_BUDGET = 5_000_000


def solve_exact(dg: DecompositionGraph, alpha) -> SolveReport | None:
    """Proven minimum by min-sum bucket elimination along a min-fill order
    (Bertelè & Brioschi 1972; Dechter 1999), or None when the order's tables
    would pass ``ELIMINATION_BUDGET`` entries.

    Costs are integers: ``alpha.denominator`` per conflict,
    ``alpha.numerator`` per stitch. Each edge is a 3 x 3 table in the bucket
    of its end eliminated first. Eliminating a node adds its bucket's tables
    over their joint scope, keeps whether color 2 is less than the lesser of
    colors 0 and 1 and whether color 1 is less than color 0, and passes the
    min on to the bucket of the scope's next node. Every scope is kept in
    elimination order, so a table is shaped for its bucket by ``reshape``
    alone, once, as it is filed. Decoding walks the order backwards and
    takes the first least color of each node. ``nodes_explored`` reports
    the entries, 3^(scope size) per bucket.
    """
    plan = _min_fill_order(dg, ELIMINATION_BUDGET)
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
    # per position: the tables in its bucket, each shaped for the bucket's
    # scope, 3 on the axes of its own scope and 1 on the others
    buckets: list[list[np.ndarray]] = [[] for _ in order]
    eye = np.eye(3, dtype=dtype)
    for edges, table in ((dg.ce, conflict_w * eye), (dg.se, stitch_w * (1 - eye))):
        for u, v in edges:
            a, b = pos[u], pos[v]
            if a > b:
                a, b = b, a
            shape = [1] * len(scopes[a])
            shape[0] = shape[scopes[a].index(b)] = 3
            buckets[a].append(table.reshape(shape))

    # per position: whether color 2 is the least, and whether color 1 is
    # less than color 0, over the rest of its scope
    choices: list[tuple[np.ndarray, np.ndarray] | None] = [None] * len(order)
    for k, scope in enumerate(scopes):
        if not buckets[k]:
            continue  # an isolated node keeps color 0
        first, *rest = buckets[k]
        buckets[k] = None  # its tables are summed once, then let go
        total = first
        for table in rest:
            total = total + table
        # comparisons of the three color slices, not argmin: over so short
        # an axis argmin loops once per entry of the others
        c0, c1, c2 = total[0, ...], total[1, ...], total[2, ...]
        low = np.minimum(c0, c1)
        choices[k] = (c2 < low, c1 < c0)
        if len(scope) > 1:
            sub = set(scope[1:])
            target = scopes[scope[1]]
            np.minimum(low, c2, out=low)
            buckets[scope[1]].append(low.reshape([3 if p in sub else 1 for p in target]))

    colors = [0] * len(order)
    for k in range(len(order) - 1, -1, -1):
        if choices[k] is not None:
            # the first least color, as argmin gives it
            third, second = choices[k]
            at = tuple(colors[p] for p in scopes[k][1:])
            colors[k] = 2 if third[at] else int(second[at])
    assignment = evaluate(dg, {v: colors[k] for k, v in enumerate(order)}, alpha)
    return SolveReport(assignment, work, True)


def _min_fill_order(
    dg: DecompositionGraph, budget: int
) -> tuple[list[int], list[tuple[int, ...]], int] | None:
    """Greedy min-fill elimination order of ``dg`` (ties by degree, then
    id), with each node's bucket scope as positions in the order, itself
    first, and the elimination's work, the sum of 3^(scope size). None as
    soon as the work passes ``budget``, or would in any order of the rest:
    a node of d neighbors leaves them a d-clique, whose eliminations fill
    at least 3^d + ... + 3 = (3^(d + 1) - 3) / 2 more entries.

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
        entries = 3 ** (d + 1)
        work += entries
        if work + (entries - 3) // 2 > budget:
            return None
        done[i] = True
        order.append(i)
        neighbors.append(nb)
        touched = nb
        if f:  # a node of no fill leaves its neighbors as they are
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
    pos = [0] * len(nodes)
    for k, i in enumerate(order):
        pos[i] = k
    scopes = [(k,) + tuple(sorted(map(pos.__getitem__, nb))) for k, nb in enumerate(neighbors)]
    return [nodes[i] for i in order], scopes, work


def _terms(coeffs) -> str:
    # repr, not a fixed precision: the float of alpha reads back exactly,
    # and an int's repr is its str
    return " ".join(f"+ {w!r} {v}" if w >= 0 else f"- {-w!r} {v}" for v, w in coeffs)


def write_lp(model: IlpModel) -> str:
    """Serialize the model in LP-format text (minimize, <= rows, binaries)."""
    obj = _terms((v, float(w)) for v, w in model.objective.items()) or "0"
    lines = ["Minimize", f" obj: {obj}", "Subject To"]
    for con in model.constraints:
        name = con.name.replace("[", "_").replace("]", "").replace(",", "_")
        lines.append(f" {name}: {_terms(con.coeffs.items())} <= {con.rhs}")
    lines += ["Binary", *(f" {var}" for var in model.variables), "End"]
    return "\n".join(lines) + "\n"
