"""Semidefinite relaxation of mask assignment and its rounding to three masks.

The relaxation has one input, ``CostMatrix``: the graph, its exact stitch
weight and the edge pairs. ``solve_relaxation`` keeps it in its solution,
and ``map_to_masks`` rounds with the graph, pairs and alpha it finds there,
so the rounding scores the weight the relaxation used.

Each node gets a unit vector; three ideal directions at mutual angle 2*pi/3
encode the masks, so same-mask pairs have dot product 1 and different-mask
pairs -1/2. Dropping the discreteness leaves: minimize the conflict-weighted
sum of dot products subject to unit diagonal, dot >= -1/2 on conflict pairs,
and positive semidefiniteness. The engine optimizes a low-rank factor whose
rows live on the unit sphere, with a quadratic penalty enforcing the -1/2
floor. The factor is rounded as Frieze & Jerrum (1997) round MAX k-CUT:
each of ``DRAWS`` Gaussian draws of three vectors labels every node by the
vector with the largest dot product with its row. The draw of lowest exact
cost goes through ``polish``: single-node moves (``_one_opt``) until no
move lowers the cost, then a tabu search (TabuCol: Hertz & de Werra 1987,
Galinier & Hao 1999) of ``TABU_ITERATIONS`` moves per node, each the
recoloring of one node that raises the cost least or lowers it most, ties
broken at random. A move bars its node from the color it left for a while,
unless returning beats the best cost so far. The best coloring the search
saw takes single-node moves once more, so the result is a 1-opt fixpoint.
The search climbs out of the 1-opt minima the draws fall into. The
pipeline sends an exact search that ran out of budget through the same
``polish``. On the held-out layouts of the benchmark's ``dense`` corpus,
one polished draw and 5 moves per node score 474.2; 20 polished draws and
no search scored 493.4 after one relaxation run and 486.4 after the best
of three. The random ties matter: taking the first cheapest move, the
search stalls on large pieces.

Every caller (the pipeline's leaves, ``--dump-x``, a direct call) runs the
same rule for a given graph, once, from one random factor drawn from the
seed. The run opens with one descent at the penalty weight ``MU_INITIAL``.
A descent ends at the gradient tolerance ``GRAD_TOL``, after ``MAX_ITERS``
iterations, or once its accepted penalized value has not improved by
``STALL_TOL * (1 + |best|)`` for ``STALL_WINDOW`` iterations. A multiplier
round at the same weight follows only while the last descent met
``GRAD_TOL`` but broke the -1/2 floor by more than ``CONSTRAINT_TOL``, at
most ``MULTIPLIER_ROUNDS`` times: it shifts each hinge by its multiplier
estimate, so the floor can hold exactly without a stiffer penalty. The
rule reads the run, not the graph's size. Large relaxations never reach
``GRAD_TOL``, so there the run is the one descent: the relaxed clips of
the benchmark (26–29 nodes) stop at the stall stop after about 220 of
their 400 iterations, and the ``dense`` pieces of 113–124 nodes still
improve at their cap. ``converged`` certifies a run whose last descent
met both tolerances.

On pieces above 16 nodes the one descent at mu = 4 replaced a penalty
ramp (descents at mu = 4, 40 and 400). It makes 25–57% fewer iterations
and scores a better mean objective over the ten decompose seeds 1, 2, 3,
5, 7, 11, 13, 42, 99 and 1234 on every instance below (one BLAS thread,
2-CPU x86-64 host):

===================================  ===============  =========================
instance                             mean objective   per-seed range
                                     ramp → one       ramp / one
===================================  ===============  =========================
``dense`` main corpus, sum of 4      475.7 → 474.7    471.1–479.3 / 470.0–480.2
``dense`` held-out corpus, sum of 4  477.2 → 474.3    471.2–483.2 / 468.1–479.4
(400, 4), generator seeds 1–3, sum   204.7 → 196.8    196.7–212.7 / 192.3–201.8
(400, 6), generator seeds 1–3, sum   362.9 → 362.0    359.1–365.2 / 358.1–367.1
(1000, 3), generator seed 1          195.4 → 194.2    180.9–210.8 / 183.5–199.9
(1000, 3), generator seed 2          200.1 → 196.4    188.6–206.4 / 184.3–210.7
(2000, 4), generator seeds 1–2, sum  808.1 → 800.0    773.0–842.4 / 752.4–822.8
(2000, 6), generator seed 1          628.0 → 625.5    612.2–646.4 / 613.5–631.4
(2000, 6), generator seed 2          657.0 → 652.8    648.3–667.0 / 641.6–658.8
(2000, 6), generator seed 3          654.6 → 653.6    645.7–665.2 / 644.5–660.1
``clips`` relaxed, main / held-out   65.0 / 63.2      equal at every seed
===================================  ===============  =========================

A cap of 200 iterations scores 1.1–2.6% worse means than the ramp on five
of these instances, and one descent at mu = 40 2–20% worse on all of them.
One seed says less: at seed 42 the main ``dense`` corpus reads
478.2 → 474.0 and the held-out one 472.2 → 476.4.

At mu = 4 the factor meets the -1/2 floor only softly: on a ``dense``
piece the largest violation is about 0.13, against 0.002 after the ramp,
and conflict dots fall to about -0.63. So the ``obj_relaxation`` of an
uncertified run is no bound; the rounding reads only the directions of
the rows.

``RelaxationSolution.lower_bound`` is a bound from any factor, certified
or not (Burer & Monteiro 2003; Boumal, Voroninski & Bandeira 2016). The
run keeps its final floor multipliers z_e = 4·mu·max(0, -1/2 - x_e + s_e)
at hinge shift s. With Z holding z_e/2 at both cells of a conflict pair,
y_i = ((W - Z)v)_i·v_i and S = W - Diag(y) - Z, every X the relaxation
admits has ⟨W, X⟩ >= Σy - ½Σz + n·min(0, λ_min(S)), and the objective is
⟨W, X⟩/3 + ⅔(|CE|/2 + alpha·|SE|). On criterion 3's 100 graphs of 2–10
nodes the bound lies a median of 0.0023 and at most 0.34 below the
exhaustive optimum. On the benchmark's pieces the gap is the relaxation's
integrality gap, 25–71% of the incumbent, so there it proves nothing. It
needs a dense ``eigvalsh`` of S, 1.4 s at 2353 nodes, so it is computed
on demand and never by the pipeline.

The descent works on edge lists and never forms an n × n array. Each
step takes the endpoint rows of all conflict and stitch pairs with one
``take`` and forms their row dots x_e. The value is
Σ_e w_e·x_e + mu·(‖h‖² − ‖shift‖²), with weight w_e 1 on a conflict pair
and -alpha on a stitch pair and h the hinge on the conflict pairs; the
first sum is ½⟨W, v vᵀ⟩ for the symmetric weight matrix W. The gradient
gives each pair a coefficient, 1 − 2·mu·h_e on a conflict pair and -alpha
on a stitch pair, multiplies it by the other endpoint's row and sums into
the rows with one ``np.bincount``. So a step costs O(|E|·r) time and
memory. On a 3000-node graph of 5993 conflict pairs, one 71-iteration
descent took 1.70 s and peaked at 70.8 MiB in ``tracemalloc`` with a dense
n × n weight matrix, and takes 0.09 s and 4.5 MiB on edge lists (one BLAS
thread, 2-CPU x86-64 host). The whole relaxation of that graph is one
descent of 79 iterations, 0.07 s and 4.7 MiB.

The argmax compares dot products of the factor's rows, so the last bit of
one row can change the masks. A seeded run therefore repeats byte for
byte on one host, under one numpy and BLAS build and BLAS thread count; a
host whose kernels sum the row dots, ``v @ g`` or the scatter in another
order may round to other masks. The thread count matters through
``np.vdot``: OpenBLAS splits a dot product of more than 10,000 entries
over its threads, so the descent's norms and step lengths of a factor of
more than 1,250 rows at rank 8 differ in the last bits between thread
counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .graphs import DecompositionGraph, MaskAssignment, as_fraction, evaluate

# the three ideal directions; pairwise dots are exactly 1 (same) or -1/2
MASK_VECTORS = (
    (1.0, 0.0),
    (-0.5, math.sqrt(3.0) / 2.0),
    (-0.5, -math.sqrt(3.0) / 2.0),
)
DOT_SAME = Fraction(1)
DOT_DIFFERENT = Fraction(-1, 2)

# Gaussian draws of the rounding; the cheapest by exact cost is polished
DRAWS = 200
# the tabu search: moves per node, and a move's tenure of TABU_TENURE plus a
# uniform draw from [0, TABU_SPREAD) moves
TABU_ITERATIONS = 5
TABU_TENURE = 7
TABU_SPREAD = 10

# the relaxation: factor columns (at most n), the penalty weight of every
# descent, the iteration cap of a descent, its most multiplier rounds, and
# the tolerances that certify the run
RANK = 8
MU_INITIAL = 4.0
MAX_ITERS = 400
MULTIPLIER_ROUNDS = 12
GRAD_TOL = 1e-5
CONSTRAINT_TOL = 1e-6
# the stall stop: a descent ends once its accepted penalized value has not
# improved by STALL_TOL * (1 + |best|) for STALL_WINDOW iterations
STALL_TOL = 1e-5
STALL_WINDOW = 20


def discrete_vector_objective(colors: dict[int, int], dg: DecompositionGraph, alpha) -> Fraction:
    """Objective of the vector form under the three ideal directions.

    Computed with exact rationals (the ideal pairwise dots are 1 and -1/2),
    so the value matches the conflict/stitch count objective bit for bit.
    """
    frac = as_fraction(alpha)
    total = Fraction(0)
    for u, v in dg.ce:
        dot = DOT_SAME if colors[u] == colors[v] else DOT_DIFFERENT
        total += Fraction(2, 3) * (dot + Fraction(1, 2))
    for u, v in dg.se:
        dot = DOT_SAME if colors[u] == colors[v] else DOT_DIFFERENT
        total += Fraction(2, 3) * frac * (1 - dot)
    return total


@dataclass(frozen=True)
class CostMatrix:
    """The relaxation's input, the weight matrix as edge lists: weight 1 on
    the conflict pairs ``ce``, -``alpha`` on the stitch pairs ``se`` and 0
    elsewhere. Both are sorted pairs of node positions, one row each, and
    position k is node ``index[k]``."""

    dg: DecompositionGraph
    alpha: Fraction
    ce: np.ndarray
    se: np.ndarray

    @property
    def index(self) -> tuple[int, ...]:
        return self.dg.nodes


def build_cost_matrix(dg: DecompositionGraph, alpha) -> CostMatrix:
    ce, se = _edge_positions(dg)
    return CostMatrix(dg=dg, alpha=as_fraction(alpha), ce=ce, se=se)


@dataclass(frozen=True)
class RelaxationSolution:
    """The relaxation's factor ``v``, one row per node position (unit rows
    from ``solve_relaxation``); the relaxed X is its Gram matrix v vᵀ,
    which is never stored. ``multipliers`` holds the final floor multiplier
    z_e of each conflict pair, in ``cost.ce`` order."""

    cost: CostMatrix
    v: np.ndarray
    obj_relaxation: float
    converged: bool
    multipliers: np.ndarray
    iterations: int = 0  # descent iterations of the run

    @property
    def index(self) -> tuple[int, ...]:
        return self.cost.index

    @classmethod
    def from_factor(cls, v, cost: CostMatrix):
        """Wrap a given factor, e.g. one built by hand for the rounding:
        uncertified, with zero multipliers."""
        v = np.asarray(v, dtype=float)
        return cls(
            cost=cost, v=v, obj_relaxation=_objective_relaxation(v, cost), converged=False,
            multipliers=np.zeros(len(cost.ce)),
        )

    def lower_bound(self) -> float:
        """A lower bound on the objective of every three-mask assignment of
        the graph, from the dual of the relaxation at this factor and these
        multipliers; the module docstring gives the formula. It forms the
        n × n matrix S and its eigenvalues, and subtracts a margin for their
        rounding error."""
        cost, v, z = self.cost, self.v, self.multipliers
        n = len(v)
        alpha = float(cost.alpha)
        s = np.zeros((n, n))
        s[cost.ce[:, 0], cost.ce[:, 1]] = 1.0 - 0.5 * z
        s[cost.se[:, 0], cost.se[:, 1]] = -alpha
        s += s.T
        y = ((s @ v) * v).sum(axis=1)
        s[np.diag_indices(n)] = -y
        low = float(np.linalg.eigvalsh(s).min(initial=0.0))  # min(0, λ_min(S))
        margin = 4.0 * n * np.finfo(float).eps * (n * np.linalg.norm(s) + np.abs(y).sum() + z.sum())
        dual = float(y.sum()) - 0.5 * float(z.sum()) + n * low - margin
        return dual / 3.0 + (2.0 / 3.0) * (len(cost.ce) / 2.0 + alpha * len(cost.se))


def _edge_positions(dg: DecompositionGraph):
    """The conflict and stitch edges as sorted pairs of ``dg.nodes`` positions."""
    pos = {node: k for k, node in enumerate(dg.nodes)}
    ce = np.array(sorted((pos[u], pos[v]) for u, v in dg.ce), dtype=int).reshape(-1, 2)
    se = np.array(sorted((pos[u], pos[v]) for u, v in dg.se), dtype=int).reshape(-1, 2)
    return ce, se


def _pair_dots(v, pairs) -> np.ndarray:
    """The entries of the Gram matrix v vᵀ at the position pairs."""
    return (v[pairs[:, 0]] * v[pairs[:, 1]]).sum(axis=1)


def _objective_relaxation(v, cost: CostMatrix) -> float:
    a = float(cost.alpha)
    tot = (2.0 / 3.0) * float((_pair_dots(v, cost.ce) + 0.5).sum())
    return tot + (2.0 * a / 3.0) * float((1.0 - _pair_dots(v, cost.se)).sum())


def _max_violation(v, ce) -> float:
    diag = np.max(np.abs((v * v).sum(axis=1) - 1.0), initial=0.0)
    floor = np.max(-0.5 - _pair_dots(v, ce), initial=0.0)
    return float(max(diag, floor))


def _normalize_rows(v: np.ndarray, ones: np.ndarray | None = None) -> np.ndarray:
    """``v`` with unit rows; ``ones``, a vector of ``v.shape[1]`` ones, saves
    allocating one."""
    if ones is None:
        ones = np.ones(v.shape[1])
    norms = np.sqrt((v * v) @ ones)
    norms[norms == 0.0] = 1.0
    return v / norms[:, None]


class _EdgeTerms(NamedTuple):
    """The pairs of a ``CostMatrix`` laid out for a factor of ``rank``
    columns, conflict pairs first. ``v.take(ends, axis=0)`` stacks every
    pair's first endpoint row over its second's, and ``cells`` sends each of
    those rows to the flat gradient cells of the pair's other endpoint."""

    ends: np.ndarray
    weight: np.ndarray  # 1 per conflict pair, -alpha per stitch pair
    cells: np.ndarray
    conflicts: int
    ones: np.ndarray  # a product with it sums each row


def _edge_terms(cost: CostMatrix, rank: int) -> _EdgeTerms:
    pairs = np.concatenate([cost.ce, cost.se])
    weight = np.concatenate([np.ones(len(cost.ce)), np.full(len(cost.se), -float(cost.alpha))])
    others = np.concatenate([pairs[:, 1], pairs[:, 0]])
    cells = (others[:, None] * rank + np.arange(rank)).ravel()
    return _EdgeTerms(pairs.T.ravel(), weight, cells, len(cost.ce), np.ones(rank))


def _penalized_value(v, edges: _EdgeTerms, mu, shift):
    """Objective plus quadratic wall penalty: Σ_e w_e·x_e over the pairs'
    row dots x, plus mu·(‖h‖² − ‖shift‖²) over the conflict pairs' hinge h.

    ``shift`` (multiplier estimates divided by 2*mu) moves each hinge so the
    walls can be enforced exactly without driving mu to stiffness; zero shift
    is the plain penalty. Besides the value, returns the hinge and the
    endpoint rows, which the gradient at ``v`` reuses.
    """
    rows = v.take(edges.ends, axis=0)
    m = len(edges.weight)
    x = (rows[:m] * rows[m:]) @ edges.ones
    hinge = np.maximum(0.0, -0.5 - x[: edges.conflicts] + shift)
    return float(edges.weight @ x) + mu * float(hinge @ hinge - shift @ shift), hinge, rows


def _riemannian_grad(v, edges: _EdgeTerms, mu, hinge, rows):
    """Gradient on the sphere from the parts ``_penalized_value`` returned
    at ``v``: each pair's coefficient times the other endpoint's row, summed
    into the rows, less its radial part."""
    m = len(edges.weight)
    coef = np.concatenate([1.0 - 2.0 * mu * hinge, edges.weight[edges.conflicts:]])
    terms = rows.reshape(2, m, v.shape[1]) * coef[:, None]
    grad = np.bincount(edges.cells, weights=terms.ravel(), minlength=v.size).reshape(v.shape)
    radial = (grad * v) @ edges.ones
    return grad - radial[:, None] * v


def _lipschitz_bound(edges: _EdgeTerms, mu) -> float:
    """A step bound from the weight matrix's largest absolute row sum (the
    weighted degree) and the most conflict pairs at one node."""
    row = np.bincount(edges.ends, weights=np.tile(np.abs(edges.weight), 2))
    degree = np.bincount(edges.ends.reshape(2, -1)[:, : edges.conflicts].ravel())
    return max(1.0, float(row.max(initial=0.0)) + 2.0 * mu * float(degree.max(initial=0)))


def _minimize_on_sphere(v, edges: _EdgeTerms, mu, max_iters, shift):
    """Projected gradient with spectral (Barzilai-Borwein) steps and a
    nonmonotone backtracking safeguard; rows are renormalized every step.
    The descent ends when the gradient norm falls below ``GRAD_TOL``, or
    once its accepted value has not improved by ``STALL_TOL * (1 + |best|)``
    for ``STALL_WINDOW`` iterations. Returns the factor, its gradient norm
    and the iterations run.
    """
    value, *parts = _penalized_value(v, edges, mu, shift)
    grad = _riemannian_grad(v, edges, mu, *parts)
    safe_step = 1.0 / _lipschitz_bound(edges, mu)
    step = safe_step
    memory = [value]
    fresh_step = False
    best, idle, iterations = value, 0, 0
    for _ in range(max_iters):
        if idle >= STALL_WINDOW:
            break
        gnorm = math.sqrt(np.vdot(grad, grad))
        if gnorm < GRAD_TOL:
            break
        iterations += 1
        idle += 1
        accepted = False
        trial_step = step
        reference = max(memory)
        for _ in range(25):
            v_new = _normalize_rows(v - trial_step * grad, edges.ones)
            value_new, *parts_new = _penalized_value(v_new, edges, mu, shift)
            if value_new <= reference - 1e-4 * trial_step * gnorm * gnorm:
                accepted = True
                break
            trial_step *= 0.5
        if not accepted:
            # spectral step may be poisoned; retry once from the safe step
            if fresh_step:
                break
            step = safe_step
            fresh_step = True
            continue
        fresh_step = False
        grad_new = _riemannian_grad(v_new, edges, mu, *parts_new)
        dv = v_new - v
        denom = float(np.vdot(dv, grad_new - grad))
        step = float(np.vdot(dv, dv)) / denom if denom > 1e-16 else trial_step * 2.0
        step = min(max(step, 1e-12), 1e3)
        v, value, grad = v_new, value_new, grad_new
        memory.append(value)
        if len(memory) > 10:
            memory.pop(0)
        if value < best - STALL_TOL * (1.0 + abs(best)):
            best, idle = value, 0
    return v, math.sqrt(np.vdot(grad, grad)), iterations


def solve_relaxation(cost: CostMatrix, seed: int = 42) -> RelaxationSolution:
    """Approximately minimize the relaxation through a low-rank factor.

    The -1/2 floor on conflict pairs is enforced by a quadratic penalty at
    weight ``MU_INITIAL``. One descent runs from a random factor drawn from
    ``seed``; multiplier rounds follow only as the module docstring's rule
    says. ``converged`` certifies both a small final gradient and a small
    constraint violation of the run.
    """
    n = len(cost.index)
    edges = _edge_terms(cost, min(n, RANK))
    v = _normalize_rows(np.random.default_rng(seed).normal(size=(n, min(n, RANK))))
    shift = np.zeros(len(cost.ce))
    v, grad_norm, iterations = _minimize_on_sphere(v, edges, MU_INITIAL, MAX_ITERS, shift)
    violation = _max_violation(v, cost.ce)
    for _ in range(MULTIPLIER_ROUNDS):
        if grad_norm >= GRAD_TOL or violation <= CONSTRAINT_TOL:
            break
        # the hinge at the last shift is the next shift: the multiplier
        # estimates divided by 2*mu
        _, shift, _ = _penalized_value(v, edges, MU_INITIAL, shift)
        v, grad_norm, used = _minimize_on_sphere(v, edges, MU_INITIAL, MAX_ITERS, shift)
        iterations += used
        violation = _max_violation(v, cost.ce)
    _, hinge, _ = _penalized_value(v, edges, MU_INITIAL, shift)
    return RelaxationSolution(
        cost=cost, v=v, obj_relaxation=_objective_relaxation(v, cost),
        converged=grad_norm < GRAD_TOL and violation <= CONSTRAINT_TOL,
        multipliers=4.0 * MU_INITIAL * hinge, iterations=iterations,
    )


def _neighbor_links(n, ce, se, frac) -> list[list[tuple[int, int]]]:
    """Per node position, its (neighbor position, weight) pairs: the
    conflict weight ``frac.denominator`` per conflict pair and minus the
    stitch weight ``frac.numerator`` per stitch pair."""
    links: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for pairs, weight in ((ce, frac.denominator), (se, -frac.numerator)):
        for u, v in pairs.tolist():
            links[u].append((v, weight))
            links[v].append((u, weight))
    return links


def _one_opt(links, labels: list[int]) -> list[int]:
    """Recolor single nodes of a label list indexed like ``links`` while a
    move strictly lowers the exact integer cost. A move takes the node's
    cheapest color, the lowest on a tie. Nodes are visited in order, pass
    after pass, until a pass moves none."""
    moved = True
    while moved:
        moved = False
        for k, node_links in enumerate(links):
            # the node's cost on color c, up to a constant
            cost = [0, 0, 0]
            for other, weight in node_links:
                cost[labels[other]] += weight
            best = cost.index(min(cost))
            if cost[best] < cost[labels[k]]:
                labels[k] = best
                moved = True
    return labels


def _take(buckets: dict[int, set[int]], key: int, candidate: int) -> None:
    """Remove ``candidate`` from the bucket ``key``, and the bucket once empty."""
    entries = buckets[key]
    entries.remove(candidate)
    if not entries:
        del buckets[key]


def _tabu_search(links, labels: list[int], rng) -> list[int]:
    """TabuCol (Hertz & de Werra 1987; Galinier & Hao 1999) on a label list
    indexed like ``links``: ``TABU_ITERATIONS`` moves per node, each the
    recoloring of one node that changes the cost least, ties broken by
    ``rng`` over the candidates in order of node, then color. A move bars
    its node from its old color for ``TABU_TENURE`` plus a draw from
    [0, ``TABU_SPREAD``) moves, unless returning reaches a cost below the
    best so far. The tie breaks and tenures are drawn from ``rng`` up front.
    Returns the cheapest coloring seen, so never one costlier than
    ``labels``.

    A move costs O(degree), as in Galinier & Hao's incremental evaluation.
    Every candidate, the recoloring of node k to a color c other than its
    own, numbered 3k + c, sits in a bucket keyed by its cost change: free
    candidates in one dict of buckets, barred ones in another, so the
    cheapest allowed candidates are found among the lowest keys. A move
    rekeys only the candidates of the moved node and its neighbors, and a
    release list frees each barred candidate when its tenure ends.
    """
    n = len(labels)
    moves = TABU_ITERATIONS * n
    picks = rng.random(moves).tolist()
    tenures = (TABU_TENURE + rng.integers(TABU_SPREAD, size=moves)).tolist()
    colors = list(labels)
    # the nodes whose candidates a move of node k changes: k and its neighbors
    touched = [[k] + [other for other, _ in node_links] for k, node_links in enumerate(links)]
    # table[k][c]: node k's cost on color c, up to a constant, as in _one_opt
    table = [[0, 0, 0] for _ in range(n)]
    for k, node_links in enumerate(links):
        for other, weight in node_links:
            table[k][colors[other]] += weight
    # per candidate: its cost change, and while barred the move that frees it
    delta = [0] * (3 * n)
    barred_until = [0] * (3 * n)
    free: dict[int, set[int]] = {}
    barred: dict[int, set[int]] = {}
    release: list[list[int]] = [[] for _ in range(moves)]
    for k, row in enumerate(table):
        for c in range(3):
            if c != colors[k]:
                delta[3 * k + c] = change = row[c] - row[colors[k]]
                free.setdefault(change, set()).add(3 * k + c)
    cost = best_cost = 0  # relative to the start
    best = list(colors)
    for move in range(moves):
        for i in release[move]:
            if barred_until[i] == move:  # not taken or barred again since
                barred_until[i] = 0
                _take(barred, delta[i], i)
                free.setdefault(delta[i], set()).add(i)
        # aspiration: a barred candidate is allowed below this cost change
        aspiration = best_cost - cost
        low = min(free, default=None)
        low_barred = min(barred, default=aspiration)
        if low_barred < aspiration and (low is None or low_barred < low):
            low = low_barred
        if low is None:
            continue
        ties = list(free.get(low, ()))
        if low < aspiration:
            ties.extend(barred.get(low, ()))
        ties.sort()
        chosen = ties[int(picks[move] * len(ties))]
        k, color = divmod(chosen, 3)
        old = colors[k]
        colors[k] = color
        _take(barred if barred_until[chosen] > move else free, delta[chosen], chosen)
        delta[chosen] = barred_until[chosen] = 0
        back = 3 * k + old
        barred_until[back] = until = move + tenures[move]
        if until < moves:
            release[until].append(back)
        for other, weight in links[k]:
            row = table[other]
            row[old] -= weight
            row[color] += weight
        delta[back] = table[k][old] - table[k][color]
        barred.setdefault(delta[back], set()).add(back)
        for j in touched[k]:
            row = table[j]
            for c in range(3):
                i = 3 * j + c
                if c == colors[j] or i == back:
                    continue
                change = row[c] - row[colors[j]]
                if change != delta[i]:
                    bucket = barred if barred_until[i] > move else free
                    _take(bucket, delta[i], i)
                    bucket.setdefault(change, set()).add(i)
                    delta[i] = change
        cost += low
        if cost < best_cost:
            best_cost = cost
            best = list(colors)
    return best


def _integer_costs(labels: np.ndarray, ce, se, frac) -> list[int]:
    """Exact integer cost of each row of ``labels`` (one label per node
    position): ``frac.denominator`` per conflict, ``frac.numerator`` per
    stitch. numpy counts, Python ints weigh, so no cost wraps or overflows."""
    conflicts = (labels[:, ce[:, 0]] == labels[:, ce[:, 1]]).sum(axis=1).tolist()
    stitches = (labels[:, se[:, 0]] != labels[:, se[:, 1]]).sum(axis=1).tolist()
    return [frac.denominator * c + frac.numerator * s for c, s in zip(conflicts, stitches)]


def _polish(labels: list[int], ce, se, frac, rng) -> list[int]:
    """``_one_opt``, ``_tabu_search`` on ``rng``, then ``_one_opt`` on a
    label list indexed by node position, with the conflict and stitch pairs
    ``ce`` and ``se`` of those positions and the exact alpha ``frac``."""
    links = _neighbor_links(len(labels), ce, se, frac)
    labels = _tabu_search(links, _one_opt(links, labels), rng)
    return _one_opt(links, labels)


def polish(dg: DecompositionGraph, colors: dict[int, int], alpha, seed) -> dict[int, int]:
    """``_one_opt``, then ``_tabu_search`` on ``np.random.default_rng(seed)``
    (a generator passes through), then ``_one_opt``: a 1-opt fixpoint that
    never costs more than ``colors`` at the exact ``alpha``."""
    nodes = dg.nodes
    ce, se = _edge_positions(dg)
    rng = np.random.default_rng(seed)
    return dict(zip(nodes, _polish([colors[node] for node in nodes], ce, se, as_fraction(alpha), rng)))


def map_to_masks(sol: RelaxationSolution, seed: int = 42) -> MaskAssignment:
    """Round a relaxation to three masks and polish the cheapest draw.

    Each of ``DRAWS`` Gaussian draws of three vectors, seeded by ``seed``,
    labels every node by the vector with the largest dot product with the
    node's factor row (Frieze & Jerrum 1997). The draw of lowest exact
    integer cost, the first on a tie, takes the steps of ``polish`` on the
    generator that made the draws. The graph, its pairs and the exact alpha
    come from ``sol.cost``.
    """
    cost = sol.cost
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(DRAWS, sol.v.shape[1], 3))
    labels = np.argmax(sol.v @ g, axis=2)  # (draw, node position)
    costs = _integer_costs(labels, cost.ce, cost.se, cost.alpha)
    start = labels[costs.index(min(costs))].tolist()
    polished = _polish(start, cost.ce, cost.se, cost.alpha, rng)
    return evaluate(cost.dg, dict(zip(sol.index, polished)), cost.alpha)
