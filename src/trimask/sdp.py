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
same schedule for a given graph: one run of the penalty ramp and then the
multiplier rounds, from one random factor drawn from the seed. Above 16
nodes no run ever certified, so each extra restart ran in full; the tabu
search gains more than they did, in less time.
Every descent stops at the one gradient tolerance ``GRAD_TOL``. Only the
tuple (multiplier rounds, inner iterations per descent, stall tolerance)
depends on size: ``(12, 400, None)`` up to 16 nodes and
``(5, 200, STALL_TOL)`` above.
Large relaxations reach neither ``GRAD_TOL`` nor ``CONSTRAINT_TOL``, so
above 16 nodes a descent also stops once its accepted penalized value has
not improved by ``STALL_TOL * (1 + |best|)`` for ``STALL_WINDOW``
iterations: without it every descent on a 120-node component ran to its
200-iteration cap, though most of the decrease comes in the first tenth of
them. The size rule stays because neither setting serves both sides: the
light one certifies 41 of criterion 3's 100 small relaxations, too few for
their value to bound the optimum, and the full one makes 400-shape layouts
at density 6 about eight times slower for a 2% better objective. A stop on
the duality gap could retire it.

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
thread, 2-CPU x86-64 host).

The argmax compares dot products of the factor's rows, so the last bit of
one row can change the masks. A seeded run therefore repeats byte for
byte on one host, under one numpy and BLAS build; a host whose kernels
sum the row dots, ``v @ g`` or the scatter in another order may round to
other masks. ``_rank_reduced`` still eigendecomposes the n × n Gram
matrix outside the descent: a thin SVD of the factor spans the same
subspace but rounds otherwise, and scored 636.3 against 623.4 on
``generate_layout(2000, 6, seed=1)``, 121.0 against 118.1 on
``generate_layout(400, 6, seed=1)`` and 478.2 against 468.2 on the
benchmark's main ``dense`` corpus.
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

# the relaxation: factor columns (at most n), penalty weight, its growth per
# ramp round, ramp rounds, and the tolerances that certify the run
RANK = 8
MU_INITIAL = 4.0
MU_GROWTH = 10.0
RAMP_ROUNDS = 3
GRAD_TOL = 1e-5
CONSTRAINT_TOL = 1e-6
# the stall stop of descents above 16 nodes: a descent ends once its accepted
# penalized value has not improved by STALL_TOL * (1 + |best|) for
# STALL_WINDOW iterations
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
    which is never stored."""

    cost: CostMatrix
    v: np.ndarray
    obj_relaxation: float
    converged: bool
    iterations: int = 0  # descent iterations of the run

    @property
    def index(self) -> tuple[int, ...]:
        return self.cost.index

    @classmethod
    def from_factor(cls, v, cost: CostMatrix):
        """Wrap a given factor, e.g. one built by hand for the rounding."""
        v = np.asarray(v, dtype=float)
        return cls(cost=cost, v=v, obj_relaxation=_objective_relaxation(v, cost), converged=True)


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


def _normalize_rows(v: np.ndarray) -> np.ndarray:
    norms = np.sqrt((v * v) @ np.ones(v.shape[1]))
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


def _minimize_on_sphere(v, edges: _EdgeTerms, mu, max_iters, shift, stall=None):
    """Projected gradient with spectral (Barzilai-Borwein) steps and a
    nonmonotone backtracking safeguard; rows are renormalized every step.
    The descent ends when the gradient norm falls below ``GRAD_TOL``.

    With a ``stall`` tolerance the descent also ends once its accepted value
    has not improved by ``stall * (1 + |best|)`` for ``STALL_WINDOW``
    iterations. Returns the factor, its gradient norm and the iterations run.
    """
    value, *parts = _penalized_value(v, edges, mu, shift)
    grad = _riemannian_grad(v, edges, mu, *parts)
    safe_step = 1.0 / _lipschitz_bound(edges, mu)
    step = safe_step
    memory = [value]
    fresh_step = False
    best, idle, iterations = value, 0, 0
    for _ in range(max_iters):
        if stall is not None and idle >= STALL_WINDOW:
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
            v_new = _normalize_rows(v - trial_step * grad)
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
        if stall is not None and value < best - stall * (1.0 + abs(best)):
            best, idle = value, 0
    return v, math.sqrt(np.vdot(grad, grad)), iterations


def _rank_reduced(v):
    """Drop negligible eigen-components of the Gram matrix and re-factor.

    Low-rank factorizations stall on flat saddles where a spurious small
    eigenvalue decays only quadratically; truncating it and re-descending
    escapes the saddle. Returns None when there is nothing to truncate,
    which can only happen up to ``RANK`` nodes: above, the n × n Gram of an
    n × ``RANK`` factor has at least n - ``RANK`` zero eigenvalues, so every
    call re-factors, and every stalled multiplier round of
    ``solve_relaxation`` runs one more descent from the rotated factor.
    That descent stays on purpose: without it the held-out
    ``dense`` objective rose from 485.4 to 488.6.
    """
    x = v @ v.T
    vals, vecs = np.linalg.eigh(x)
    keep = vals > 1e-3 * max(float(vals.max()), 1e-12)
    if keep.all() or not keep.any():
        return None
    reduced = vecs[:, keep] * np.sqrt(vals[keep])
    pad = np.zeros((v.shape[0], v.shape[1] - reduced.shape[1]))
    return _normalize_rows(np.hstack([reduced, pad]))


def _certified(grad_norm: float, violation: float) -> bool:
    return grad_norm < GRAD_TOL and violation <= CONSTRAINT_TOL


def solve_relaxation(cost: CostMatrix, seed: int = 42) -> RelaxationSolution:
    """Approximately minimize the relaxation through a low-rank factor.

    The -1/2 floor on conflict pairs is enforced by a quadratic penalty: a
    short ramp multiplies the weight by a fixed factor per round, then
    multiplier shifts take over at the final weight so the floor tightens
    without runaway stiffness. The ramp and the multiplier rounds run once,
    from one random factor drawn from ``seed``. ``converged`` certifies both
    a small final gradient and a small constraint violation of that run.
    """
    n = len(cost.index)
    ce = cost.ce
    edges = _edge_terms(cost, min(n, RANK))
    # the size rule of the module docstring
    shift_rounds, max_iters, stall = (12, 400, None) if n <= 16 else (5, 200, STALL_TOL)
    no_shift = np.zeros(len(ce))

    def descend(v, mu, shift):
        nonlocal iterations
        v, grad_norm, used = _minimize_on_sphere(v, edges, mu, max_iters, shift, stall)
        iterations += used
        return v, grad_norm

    iterations = 0
    v = _normalize_rows(np.random.default_rng(seed).normal(size=(n, min(n, RANK))))
    mu = MU_INITIAL
    for round_idx in range(RAMP_ROUNDS):
        v, grad_norm = descend(v, mu, no_shift)
        if round_idx < RAMP_ROUNDS - 1:
            mu *= MU_GROWTH
    # multiplier rounds: hinge shifts let a moderate mu enforce the walls
    # exactly, so the end game stays well conditioned
    shift = no_shift
    violation = _max_violation(v, ce)
    previous_norm = None
    stall_rounds = 0
    for _ in range(shift_rounds):
        _, shift, _ = _penalized_value(v, edges, mu, shift)
        v, grad_norm = descend(v, mu, shift)
        violation = _max_violation(v, ce)
        if _certified(grad_norm, violation):
            break
        stalled = previous_norm is not None and grad_norm > 0.5 * previous_norm
        previous_norm = grad_norm
        if not stalled:
            continue
        v_cut = _rank_reduced(v)  # flat-saddle escape
        if v_cut is not None:
            v_cut, grad_cut = descend(v_cut, mu, shift)
            f_old, *_ = _penalized_value(v, edges, mu, shift)
            f_new, *_ = _penalized_value(v_cut, edges, mu, shift)
            if f_new <= f_old + 1e-12:
                v, grad_norm = v_cut, grad_cut
                violation = _max_violation(v, ce)
                previous_norm = None
                continue
        stall_rounds += 1
        if stall_rounds >= 2:
            break

    return RelaxationSolution(
        cost=cost, v=v, obj_relaxation=_objective_relaxation(v, cost),
        converged=_certified(grad_norm, violation), iterations=iterations,
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


def polish(dg: DecompositionGraph, colors: dict[int, int], alpha, seed) -> dict[int, int]:
    """``_one_opt``, then ``_tabu_search`` on ``np.random.default_rng(seed)``
    (a generator passes through), then ``_one_opt``: a 1-opt fixpoint that
    never costs more than ``colors`` at the exact ``alpha``."""
    nodes = dg.nodes
    links = _neighbor_links(len(nodes), *_edge_positions(dg), as_fraction(alpha))
    labels = _one_opt(links, [colors[node] for node in nodes])
    labels = _tabu_search(links, labels, np.random.default_rng(seed))
    return dict(zip(nodes, _one_opt(links, labels)))


def map_to_masks(sol: RelaxationSolution, seed: int = 42) -> MaskAssignment:
    """Round a relaxation to three masks and polish the cheapest draw.

    Each of ``DRAWS`` Gaussian draws of three vectors, seeded by ``seed``,
    labels every node by the vector with the largest dot product with the
    node's factor row (Frieze & Jerrum 1997). The draw of lowest exact
    integer cost, the first on a tie, goes through ``polish`` on the
    generator that made the draws. The graph, its pairs and the exact alpha
    come from ``sol.cost``.
    """
    cost = sol.cost
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(DRAWS, sol.v.shape[1], 3))
    labels = np.argmax(sol.v @ g, axis=2)  # (draw, node position)
    costs = _integer_costs(labels, cost.ce, cost.se, cost.alpha)
    start = dict(zip(sol.index, labels[costs.index(min(costs))].tolist()))
    return evaluate(cost.dg, polish(cost.dg, start, cost.alpha, rng), cost.alpha)
