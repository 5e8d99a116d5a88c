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
vector with the largest dot product with its row, the first on a tie. The
draw of lowest exact cost goes through ``_polish``: single-node moves
(``_one_opt``) until no move lowers the cost, then a tabu search
(TabuCol: Hertz & de Werra 1987, Galinier & Hao 1999) of
``TABU_ITERATIONS`` moves per node, each the recoloring of one node that
raises the cost least or lowers it most, ties broken at random. A move bars its node from the color it left for a while,
unless returning beats the best cost so far. The best coloring the search
saw takes single-node moves once more, so the result is a 1-opt fixpoint.
The search climbs out of the 1-opt minima the draws fall into. On the
held-out layouts of the benchmark's ``dense`` corpus, one polished draw
and 5 moves per node score 474.2; 20 polished draws and no search scored
493.4 after one relaxation run and 486.4 after the best of three. The
random ties matter: taking the first cheapest move, the search stalls on
large pieces.

Every caller (the pipeline, ``--dump-x``, a direct call) runs the same
rule for a given graph, once, from one random factor drawn from the seed.
The pipeline relaxes all the leaves of a pass in one run: ``join_costs``
lays their matrices side by side as one disjoint union, and each leaf is
rounded on its own part of the run, ``RelaxationSolution.restrict``. A
leaf alone is its own union and relaxes as a direct call would.

The descent keeps a Barzilai-Borwein step, first the safe step of its
Lipschitz bound, and a share of the gradient norm for each connected
component of the graph, from per-component sums of row dots, so each
component steps as it would alone. One nonmonotone acceptance test on
the whole value, one stall stop and one ``MAX_ITERS`` cap rule the run, so
a connected graph runs the rule it ran alone. An iteration of a
connected graph whose first trial is accepted makes 29 numpy calls at any
size (a few more with several components), and at ~120 nodes their
fixed cost is most of its time: the four relaxed leaves of a ``dense``
layout (115–124 nodes) take about 0.7 of the time in one run that they
take in four. On that joined run
(about 490 rows and 1,600 pairs) three kernels take most of an
iteration, near their floor: the gradient's ``bincount``, the ``take``
of the endpoint rows and the row dots of the pairs. On a relaxed clip of
the benchmark (26–29 nodes) an iteration is the calls' fixed cost alone.
Four of the calls are row dots, and they go to numpy's C einsum kernel,
bound once as ``_einsum``, with no Python wrapper in between; every other
call but ``bincount`` is a ufunc, a ufunc's ``reduce`` or an ndarray
method, and the multi-component move takes its steps from an array.
So no step pays a Python wrapper's fixed cost, and every value is the
one ``np.einsum`` computes, bit for bit.

Every step writes into one ``_Workspace`` that the descent makes once:
the endpoint rows, the pairs' row dots and hinge, the gradient's terms
and coefficients (whose stitch part is filled once), and two trial
factors, one of which holds the accepted factor while a trial goes into
the other. Rows are normalized in place, and a step allocates only the
gradient that ``bincount`` returns. The workspace also holds every view
of these arrays that a step reads and the sizes it needs, and the
descent binds its per-component sums before its loop, so a step slices,
reshapes and takes the length of nothing, and its sums, moves and trial
normalizations are direct numpy calls. The descent returns its factor's
hinge from the workspace too, so the relaxation takes its shifts and
multipliers without making another.
``_value_at`` and ``_riemannian_grad`` are the kernels of both the
descent and ``_penalized_value``, so the gradient tests check the code
the descent runs. The workspace returns the allocating descent's factor
bit for bit; it lowers the ``tracemalloc`` peak of the relaxation of a
3000-node graph of 5993 conflict pairs from 4.98 to 4.36 MiB, and
in-process it runs the relaxation of a ``dense`` layout at 0.97 of that
descent's time (interquartile range 0.91–1.01 over 30 interleaved
rounds).

The run opens with one descent at the penalty weight ``MU_INITIAL``.
A descent ends at the gradient tolerance ``GRAD_TOL``, after ``MAX_ITERS``
iterations, when 25 halvings of one step all fail, or once its accepted
penalized value has not improved by ``STALL_TOL * (1 + |best|)`` for
``STALL_WINDOW`` iterations. A multiplier round at the same weight
follows only while the last descent met ``GRAD_TOL`` but broke the -1/2
floor by more than ``CONSTRAINT_TOL``, at most ``MULTIPLIER_ROUNDS``
times: it shifts each hinge by its multiplier estimate, so the floor can
hold exactly without a stiffer penalty. The
rule reads the run, not the graph's size. Large relaxations never reach
``GRAD_TOL``, so there the run is the one descent: the relaxed clips of
the benchmark (26–29 nodes) stop at the stall stop after about 220 of
their 400 iterations, and the run on a ``dense`` layout's four pieces
still improves at its cap. ``converged`` certifies a run whose last descent
met both tolerances.

At mu = 4 the factor meets the -1/2 floor only softly: on a ``dense``
piece the largest violation is about 0.13, and conflict dots fall to
about -0.63. So the ``obj_relaxation`` of an uncertified run is no bound;
the rounding reads only the directions of the rows.

``RelaxationSolution.lower_bound`` is a bound from any factor, certified
or not (Burer & Monteiro 2003; Boumal, Voroninski & Bandeira 2016), and
so from a leaf's part of a shared run too. The
run keeps its final floor multipliers z_e = 4·mu·max(0, -1/2 - x_e + s_e)
at hinge shift s. With Z holding z_e/2 at both cells of a conflict pair,
y_i = ((W - Z)v)_i·v_i and S = W - Diag(y) - Z, every X the relaxation
admits has ⟨W, X⟩ >= Σy - ½Σz + n·min(0, λ_min(S)), and the objective is
⟨W, X⟩/3 + ⅔(|CE|/2 + alpha·|SE|), raised to 0 and then up to a
multiple of 1/alpha.denominator, as every objective is one. On criterion
3's 100 graphs of 2–10
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
memory. The descent keeps its factor column-major, so each of these
passes runs along contiguous columns of n or |E| entries rather than
rows of r = 8.

The argmax compares dot products of the factor's rows, so the last bit of
one row can change the masks. A seeded run therefore repeats byte for
byte on one host under one numpy build; a host whose kernels sum the row
dots or the scatter in another order may round to other masks. The
descent calls no BLAS: every sum in it (the value, the row dots, the
per-component sums behind the gradient norm and the spectral step) is
numpy's own reduction, ``np.add.reduce`` or the C einsum kernel
(``_einsum``: ``c_einsum``, which ``np.einsum`` itself calls, or
``np.einsum`` where numpy does not expose it), whose order does not
depend on the BLAS thread count. Outside the descent the
rounding's ``v @ g`` and ``lower_bound`` still call BLAS.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import NamedTuple

import numpy as np

from .graphs import DecompositionGraph, MaskAssignment, as_fraction, component_sets, evaluate

try:
    # numpy's C einsum kernel. np.einsum without ``optimize`` hands its
    # arguments to this same kernel, so the two compute the same bits; the
    # binding skips the wrapper's Python dispatch, about 1 µs of a row-dot
    # call on a clip-sized factor
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:  # a numpy that keeps the kernel elsewhere
    _einsum = np.einsum

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
    position k is node ``index[k]``, a node of ``dg``. ``build_cost_matrix``
    takes the positions in id order, ``join_costs`` leaf after leaf."""

    dg: DecompositionGraph
    alpha: Fraction
    ce: np.ndarray
    se: np.ndarray
    index: tuple[int, ...]

    @cached_property
    def positions(self) -> dict[int, int]:
        """Each node's position, the inverse of ``index``."""
        return {node: k for k, node in enumerate(self.index)}


def build_cost_matrix(dg: DecompositionGraph, alpha) -> CostMatrix:
    ce, se = _edge_positions(dg)
    return CostMatrix(dg=dg, alpha=as_fraction(alpha), ce=ce, se=se, index=dg.nodes)


def join_costs(costs) -> CostMatrix:
    """The disjoint union of the matrices ``costs`` of one alpha and
    disjoint node sets: their positions follow one another in order, so
    each keeps its rows, and its pairs, as one block. The join of one
    matrix is that matrix."""
    if len(costs) == 1:
        return costs[0]
    (alpha,) = {cost.alpha for cost in costs}
    offsets = np.cumsum([0] + [len(cost.index) for cost in costs[:-1]])
    dg = DecompositionGraph(
        [i for cost in costs for i in cost.dg.ids],
        [p for cost in costs for p in cost.dg.parents],
        [r for cost in costs for r in cost.dg.rects],
        ce=frozenset().union(*(cost.dg.ce for cost in costs)),
        se=frozenset().union(*(cost.dg.se for cost in costs)),
    )
    return CostMatrix(
        dg=dg, alpha=alpha,
        ce=np.concatenate([cost.ce + k for cost, k in zip(costs, offsets)]),
        se=np.concatenate([cost.se + k for cost, k in zip(costs, offsets)]),
        index=tuple(node for cost in costs for node in cost.index),
    )


@dataclass(frozen=True)
class RelaxationSolution:
    """The relaxation's factor ``v``, one row per node position (unit rows
    from ``solve_relaxation``); the relaxed X is its Gram matrix v vᵀ,
    which is never stored. ``multipliers`` holds the final floor multiplier
    z_e of each conflict pair, in ``cost.ce`` order."""

    cost: CostMatrix
    v: np.ndarray
    converged: bool
    multipliers: np.ndarray
    iterations: int = 0  # descent iterations of the run

    @property
    def index(self) -> tuple[int, ...]:
        return self.cost.index

    @cached_property
    def obj_relaxation(self) -> float:
        """The relaxed objective at this factor; a bound only when the run
        is certified (see the module docstring)."""
        a = float(self.cost.alpha)
        tot = (2.0 / 3.0) * float((_pair_dots(self.v, self.cost.ce) + 0.5).sum())
        return tot + (2.0 * a / 3.0) * float((1.0 - _pair_dots(self.v, self.cost.se)).sum())

    def restrict(self, cost: CostMatrix) -> RelaxationSolution:
        """The part of this run that belongs to ``cost``, one of the
        matrices ``join_costs`` joined into ``self.cost``: that leaf's rows
        and its conflict pairs' multipliers, with the run's ``converged``
        and ``iterations``."""
        if cost is self.cost:
            return self
        n = len(cost.index)
        start = self.cost.positions.get(cost.index[0], -1) if n else 0
        first = int(np.searchsorted(self.cost.ce[:, 0], start))
        ce = self.cost.ce[first:first + len(cost.ce)]
        if start < 0 or self.index[start:start + n] != cost.index or not np.array_equal(
            ce, cost.ce + start
        ):
            raise ValueError("the matrix is not a leaf of this relaxation")
        return RelaxationSolution(
            cost=cost, v=self.v[start:start + n], converged=self.converged,
            multipliers=self.multipliers[first:first + len(cost.ce)], iterations=self.iterations,
        )

    @classmethod
    def from_factor(cls, v, cost: CostMatrix):
        """Wrap a given factor, e.g. one built by hand for the rounding:
        uncertified, with zero multipliers."""
        v = np.asarray(v, dtype=float)
        return cls(cost=cost, v=v, converged=False, multipliers=np.zeros(len(cost.ce)))

    def lower_bound(self) -> float:
        """A lower bound on the objective of every three-mask assignment of
        the graph, from the dual of the relaxation at this factor and these
        multipliers; the module docstring gives the formula. It forms the
        n × n matrix S and its eigenvalues, and subtracts a margin for their
        rounding error. Every objective is a multiple of
        1/``alpha.denominator`` and none is negative, so the bound is
        raised to 0 and then up to that lattice."""
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
        bound = dual / 3.0 + (2.0 / 3.0) * (len(cost.ce) / 2.0 + alpha * len(cost.se))
        lattice = cost.alpha.denominator
        return float(Fraction(math.ceil(Fraction(max(bound, 0.0)) * lattice), lattice))


def _edge_positions(dg: DecompositionGraph):
    """The conflict and stitch edges as sorted pairs of ``dg.nodes`` positions."""
    pos = {node: k for k, node in enumerate(dg.nodes)}
    ce = np.array(sorted((pos[u], pos[v]) for u, v in dg.ce), dtype=int).reshape(-1, 2)
    se = np.array(sorted((pos[u], pos[v]) for u, v in dg.se), dtype=int).reshape(-1, 2)
    return ce, se


def _pair_dots(v, pairs) -> np.ndarray:
    """The entries of the Gram matrix v vᵀ at the position pairs."""
    return (v[pairs[:, 0]] * v[pairs[:, 1]]).sum(axis=1)


def _max_violation(v, ce) -> float:
    # the ufunc's reduce: the np.max wrapper's cost shows on small graphs
    diag = np.maximum.reduce(np.abs((v * v).sum(axis=1) - 1.0), initial=0.0)
    floor = np.maximum.reduce(-0.5 - _pair_dots(v, ce), initial=0.0)
    return float(max(diag, floor))


def _dot(a, b) -> float:
    """The sum of the entries of ``a * b`` by numpy's own reduction and not
    a BLAS dot product, so it does not depend on the BLAS thread count."""
    return float(np.add.reduce(a * b, axis=None))


def _normalize_rows(v: np.ndarray) -> np.ndarray:
    """Scale the rows of ``v`` to unit length in place and return ``v``. No
    row may be 0: a Gaussian row is not, and a descent step, orthogonal to
    its unit row, only lengthens it."""
    norms = np.sqrt(_einsum("ij,ij->i", v, v))
    return np.divide(v, norms[:, None], out=v)


class _EdgeTerms(NamedTuple):
    """The pairs of a ``CostMatrix`` laid out for a factor of ``rank``
    columns, conflict pairs first. ``v.T.take(ends, axis=1)`` puts every
    pair's first endpoint row beside its second's, one factor column per
    row, and ``cells`` sends each of those entries to the flat cell of the
    pair's other endpoint in the gradient's transpose. ``label`` numbers
    each row's connected component, 0 to ``components`` - 1."""

    ends: np.ndarray
    weight: np.ndarray  # 1 per conflict pair, -alpha per stitch pair
    cells: np.ndarray
    conflicts: int
    label: np.ndarray
    components: int


def _edge_terms(cost: CostMatrix, rank: int) -> _EdgeTerms:
    n = len(cost.index)
    pairs = np.concatenate([cost.ce, cost.se])
    weight = np.concatenate([np.ones(len(cost.ce)), np.full(len(cost.se), -float(cost.alpha))])
    others = np.concatenate([pairs[:, 1], pairs[:, 0]])
    cells = (np.arange(rank)[:, None] * n + others).ravel()
    pos = cost.positions
    comps = component_sets(cost.dg.nodes, cost.dg.edges)
    label = np.zeros(n, dtype=np.intp)
    for c, comp in enumerate(comps):
        label[[pos[node] for node in comp]] = c
    return _EdgeTerms(pairs.T.ravel(), weight, cells, len(cost.ce), label, len(comps))


class _Workspace:
    """The arrays one descent writes at every step, made once for a factor
    of ``shape`` on ``edges``, with every view of them that a step reads,
    so a step slices and reshapes nothing: ``_value_at`` leaves the
    endpoint rows, ``first`` and ``second`` of each pair, their row dots
    ``x`` and the hinge here for ``_riemannian_grad`` at the same factor,
    which reads the rows as ``ends``, one endpoint column per row. The
    stitch part of ``coef`` is filled once. The factors are column-major,
    as the descent keeps its factor."""

    def __init__(self, shape, edges: _EdgeTerms):
        n, rank = shape
        self.m = m = len(edges.weight)
        conflicts = edges.conflicts
        self.size = n * rank
        self.transposed = (rank, n)  # the shape bincount's gradient comes in
        self.rows = np.empty((rank, 2 * m))
        self.first, self.second = self.rows[:, :m], self.rows[:, m:]
        self.ends = self.rows.reshape(2 * rank, m)
        self.terms = np.empty((2 * rank, m))
        self.flat_terms = self.terms.ravel()
        self.x = np.empty(m)
        self.x_conflicts = self.x[:conflicts]
        self.product = np.empty(m)  # the products behind a sum over pairs
        self.product_conflicts = self.product[:conflicts]
        self.hinge = np.empty(conflicts)
        self.coef = np.empty(m)
        self.coef_conflicts = self.coef[:conflicts]
        self.coef[conflicts:] = edges.weight[conflicts:]
        self.norms = np.empty(n)  # per row: its norm, or a row dot
        self.norm_column = self.norms[:, None]
        # the descent's trial factors, move and differences, and the
        # gradient's radial part and the products behind a component sum
        self.trials = (np.empty(shape, order="F"), np.empty(shape, order="F"))
        self.move = np.empty(shape, order="F")
        self.dv = np.empty(shape, order="F")
        self.dgrad = np.empty(shape, order="F")
        self.scratch = np.empty(shape, order="F")


def _penalized_value(v, edges: _EdgeTerms, mu, shift):
    """Objective plus quadratic wall penalty: Σ_e w_e·x_e over the pairs'
    row dots x, plus mu·(‖h‖² − ‖shift‖²) over the conflict pairs' hinge h.

    ``shift`` (multiplier estimates divided by 2*mu) moves each hinge so the
    walls can be enforced exactly without driving mu to stiffness; zero shift
    is the plain penalty. Besides the value, returns a new workspace holding
    the hinge and the endpoint rows, which ``_riemannian_grad`` at ``v``
    reads.
    """
    work = _Workspace(v.shape, edges)
    return _value_at(v, edges, mu, shift - 0.5, _dot(shift, shift), work), work


def _value_at(v, edges: _EdgeTerms, mu, offset, shift_sq, work: _Workspace) -> float:
    """``_penalized_value`` into ``work``, given its parts that depend on
    the shift alone, ``offset`` = shift - 1/2 and ``shift_sq`` = ‖shift‖²,
    which a descent computes once."""
    # every position is in range, so "wrap" takes them as they are; with
    # the default "raise", numpy gathers into a buffer and copies it to out.
    # The method skips the np.take wrapper, whose cost shows on small graphs
    v.T.take(edges.ends, axis=1, out=work.rows, mode="wrap")
    x = _einsum("ij,ij->j", work.first, work.second, out=work.x)
    hinge = np.subtract(offset, work.x_conflicts, out=work.hinge)
    np.maximum(0.0, hinge, out=hinge)
    # sums by numpy's own reduction, not a BLAS dot product, so they do not
    # depend on the BLAS thread count
    value = float(np.add.reduce(np.multiply(edges.weight, x, out=work.product), axis=None))
    penalty = float(np.add.reduce(np.multiply(hinge, hinge, out=work.product_conflicts), axis=None))
    return value + mu * (penalty - shift_sq)


def _riemannian_grad(v, edges: _EdgeTerms, mu, work: _Workspace):
    """Gradient on the sphere from the parts ``_value_at`` left in ``work``
    at ``v``: each pair's coefficient times the other endpoint's row, summed
    into the rows, less its radial part. It comes out in column-major
    order, as ``_minimize_on_sphere`` keeps its factor, in a new array."""
    coef = work.coef_conflicts
    np.multiply(2.0 * mu, work.hinge, out=coef)
    np.subtract(1.0, coef, out=coef)
    np.multiply(work.ends, work.coef, out=work.terms)
    grad = np.bincount(edges.cells, weights=work.flat_terms, minlength=work.size)
    if not work.m:  # with no pairs bincount counts in int64
        grad = grad.astype(float)
    grad = grad.reshape(work.transposed).T
    _einsum("ij,ij->i", grad, v, out=work.norms)
    radial = np.multiply(work.norm_column, v, out=work.scratch)
    return np.subtract(grad, radial, out=grad)


def _lipschitz_bound(edges: _EdgeTerms, mu) -> np.ndarray:
    """Per component, a step bound from the weight matrix's largest
    absolute row sum (the weighted degree) and the most conflict pairs at
    one node."""
    n = len(edges.label)
    row = np.bincount(edges.ends, weights=np.tile(np.abs(edges.weight), 2), minlength=n)
    degree = np.bincount(edges.ends.reshape(2, -1)[:, : edges.conflicts].ravel(), minlength=n)
    row_max = np.zeros(edges.components)
    degree_max = np.zeros(edges.components)
    np.maximum.at(row_max, edges.label, row)
    np.maximum.at(degree_max, edges.label, degree)
    return np.maximum(1.0, row_max + 2.0 * mu * degree_max)


def _component_sums(edges: _EdgeTerms, work: _Workspace):
    """The function of ``a`` and ``b`` that returns, per component, the sum
    of ⟨a_i, b_i⟩ over its rows i, by numpy's own reductions into
    ``work``'s scratch arrays. One component takes one reduction and no
    per-row pass, which matters on small graphs, where each numpy call
    costs more than its arithmetic."""
    scratch, norms, label, components = work.scratch, work.norms, edges.label, edges.components
    if components == 1:
        def sums(a, b):
            return [float(np.add.reduce(np.multiply(a, b, out=scratch), axis=None))]
    else:
        def sums(a, b):
            dots = _einsum("ij,ij->i", a, b, out=norms)
            return np.bincount(label, weights=dots, minlength=components).tolist()
    return sums


def _minimize_on_sphere(v, edges: _EdgeTerms, mu, max_iters, shift):
    """Projected gradient with spectral (Barzilai-Borwein) steps and a
    nonmonotone backtracking safeguard; rows are renormalized every step.
    Each connected component starts from the safe step of its Lipschitz
    bound and takes its own spectral update from its rows' part of the
    gradient, as if it ran alone; one acceptance test on the whole value
    halves all steps together. The descent ends when the gradient norm
    falls below ``GRAD_TOL``, when 25 halvings of one step all fail, or
    once its accepted value has not improved by
    ``STALL_TOL * (1 + |best|)`` for ``STALL_WINDOW`` iterations. Returns
    the factor, its gradient norm, the iterations run and its conflict
    pairs' hinge, as ``_penalized_value`` finds it. The few per-component
    numbers are Python floats, which cost less to update than numpy
    arrays.

    Every step writes into one ``_Workspace``: a trial factor goes to the
    one of its two trial arrays that does not hold the accepted factor, so
    ``v`` itself is never written. The buffers and views a step reads are
    bound before the loop, so its sums, moves and trial normalizations
    call numpy directly.
    """
    work = _Workspace(v.shape, edges)
    sums = _component_sums(edges, work)
    one_component = edges.components == 1
    label, move, norms, norm_column = edges.label, work.move, work.norms, work.norm_column
    offset, shift_sq = shift - 0.5, _dot(shift, shift)
    value = _value_at(v, edges, mu, offset, shift_sq, work)
    grad = _riemannian_grad(v, edges, mu, work)
    grad_sq = sums(grad, grad)
    step = (1.0 / _lipschitz_bound(edges, mu)).tolist()
    memory = deque([value], maxlen=10)  # the last 10 accepted values
    best, idle, iterations = value, 0, 0
    v_new, spare = work.trials
    for _ in range(max_iters):
        if idle >= STALL_WINDOW:
            break
        if math.sqrt(sum(grad_sq)) < GRAD_TOL:
            break
        iterations += 1
        idle += 1
        # each row's move at its component's full step (of one component,
        # the step as a scalar), and the decrease the acceptance test asks
        # of it; a failed trial halves both
        if one_component:
            np.multiply(step[0], grad, out=move)
        else:
            # from an array: np.take of a list converts it in Python
            np.array(step).take(label, out=norms, mode="wrap")
            np.multiply(norm_column, grad, out=move)
        decrease = 1e-4 * sum(map(mul, step, grad_sq))
        reference = max(memory)
        scale = 1.0
        accepted = False
        for _ in range(25):
            # the trial, its rows scaled to unit length as _normalize_rows does
            np.subtract(v, move, out=v_new)
            np.sqrt(_einsum("ij,ij->i", v_new, v_new, out=norms), out=norms)
            np.divide(v_new, norm_column, out=v_new)
            value_new = _value_at(v_new, edges, mu, offset, shift_sq, work)
            if value_new <= reference - scale * decrease:
                accepted = True
                break
            scale *= 0.5
            move *= 0.5
        if not accepted:
            # the workspace holds the last rejected trial's hinge
            _value_at(v, edges, mu, offset, shift_sq, work)
            break
        grad_new = _riemannian_grad(v_new, edges, mu, work)
        dv = np.subtract(v_new, v, out=work.dv)
        moved = sums(dv, dv)
        curved = sums(dv, np.subtract(grad_new, grad, out=work.dgrad))
        step = [
            min(max(s / y if y > 1e-16 else 2.0 * scale * t, 1e-12), 1e3)
            for s, y, t in zip(moved, curved, step)
        ]
        v, value, grad = v_new, value_new, grad_new
        v_new, spare = spare, v_new
        grad_sq = sums(grad, grad)
        memory.append(value)
        if value < best - STALL_TOL * (1.0 + abs(best)):
            best, idle = value, 0
    return v, math.sqrt(sum(grad_sq)), iterations, work.hinge


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
    # column-major: each factor column is contiguous, as the descent reads it
    v = np.asfortranarray(_normalize_rows(np.random.default_rng(seed).normal(size=(n, min(n, RANK)))))
    v, grad_norm, iterations, hinge = _minimize_on_sphere(
        v, edges, MU_INITIAL, MAX_ITERS, np.zeros(len(cost.ce)))
    violation = _max_violation(v, cost.ce)
    for _ in range(MULTIPLIER_ROUNDS):
        if grad_norm >= GRAD_TOL or violation <= CONSTRAINT_TOL:
            break
        # the hinge at the last shift is the next shift: the multiplier
        # estimates divided by 2*mu
        v, grad_norm, used, hinge = _minimize_on_sphere(v, edges, MU_INITIAL, MAX_ITERS, hinge)
        iterations += used
        violation = _max_violation(v, cost.ce)
    v = np.ascontiguousarray(v)
    return RelaxationSolution(
        cost=cost, v=v, converged=grad_norm < GRAD_TOL and violation <= CONSTRAINT_TOL,
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


def _put(buckets: dict[int, list[int]], key: int, candidate: int) -> None:
    """Append ``candidate`` to the bucket ``key``."""
    entries = buckets.get(key)
    if entries is None:
        buckets[key] = [candidate]
    else:
        entries.append(candidate)


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
    own, numbered 3k + c, has a cost change ``delta`` (None for a node's
    own color) and sits in a bucket keyed by it: free candidates in one
    dict of buckets, barred ones in another, so the cheapest allowed
    candidates are found among the lowest keys. A move changes the costs of
    the moved node and its neighbors only, and each change follows from
    the old one: the moved node's by the chosen change, and each neighbor's
    two candidates by the weight of its link or twice it. A release list
    frees each barred candidate when its tenure ends.

    A candidate that changes key is appended to its new bucket and left in
    its old one: an entry is valid while its candidate's delta is the
    bucket's key and its candidate is free or barred as the bucket is, and
    a bucket is read, and its stale entries dropped, only when it is the
    lowest. The lowest free bucket's valid entries are also kept in
    candidate order as candidates enter and leave its key, so a pick
    indexes them; they are sorted afresh only when the lowest free key
    changes, and merged with the barred ties only when aspiration admits
    them.
    """
    n = len(labels)
    moves = TABU_ITERATIONS * n
    picks = rng.random(moves).tolist()
    tenures = (TABU_TENURE + rng.integers(TABU_SPREAD, size=moves)).tolist()
    colors = list(labels)
    # per candidate: its cost change, and while barred the move that frees it
    delta: list[int | None] = [None] * (3 * n)
    barred_until = [0] * (3 * n)
    free: dict[int, list[int]] = {}
    barred: dict[int, list[int]] = {}
    release: list[list[int]] = [[] for _ in range(moves)]
    for k, node_links in enumerate(links):
        # the node's cost on color c, up to a constant, as in _one_opt
        row = [0, 0, 0]
        for other, weight in node_links:
            row[colors[other]] += weight
        for c in range(3):
            if c != colors[k]:
                delta[3 * k + c] = change = row[c] - row[colors[k]]
                _put(free, change, 3 * k + c)
    # the valid free candidates of change ordered_key, in candidate order
    ordered_key, ordered = None, []
    cost = best_cost = 0  # relative to the start
    best = list(colors)
    for move in range(moves):
        for i in release[move]:
            if barred_until[i] == move:  # not taken or barred again since
                barred_until[i] = 0
                _put(free, delta[i], i)
                if delta[i] == ordered_key:
                    insort(ordered, i)
        # the lowest free key with a valid entry; a candidate may sit in a
        # bucket twice, so the set
        low = None
        while free:
            low = min(free)
            if low != ordered_key:
                ordered_key = low
                ordered = sorted({i for i in free[low] if delta[i] == low and not barred_until[i]})
                free[low] = list(ordered)
            if ordered:
                break
            del free[low]
            low = None
        ties = ordered
        # aspiration: a barred candidate is allowed below this cost change
        aspiration = best_cost - cost
        while barred and min(barred) < aspiration:
            key = min(barred)
            valid = sorted({i for i in barred[key] if delta[i] == key and barred_until[i]})
            if not valid:
                del barred[key]
                continue
            barred[key] = valid
            if low is None or key < low:
                low, ties = key, valid
            elif key == low:
                ties = sorted(ordered + valid)
            break
        if low is None:
            continue
        chosen = ties[int(picks[move] * len(ties))]
        k, color = divmod(chosen, 3)
        old = colors[k]
        colors[k] = color
        if not barred_until[chosen]:
            del ordered[bisect_left(ordered, chosen)]
        delta[chosen] = None
        barred_until[chosen] = 0
        # returning undoes the move, and the third color's change falls by
        # the chosen one
        back = 3 * k + old
        barred_until[back] = until = move + tenures[move]
        if until < moves:
            release[until].append(back)
        delta[back] = -low
        _put(barred, -low, back)
        third = 3 - old - color
        i = 3 * k + third
        key = delta[i]
        delta[i] = change = key - low
        if barred_until[i]:
            _put(barred, change, i)
        else:
            _put(free, change, i)
            if key == ordered_key:
                del ordered[bisect_left(ordered, i)]
            if change == ordered_key:
                insort(ordered, i)
        for other, weight in links[k]:
            # the neighbor's two candidates: its cost on color old falls by
            # weight and on color rises by it, so each change moves by
            # weight or twice it; _put is inlined, as this loop is the
            # search's time
            own = colors[other]
            base = 3 * other
            if own == old:
                i, step, j, step_j = base + color, 2 * weight, base + third, weight
            elif own == color:
                i, step, j, step_j = base + old, -2 * weight, base + third, -weight
            else:
                i, step, j, step_j = base + old, -weight, base + color, weight
            key = delta[i]
            delta[i] = change = key + step
            bucket = barred if barred_until[i] else free
            entries = bucket.get(change)
            if entries is None:
                bucket[change] = [i]
            else:
                entries.append(i)
            if bucket is free:
                if key == ordered_key:
                    del ordered[bisect_left(ordered, i)]
                if change == ordered_key:
                    insort(ordered, i)
            key = delta[j]
            delta[j] = change = key + step_j
            bucket = barred if barred_until[j] else free
            entries = bucket.get(change)
            if entries is None:
                bucket[change] = [j]
            else:
                entries.append(j)
            if bucket is free:
                if key == ordered_key:
                    del ordered[bisect_left(ordered, j)]
                if change == ordered_key:
                    insort(ordered, j)
        cost += low
        if cost < best_cost:
            best_cost = cost
            best = list(colors)
    return best


def _integer_costs(labels: np.ndarray, ce, se, frac) -> list[int]:
    """Exact integer cost of each row of ``labels`` (one label per node
    position, int8 as ``_first_largest`` makes them, so the gathers of the
    pairs' endpoint labels move a byte per label): ``frac.denominator`` per
    conflict, ``frac.numerator`` per stitch. numpy counts, Python ints
    weigh, so no cost wraps or overflows. The gathers ``take`` rows of the
    transpose, one per pair end, which numpy does faster than it indexes a
    column of every draw: with the Fraction's parts read once, that took
    the call on a relaxed clip's 200 draws from about 69 to 42 µs."""
    ends = labels.T
    conflicts = (ends.take(ce[:, 0], axis=0) == ends.take(ce[:, 1], axis=0)).sum(axis=0).tolist()
    stitches = (ends.take(se[:, 0], axis=0) != ends.take(se[:, 1], axis=0)).sum(axis=0).tolist()
    den, num = frac.denominator, frac.numerator
    return [den * c + num * s for c, s in zip(conflicts, stitches)]


def _polish(labels: list[int], ce, se, frac, rng) -> list[int]:
    """``_one_opt``, ``_tabu_search`` on ``rng``, then ``_one_opt`` on a
    label list indexed by node position, with the conflict and stitch pairs
    ``ce`` and ``se`` of those positions and the exact alpha ``frac``."""
    links = _neighbor_links(len(labels), ce, se, frac)
    labels = _tabu_search(links, _one_opt(links, labels), rng)
    return _one_opt(links, labels)


def _first_largest(dots: np.ndarray) -> np.ndarray:
    """``np.argmax(dots, axis=-1)`` over a last axis of 3, the first
    largest on a tie, as int8 labels, in two comparisons over whole arrays:
    argmax over so short an axis runs its loop once per entry of the
    others."""
    first, second, third = dots[..., 0], dots[..., 1], dots[..., 2]
    upper = (second > first).view(np.int8)
    return np.where(third > np.maximum(first, second), np.int8(2), upper)


def map_to_masks(sol: RelaxationSolution, seed: int = 42) -> MaskAssignment:
    """Round a relaxation to three masks and polish the cheapest draw.

    Each of ``DRAWS`` Gaussian draws of three vectors, seeded by ``seed``,
    labels every node by the vector with the largest dot product with the
    node's factor row (Frieze & Jerrum 1997). The draw of lowest exact
    integer cost, the first on a tie, takes the steps of ``_polish`` on the
    generator that made the draws. The graph, its pairs and the exact alpha
    come from ``sol.cost``.
    """
    cost = sol.cost
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(DRAWS, sol.v.shape[1], 3))
    labels = _first_largest(sol.v @ g)  # (draw, node position)
    costs = _integer_costs(labels, cost.ce, cost.se, cost.alpha)
    start = labels[costs.index(min(costs))].tolist()
    polished = _polish(start, cost.ce, cost.se, cost.alpha, rng)
    return evaluate(cost.dg, dict(zip(sol.index, polished)), cost.alpha)
