from typing import NamedTuple
from unittest.mock import patch

import numpy as np
import pytest

import trimask.ilp
import trimask.sdp
from trimask.geometry import Layout, ProcessParams, Shape
from trimask.graphs import DecompositionGraph


def random_graph(rng, n, ce_density=0.3, se_density=0.1):
    """Random decomposition graph; each pair independently becomes CE with
    probability ce_density, else SE with probability se_density."""
    ce, se = [], []
    for i in range(n):
        for j in range(i + 1, n):
            r = rng.random()
            if r < ce_density:
                ce.append((i, j))
            elif r < ce_density + se_density:
                se.append((i, j))
    return DecompositionGraph.from_edges(n, ce=ce, se=se)


def elimination_budget(budget):
    """A context in which ``solve_exact`` fills at most ``budget`` table
    entries per graph: ``ilp.ELIMINATION_BUDGET`` patched to ``budget``."""
    return patch.object(trimask.ilp, "ELIMINATION_BUDGET", budget)


def triangle_graph():
    return DecompositionGraph.from_edges(3, ce=[(0, 1), (1, 2), (0, 2)])


def k4_graph():
    return DecompositionGraph.from_edges(
        4, ce=[(i, j) for i in range(4) for j in range(i + 1, 4)]
    )


def worked_example_graph():
    """Five-node reference instance: 7 conflict edges plus 1 stitch edge,
    3-colorable while keeping the stitched pair on one mask."""
    ce = [(1, 2), (1, 3), (1, 5), (2, 3), (2, 5), (3, 4), (4, 5)]
    return DecompositionGraph.from_edges([1, 2, 3, 4, 5], ce=ce, se=[(1, 4)])


# a peeled shape of this layout finds no free color against a split
# neighbor, so ``decompose`` redoes its layout-graph component unpeeled
PEEL_FALLBACK_LAYOUT = Layout(
    shapes=tuple(Shape(id=i, rect=r) for i, r in enumerate([
        (295, 44, 320, 158), (176, 300, 333, 325), (207, 249, 302, 274),
        (355, 193, 380, 489), (368, 90, 673, 115), (195, 184, 354, 209),
    ])),
    params=ProcessParams(),
)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


class Descent(NamedTuple):
    """One relaxation descent: its penalty weight and hinge shift, and the
    factor, gradient norm and iterations it returned."""

    mu: float
    shift: np.ndarray
    v: np.ndarray
    grad_norm: float
    iterations: int


@pytest.fixture
def descents(monkeypatch):
    """Every relaxation descent, in call order, as a ``Descent``."""
    descend = trimask.sdp._minimize_on_sphere
    seen = []

    def spy(v, edges, mu, max_iters, shift):
        found = descend(v, edges, mu, max_iters, shift)
        seen.append(Descent(mu, shift, *found))
        return found

    monkeypatch.setattr(trimask.sdp, "_minimize_on_sphere", spy)
    return seen
