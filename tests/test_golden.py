"""Pinned digests of outputs that no BLAS build or thread count can move.

A layout that peels whole never reaches a solver, and elimination is
integer work; neither calls BLAS or LAPACK, so these outputs are the same
on every host. The relaxation's outputs are not pinned here:
they can differ with the BLAS thread count (see the README's Notes).

These digests change only when the program's output changes. An intended
change re-pins them here, with a line in CHANGES.md saying what moved and
why.
"""

import hashlib
import json

from trimask.cli import format_assignment, generate_layout
from trimask.pipeline import DecomposeConfig, decompose


def digest(*texts: str) -> str:
    """The first 16 hex digits of the SHA-256 of the concatenated texts."""
    return hashlib.sha256("".join(texts).encode()).hexdigest()[:16]


def payload_text(result) -> str:
    return json.dumps(result.payload(), sort_keys=True)


def test_a_sparse_layout_that_peels_whole():
    result = decompose(generate_layout(5000, 2, seed=1), DecomposeConfig(seed=42))
    assert digest(payload_text(result)) == "b2e614cf66e68afb"
    assert digest(format_assignment(result.assignment)) == "7ad089b5d1d9b930"


def test_layouts_that_split_stitch_peel_and_eliminate():
    cfg = DecomposeConfig(solver="exact", seed=42)
    results = [
        decompose(generate_layout(n, density, seed=seed), cfg)
        for n, density, seed in [(200, 6, 1), (400, 6, 2)]
    ]
    # every path these digests should pin is taken, and no piece relaxes
    assert all(r.dg.se and r.peeled and r.proven_optimal for r in results)
    assert digest(*map(payload_text, results)) == "79245082fd75d141"
