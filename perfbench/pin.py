"""Regenerate pins.json: the generator seeds of each workload's main and
held-out corpus, and the digest of every layout file they produce.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/pin.py

Run it only to change a workload on purpose: new pins define a new
benchmark, and every baseline must be measured again. Where a workload
fixes how many layouts reach the relaxation, that is decided here, at the
commit that makes the pins, and never recomputed.
"""

from __future__ import annotations

import json
import sys
from itertools import count

import trimask.pipeline
from trimask.cli import generate_layout
from trimask.pipeline import DecomposeConfig, decompose

from inputs import HELD_OUT_FROM, PINS_FILE, WORKLOADS, digest, layout_bytes
from spans import Tracer


def reaches_relaxation(layout) -> bool:
    tracer = Tracer()
    with tracer.patched(trimask.pipeline):
        decompose(layout, DecomposeConfig(solver="auto", seed=42))
    return any(span["name"] == "solve_relaxation" for span in tracer.spans)


def corpus(spec, first: int) -> dict[str, str]:
    """Generator seed -> digest, taking seeds in order from ``first``."""
    wanted = {True: spec.relaxed, False: spec.layouts - spec.relaxed} if spec.relaxed else None
    found = {}
    for gen_seed in count(first):
        if len(found) == spec.layouts:
            return found
        layout = generate_layout(spec.shapes, spec.density, seed=gen_seed)
        if wanted is not None:
            relaxed = reaches_relaxation(layout)
            if wanted[relaxed] == 0:
                continue
            wanted[relaxed] -= 1
        found[str(gen_seed)] = digest(layout_bytes(layout))


def main() -> int:
    pins = {
        name: {"main": corpus(spec, 1), "held_out": corpus(spec, HELD_OUT_FROM + 1)}
        for name, spec in WORKLOADS.items()
    }
    PINS_FILE.write_text(json.dumps(pins, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
