"""The ten-seed quality protocol: mean objective over ten decompose seeds.

One decompose seed moves an objective by as much as the benchmark's 2%
quality bound, so a change that alters payloads is judged on the mean over
the decompose seeds 1, 2, 3, 5, 7, 11, 13, 42, 99 and 1234, with the range
over the seeds beside it. Each source tree runs in its own interpreter with
one BLAS thread, ``solver="auto"``:

    python tools/ten_seeds.py                          # this checkout
    python tools/ten_seeds.py --src ../base/src --src src

With two or more ``--src`` trees the table shows each tree's mean and
range, and the last tree's mean against the first's. The instances are
both ``dense`` corpora (sum of their 4 layouts), the 20 relaxed clips of
each ``clips`` corpus (sum), and ``generate_layout`` rungs: each rung's
generator seeds one row each, then a row of their sums per decompose seed.
The change is judged on the sums only: a re-draw can move one generator
seed's mean by more than 1% either way. The corpora and their pins are
read through ``perfbench/inputs.py``, and each generated layout must
still have its pinned digest.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import inputs  # noqa: E402

SEEDS = (1, 2, 3, 5, 7, 11, 13, 42, 99, 1234)
# (shapes, density, generator seeds) of the generator rungs
RUNGS = ((400, 4, (1, 2, 3)), (400, 6, (1, 2, 3)), (1000, 3, (1, 2)),
         (2000, 4, (1, 2)), (2000, 6, (1, 2, 3)))


def _corpus(workload: str, part: str):
    """The layouts of a pinned corpus, each checked against its digest."""
    from trimask.cli import generate_layout

    spec = inputs.WORKLOADS[workload]
    layouts = []
    for gen_seed, pinned in inputs.load_pins()[workload][part].items():
        layout = generate_layout(spec.shapes, spec.density, seed=int(gen_seed))
        if inputs.digest(inputs.layout_bytes(layout)) != pinned:
            raise SystemExit(f"{workload}/{part}/g{gen_seed} no longer has its pinned digest")
        layouts.append(layout)
    return layouts


def _objectives(layouts) -> list[float]:
    """Per decompose seed, the summed objective of ``layouts``."""
    from trimask.pipeline import DecomposeConfig, decompose

    return [
        sum(decompose(layout, DecomposeConfig(solver="auto", seed=seed)).objective
            for layout in layouts)
        for seed in SEEDS
    ]


def _relaxed(layouts):
    """The layouts whose decomposition reaches the relaxation."""
    from trimask.pipeline import DecomposeConfig, decompose

    return [
        layout for layout in layouts
        if any(r.solver in ("sdp", "mixed")
               for r in decompose(layout, DecomposeConfig(solver="auto")).per_component)
    ]


def measure() -> dict[str, list[float]]:
    """Instance name -> objective per decompose seed, for the trimask on
    ``sys.path``."""
    from trimask.cli import generate_layout

    rows = {}
    for part in ("main", "held_out"):
        rows[f"dense {part}, sum of 4"] = _objectives(_corpus("dense", part))
    for part in ("main", "held_out"):
        clips = _relaxed(_corpus("clips", part))
        rows[f"clips {part}, {len(clips)} relaxed, sum"] = _objectives(clips)
    for shapes, density, gen_seeds in RUNGS:
        per_seed = []
        for gen_seed in gen_seeds:
            layout = generate_layout(shapes, density, seed=gen_seed)
            per_seed.append(_objectives([layout]))
            rows[f"({shapes}, {density}) seed {gen_seed}"] = per_seed[-1]
        seeds = ", ".join(map(str, gen_seeds))
        rows[f"({shapes}, {density}) seeds {seeds}, sum"] = [sum(v) for v in zip(*per_seed)]
    return rows


def _judged(name: str) -> bool:
    """Whether the table judges a row's change: every row but a single
    generator seed of a rung."""
    return ") seed " not in name


def _run(src: str) -> dict[str, list[float]]:
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    out = subprocess.run([sys.executable, __file__, "--measure"], env=env,
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def table(srcs: list[str], results: list[dict[str, list[float]]]) -> str:
    head = ["instance"] + [f"mean (range) {src}" for src in srcs]
    if len(results) > 1:
        head.append("change")
    lines = [" | ".join(head), " | ".join("---" for _ in head)]
    for name in results[0]:
        cells = [name]
        for result in results:
            values = result[name]
            cells.append(f"{sum(values) / len(values):.2f} "
                         f"({min(values):.1f}–{max(values):.1f})")
        if len(results) > 1:
            first, last = sum(results[0][name]), sum(results[-1][name])
            judged = first and _judged(name)
            cells.append(f"{100.0 * (last - first) / first:+.2f}%" if judged else "—")
        lines.append(" | ".join(cells))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append",
                        help="a source tree holding the trimask package (repeatable)")
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure()))
        return 0
    srcs = args.src or [str(ROOT / "src")]
    print(f"decompose seeds: {', '.join(map(str, SEEDS))}")
    print(table(srcs, [_run(src) for src in srcs]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
