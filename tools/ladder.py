"""The ladder benchmark: decompose a fixed ladder of generated layouts and
write one ``BENCH_<short sha>.json`` per source tree at the repository root.

The instances are ``generate_layout`` at 40 / 400 / 2000 shapes and
density 2, 4 and 6, generator seeds 1-3, plus (1000, 3) and (5000, 4) at
seed 1. Each decomposes with ``DecomposeConfig(seed=42)``; the wall time is
the median of 3 decompose calls. Each source tree runs in its own
interpreter with one BLAS thread:

    python tools/ladder.py                          # this checkout
    python tools/ladder.py --src ../base/src --src src

The file is named after ``git rev-parse --short HEAD`` of the tree's
checkout, with ``-dirty`` added when the checkout has uncommitted changes.
With two or more ``--src`` trees the table shows each tree's figures and
the last tree's wall time against the first's.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
INSTANCES = [(shapes, density, seed)
             for shapes in (40, 400, 2000) for density in (2, 4, 6) for seed in (1, 2, 3)]
INSTANCES += [(1000, 3, 1), (5000, 4, 1)]
REPEATS = 3
NOTES = [
    "decompose_s: median of 3 decompose calls in one process, one BLAS thread",
    "components, largest, proven: the components of the peeled residual graph "
    "that the solvers see, from DecomposeResult.per_component",
    "greedy_one_opt: perfbench.checks.greedy_one_opt on the whole decomposition graph",
    "sdp_iterations: summed over the components; every relaxed component of a "
    "pass reports the iterations of the pass's one relaxation run",
    "density <= 2 ignores the generator seed: every seed gives the same "
    "decomposition graph (each row a chain that peels whole), see the payload digests",
]


def measure() -> list[dict]:
    """One record per instance, for the trimask on ``sys.path``."""
    sys.path.insert(0, str(ROOT))
    from perfbench.checks import greedy_one_opt
    from trimask.cli import generate_layout
    from trimask.graphs import as_fraction
    from trimask.pipeline import DecomposeConfig, decompose

    cfg = DecomposeConfig(seed=42)
    records = []
    for shapes, density, seed in INSTANCES:
        layout = generate_layout(shapes, density, seed=seed)
        walls = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            result = decompose(layout, cfg)
            walls.append(time.perf_counter() - t0)
        reports = result.per_component
        dg = result.dg
        payload = json.dumps(result.payload(), sort_keys=True).encode()
        records.append({
            "shapes": shapes,
            "density": density,
            "seed": seed,
            "decompose_s": round(statistics.median(walls), 4),
            "segments": len(dg.segments),
            "ce": len(dg.ce),
            "se": len(dg.se),
            "components": len(reports),
            "largest": max((r.size for r in reports), default=0),
            "proven": sum(r.proven_optimal for r in reports),
            "objective": result.objective,
            "greedy_one_opt": float(greedy_one_opt(
                dg.nodes, dg.ce, dg.se, as_fraction(layout.params.alpha))),
            "sdp_iterations": sum(r.sdp_iterations for r in reports),
            "payload": hashlib.sha256(payload).hexdigest()[:16],
        })
    return records


def _commit(src: Path) -> str:
    """Short sha of the checkout holding ``src``, ``-dirty`` if it has
    uncommitted changes."""
    def git(*args):
        return subprocess.run(["git", "-C", str(src), *args], check=True,
                              capture_output=True, text=True).stdout.strip()

    sha = git("rev-parse", "--short", "HEAD")
    return sha + ("-dirty" if git("status", "--porcelain", "--untracked-files=no") else "")


def _run(src: str) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    out = subprocess.run([sys.executable, __file__, "--measure"], env=env,
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def write(src: str, records: list[dict]) -> Path:
    commit = _commit(Path(src).resolve())
    path = ROOT / f"BENCH_{commit}.json"
    doc = {
        "commit": commit,
        "machine": {"python": platform.python_version(), "cpus": os.cpu_count()},
        "config": {"seed": 42, "solver": "auto", "repeats": REPEATS, "blas_threads": 1},
        "notes": NOTES,
        "instances": records,
    }
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


def table(srcs: list[str], results: list[list[dict]]) -> str:
    head = ["instance", "segments / CE / SE", "components (largest, proven)"]
    for src in srcs:
        head += [f"decompose s {src}", f"objective {src}"]
    head += ["greedy + 1-opt", "sdp iterations"]
    if len(results) > 1:
        head.append("wall change")
    lines = [" | ".join(head), " | ".join("---" for _ in head)]
    for rows in zip(*results):
        last = rows[-1]
        cells = [f"({last['shapes']}, {last['density']}) seed {last['seed']}",
                 f"{last['segments']} / {last['ce']} / {last['se']}",
                 f"{last['components']} ({last['largest']}, {last['proven']})"]
        for row in rows:
            cells += [f"{row['decompose_s']:.3f}", f"{row['objective']:.1f}"]
        cells += [f"{last['greedy_one_opt']:.1f}", str(last["sdp_iterations"])]
        if len(results) > 1:
            first = rows[0]["decompose_s"]
            cells.append(f"{100.0 * (last['decompose_s'] - first) / first:+.1f}%")
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
    results = [_run(src) for src in srcs]
    for src, records in zip(srcs, results):
        print(f"wrote {write(src, records)}")
    print(table(srcs, results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
