"""The ladder benchmark: decompose a fixed ladder of generated layouts and
write one ``BENCH_<short sha>.json`` per source tree at the repository root.

The instances are ``generate_layout`` at 40 / 400 / 2000 shapes and
density 2, 4 and 6, generator seeds 1-3, plus (1000, 3) and (5000, 4) at
seed 1. Each decomposes with ``DecomposeConfig(seed=42, solver=...)``,
``--solver auto`` (the default) or ``exact``; the wall time is
the median of 3 decompose calls, shown with their min-max, and beside it
the median garbage collections of a call, per generation. Each source
tree runs in its own long-lived interpreter with one BLAS thread, and the
trees take turns, instance by instance and repeat by repeat, with the
first turn passing from tree to tree, so a drift in the host's speed
reaches every tree alike:

    python tools/ladder.py                          # this checkout
    python tools/ladder.py --src ../base/src --src src
    python tools/ladder.py --solver exact           # every piece eliminated

The file is named after ``git rev-parse --short HEAD`` of the tree's
checkout, with ``-dirty`` added when the checkout has uncommitted changes,
or ``nogit`` for a tree outside any checkout (a ``git archive`` copy, say),
and after the solver unless it is ``auto``: ``BENCH_exact_<sha>.json``.
The names are taken before the ladder runs.
With two or more ``--src`` trees the table shows each tree's figures, the
last tree's wall time against the first's, and whether every tree's
payload digest is equal. The digest covers what the command line writes
too: the assignment file and the stats file, less its wall time. The wall
change reads "within spread" when the two trees' min-max ranges overlap:
host noise alone can then explain it.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
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
    "decompose_s: median of 3 decompose calls in one long-lived process per tree, one BLAS "
    "thread; the trees take turns, instance by instance and repeat by repeat; "
    "decompose_range_s: their min and max",
    "components, largest, proven: the components of the peeled residual graph "
    "that the solvers see, from DecomposeResult.per_component",
    "greedy_one_opt: perfbench.checks.greedy_one_opt on the whole decomposition graph",
    "sdp_iterations: the descent iterations of each pass's one relaxation run, counted "
    "once per pass (a peel-fallback redo is a second pass); relaxed: the components "
    "with a piece in that run",
    "density <= 2 ignores the generator seed: every seed gives the same "
    "decomposition graph (each row a chain that peels whole), see the payload digests",
    "gc_collections: the gen-0, gen-1 and gen-2 collections of the cyclic garbage "
    "collector during each timed decompose call, one triple per repeat, counted with "
    "gc.callbacks",
    "payload: SHA-256 prefix of the sorted-key JSON of DecomposeResult.payload(), "
    "then format_assignment(result.assignment), then format_stats(result) with "
    "wall_time 0; digests in files that hashed payload() alone do not compare",
]


def serve(solver: str) -> None:
    """Answer one request per stdin line, for the trimask on ``sys.path``
    and ``solver``:
    ``{"index": i, "repeat": r}`` decomposes instance i once and replies
    with its wall time and the garbage collections it took, per
    generation, and on repeat 0 with its other figures too."""
    sys.path.insert(0, str(ROOT))
    from perfbench.checks import greedy_one_opt
    from trimask.cli import format_assignment, format_stats, generate_layout
    from trimask.graphs import as_fraction
    from trimask.pipeline import DecomposeConfig, decompose

    def record(layout, result) -> dict:
        reports = result.per_component
        dg = result.dg
        # what the command line writes, the stats less their wall time
        written = (json.dumps(result.payload(), sort_keys=True)
                   + format_assignment(result.assignment)
                   + format_stats(dataclasses.replace(result, wall_time=0.0)))
        relaxed = [r for r in reports if r.sdp_converged is not None]
        # every relaxed report of a pass carries that pass's one run
        passes = {r.peel_fallback: r.sdp_iterations for r in relaxed}
        return {
            "segments": len(dg.ids),
            "ce": len(dg.ce),
            "se": len(dg.se),
            "components": len(reports),
            "largest": max((r.size for r in reports), default=0),
            "proven": sum(r.proven_optimal for r in reports),
            "objective": result.objective,
            "greedy_one_opt": float(greedy_one_opt(
                dg.nodes, dg.ce, dg.se, as_fraction(layout.params.alpha))),
            "sdp_iterations": sum(passes.values()),
            "relaxed": len(relaxed),
            "payload": hashlib.sha256(written.encode()).hexdigest()[:16],
        }

    collections = [0, 0, 0]  # per generation, during the current decompose call

    def count(phase, info):
        if phase == "stop":
            collections[info["generation"]] += 1

    gc.callbacks.append(count)
    cfg = DecomposeConfig(seed=42, solver=solver)
    layouts = {}
    for line in sys.stdin:
        request = json.loads(line)
        index = request["index"]
        if index not in layouts:
            shapes, density, seed = INSTANCES[index]
            layouts = {index: generate_layout(shapes, density, seed=seed)}
        collections[:] = [0, 0, 0]
        t0 = time.perf_counter()
        result = decompose(layouts[index], cfg)
        reply = {"wall": time.perf_counter() - t0, "collections": list(collections)}
        if request["repeat"] == 0:
            reply["record"] = record(layouts[index], result)
        print(json.dumps(reply), flush=True)


class Tree:
    """One source tree's long-lived ``--serve`` interpreter."""

    def __init__(self, src: str, solver: str):
        env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()),
                   OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        self.proc = subprocess.Popen([sys.executable, __file__, "--serve", "--solver", solver],
                                     env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)

    def ask(self, index: int, repeat: int) -> dict:
        self.proc.stdin.write(json.dumps({"index": index, "repeat": repeat}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"the worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)


def measure(srcs: list[str], solver: str) -> list[list[dict]]:
    """One record per instance for each tree, the trees taking turns."""
    trees = []
    try:
        for src in srcs:
            trees.append(Tree(src, solver))
        results: list[list[dict]] = [[] for _ in srcs]
        for index, (shapes, density, seed) in enumerate(INSTANCES):
            walls: list[list[float]] = [[] for _ in srcs]
            records = [{"shapes": shapes, "density": density, "seed": seed, "gc_collections": []}
                       for _ in srcs]
            for repeat in range(REPEATS):
                for turn in range(len(trees)):
                    t = (repeat + turn) % len(trees)
                    reply = trees[t].ask(index, repeat)
                    walls[t].append(reply["wall"])
                    records[t]["gc_collections"].append(reply["collections"])
                    records[t].update(reply.get("record", {}))
            for t, rec in enumerate(records):
                rec["decompose_s"] = round(statistics.median(walls[t]), 4)
                rec["decompose_range_s"] = [round(min(walls[t]), 4), round(max(walls[t]), 4)]
                results[t].append(rec)
        return results
    finally:
        for tree in trees:
            tree.close()


def _commit(src: Path) -> str:
    """Short sha of the checkout holding ``src``, ``-dirty`` if it has
    uncommitted changes; ``nogit`` if no checkout holds it."""
    def git(*args):
        return subprocess.run(["git", "-C", str(src), *args], check=True,
                              capture_output=True, text=True).stdout.strip()

    try:
        sha = git("rev-parse", "--short", "HEAD")
    except subprocess.CalledProcessError:
        return "nogit"
    return sha + ("-dirty" if git("status", "--porcelain", "--untracked-files=no") else "")


def write(commit: str, solver: str, records: list[dict]) -> Path:
    path = ROOT / (f"BENCH_{commit}.json" if solver == "auto" else f"BENCH_{solver}_{commit}.json")
    doc = {
        "commit": commit,
        "machine": {"python": platform.python_version(), "cpus": os.cpu_count()},
        "config": {"seed": 42, "solver": solver, "repeats": REPEATS, "blas_threads": 1},
        "notes": NOTES,
        "instances": records,
    }
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


def table(srcs: list[str], results: list[list[dict]]) -> str:
    head = ["instance", "segments / CE / SE", "components (largest, proven)"]
    for src in srcs:
        head += [f"decompose s (min-max) {src}", f"gc gen 0/1/2 {src}", f"objective {src}"]
    head += ["greedy + 1-opt", "sdp iterations (relaxed)"]
    if len(results) > 1:
        head += ["wall change", "payload equal"]
    lines = [" | ".join(head), " | ".join("---" for _ in head)]
    for rows in zip(*results):
        last = rows[-1]
        cells = [f"({last['shapes']}, {last['density']}) seed {last['seed']}",
                 f"{last['segments']} / {last['ce']} / {last['se']}",
                 f"{last['components']} ({last['largest']}, {last['proven']})"]
        for row in rows:
            low, high = row["decompose_range_s"]
            # the median collections per generation over the repeats
            gens = (statistics.median(g) for g in zip(*row["gc_collections"]))
            cells += [f"{row['decompose_s']:.3f} ({low:.3f}-{high:.3f})",
                      "/".join(f"{g:g}" for g in gens), f"{row['objective']:.1f}"]
        cells += [f"{last['greedy_one_opt']:.1f}", f"{last['sdp_iterations']} ({last['relaxed']})"]
        if len(results) > 1:
            (low0, high0), (low1, high1) = rows[0]["decompose_range_s"], last["decompose_range_s"]
            first = rows[0]["decompose_s"]
            cells.append("within spread" if low1 <= high0 and low0 <= high1
                         else f"{100.0 * (last['decompose_s'] - first) / first:+.1f}%")
            cells.append("yes" if len({row["payload"] for row in rows}) == 1 else "no")
        lines.append(" | ".join(cells))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append",
                        help="a source tree holding the trimask package (repeatable)")
    parser.add_argument("--solver", choices=("auto", "exact"), default="auto",
                        help="the DecomposeConfig solver of every decompose call")
    parser.add_argument("--serve", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.serve:
        serve(args.solver)
        return 0
    srcs = args.src or [str(ROOT / "src")]
    commits = [_commit(Path(src).resolve()) for src in srcs]
    results = measure(srcs, args.solver)
    for commit, records in zip(commits, results):
        print(f"wrote {write(commit, args.solver, records)}")
    print(table(srcs, results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
