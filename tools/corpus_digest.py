"""One digest of what trimask writes for every pinned benchmark layout.

Each layout of the ``perfbench/pins.json`` corpora, main and held-out, of
every workload is generated, checked against its pinned digest, written to
a file and decomposed as ``trimask decompose --input`` does it (and the
benchmark's worker with it): ``load_layout``, then
``decompose(DecomposeConfig(solver="auto", seed=42))``. A layout's digest
is the SHA-256 of the sorted-key JSON of ``DecomposeResult.payload()``,
then ``format_assignment(result.assignment)``, then
``format_stats(result)`` with wall time 0, as ``tools/ladder.py`` hashes
its rungs; the corpus digest is the SHA-256 of the layouts' digests in
pin order. Each source tree runs in its own interpreter with one BLAS
thread:

    python tools/corpus_digest.py                          # this checkout
    python tools/corpus_digest.py --src ../base/src --src src

With two or more trees it prints "equal" when every tree writes the same
bytes for every layout, or else the first layout on which a tree differs
from the first tree. The exit code is 1 then, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PINS = ROOT / "perfbench" / "pins.json"
# workload -> (shapes, density) of its pinned corpora
CORPORA = {"dense": (400, 6), "sparse": (5000, 2), "clips": (20, 6)}


def measure() -> list[list[str]]:
    """``[layout name, digest]`` of every pinned layout in pin order, for
    the trimask on ``sys.path``."""
    from trimask.cli import format_assignment, format_stats, generate_layout
    from trimask.geometry import layout_to_dict, load_layout
    from trimask.pipeline import DecomposeConfig, decompose

    config = DecomposeConfig(solver="auto", seed=42)
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "layout.json"
        for workload, parts in json.loads(PINS.read_text()).items():
            shapes, density = CORPORA[workload]
            for part, pins in parts.items():
                for gen_seed, pinned in pins.items():
                    name = f"{workload}/{part}/g{gen_seed}"
                    layout = generate_layout(shapes, density, seed=int(gen_seed))
                    data = json.dumps(layout_to_dict(layout), separators=(",", ":")) + "\n"
                    if hashlib.sha256(data.encode()).hexdigest() != pinned:
                        raise SystemExit(f"{name} no longer has its pinned digest")
                    path.write_text(data)
                    result = decompose(load_layout(path), config)
                    written = (json.dumps(result.payload(), sort_keys=True)
                               + format_assignment(result.assignment)
                               + format_stats(dataclasses.replace(result, wall_time=0.0)))
                    rows.append([name, hashlib.sha256(written.encode()).hexdigest()])
    return rows


def corpus_digest(rows: list[list[str]]) -> str:
    return hashlib.sha256("".join(digest for _, digest in rows).encode()).hexdigest()


def _run(src: str) -> list[list[str]]:
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    out = subprocess.run([sys.executable, __file__, "--measure"], env=env,
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def compare(srcs: list[str], results: list[list[list[str]]]) -> str | None:
    """The line naming the first layout on which a tree's output differs
    from the first tree's, or None when every tree writes the same."""
    first = results[0]
    for src, rows in zip(srcs[1:], results[1:]):
        for (name, expected), (_, found) in zip(first, rows):
            if found != expected:
                return f"differs: {name}: {expected[:16]} ({srcs[0]}) != {found[:16]} ({src})"
    return None


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
    for src, rows in zip(srcs, results):
        print(f"{corpus_digest(rows)}  {len(rows)} layouts  {src}")
    if len(results) > 1:
        differs = compare(srcs, results)
        print(differs or "equal")
        return 1 if differs else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
