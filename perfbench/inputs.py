"""Workload inputs: pinned layout corpora, seeded order, layout files and
their content digests.

Each workload has two fixed corpora of generator seeds whose file digests
are pinned in ``pins.json``: ``main`` for seeds below ``HELD_OUT_FROM`` and
``held_out`` for seeds at or above it, which no smaller seed ever touches,
for verifying a claim on inputs not used while the change was written.
A run uses its whole corpus and the seed sets the order in which the
layouts run. So quality is the same for every seed of a corpus, and the
spread between seeds is the run-to-run noise, not a different draw of
inputs. A change to ``generate_layout`` (or to ``layout_to_dict``, which
writes its files) fails the run instead of quietly changing the workload.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path

PINS_FILE = Path(__file__).with_name("pins.json")
HELD_OUT_FROM = 1000


@dataclass(frozen=True)
class Workload:
    shapes: int
    density: float
    # layouts per corpus, from generator seed 1 up for main and from
    # HELD_OUT_FROM + 1 up for held_out
    layouts: int
    # if set, this many of them reach the relaxation and the rest do not
    relaxed: int | None = None


WORKLOADS = {
    # every component goes to the relaxation; about 5 s per layout
    "dense": Workload(400, 6, 4),
    # every shape peels, no solver runs; about 1.2 s per layout
    "sparse": Workload(5000, 2, 4),
    # 9 in 10 clips reach only the exact search and 1 in 10 the relaxation,
    # which takes about 2/3 of the batch time. The share that reaches it
    # ranges from 3% to 20% over runs of 200 generator seeds, so the corpus
    # fixes it.
    "clips": Workload(20, 6, 200, relaxed=20),
}


class DigestMismatch(Exception):
    """A generated input differs from its pinned digest."""


@dataclass(frozen=True)
class Instance:
    name: str
    gen_seed: int
    shapes: int
    digest: str
    path: str = ""


def layout_bytes(layout) -> bytes:
    from trimask.geometry import layout_to_dict

    return (json.dumps(layout_to_dict(layout), separators=(",", ":")) + "\n").encode()


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def generate(shapes: int, density: float, gen_seed: int) -> bytes:
    from trimask.cli import generate_layout

    return layout_bytes(generate_layout(shapes, density, seed=gen_seed))


def load_pins() -> dict:
    return json.loads(PINS_FILE.read_text())


def select(workload: str, seed: int, pins: dict) -> list[Instance]:
    """The run's instances: its whole corpus, ordered by a hash of the seed."""
    part = "held_out" if seed >= HELD_OUT_FROM else "main"
    shapes = WORKLOADS[workload].shapes
    insts = [
        Instance(f"{workload}/g{gen_seed}", int(gen_seed), shapes, pinned)
        for gen_seed, pinned in pins[workload][part].items()
    ]
    return sorted(insts, key=lambda i: digest(f"{workload}:{seed}:{i.gen_seed}".encode()))


def prepare(workload: str, seed: int, workdir: Path) -> list[Instance]:
    """Generate the run's layout files into ``workdir``, check each against
    its pin, and return the instances with their paths."""
    density = WORKLOADS[workload].density
    written = []
    for inst in select(workload, seed, load_pins()):
        path = workdir / f"{inst.name.replace('/', '_')}.json"
        path.write_bytes(generate(inst.shapes, density, inst.gen_seed))
        written.append(replace(inst, path=str(path)))
    verify(written)
    return written


def verify(instances) -> None:
    """Raise DigestMismatch unless every file still has its pinned digest."""
    for inst in instances:
        found = digest(Path(inst.path).read_bytes())
        if found != inst.digest:
            raise DigestMismatch(
                f"{inst.name} (generator seed {inst.gen_seed}): digest {found[:16]} "
                f"!= pinned {inst.digest[:16]}; the layout generator changed"
            )
