"""The comparison tools in ``tools/``: which benchmark layouts they read, how
they stop on a layout off its pin, and how the ladder reports a change.
Nothing here decomposes a whole corpus."""

import json
import sys
from pathlib import Path

import pytest

from trimask.pipeline import DecomposeConfig

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "tools"))
import inputs  # noqa: E402
import ladder  # noqa: E402
import ten_seeds  # noqa: E402


def test_the_ladder_digests_every_pinned_layout():
    pins = inputs.load_pins()
    layouts = ladder.pinned_layouts()
    names = [name for name, *_ in layouts]
    # main and held-out of the three workloads, in pin order
    assert len(layouts) == len(set(names)) == 416
    assert {tuple(name.split("/")[:2]) for name in names} == {
        (workload, part) for workload, parts in pins.items() for part in parts
    }
    assert [(name, pinned) for name, _, _, pinned in layouts] == [
        (f"{workload}/{part}/g{gen_seed}", pinned)
        for workload, parts in pins.items()
        for part, seeds in parts.items()
        for gen_seed, pinned in seeds.items()
    ]
    assert all(spec is inputs.WORKLOADS[name.split("/")[0]] for name, spec, _, _ in layouts)


def test_a_layout_off_its_pin_stops_the_tools_with_its_name(monkeypatch):
    (seed, pinned), (moved, _) = list(inputs.load_pins()["clips"]["main"].items())[:2]
    fabricated = {"clips": {"main": {seed: pinned, moved: "0" * 64}}}
    monkeypatch.setattr(inputs, "load_pins", lambda: fabricated)
    message = f"clips/main/g{moved} no longer has its pinned digest"
    with pytest.raises(SystemExit, match=message):
        ladder.corpus_rows(DecomposeConfig(seed=42))
    with pytest.raises(SystemExit, match=message):
        ten_seeds._corpus("clips", "main")


def record(payload):
    """A ladder record of the (40, 2) seed 1 rung with ``payload``."""
    return {"shapes": 40, "density": 2, "seed": 1, "segments": 40, "ce": 0, "se": 0,
            "components": 0, "largest": 0, "proven": 0, "objective": 0.0,
            "greedy_one_opt": 0.0, "sdp_iterations": 0, "relaxed": 0,
            "decompose_s": 0.001, "decompose_range_s": [0.001, 0.002],
            "gc_collections": [[0, 0, 0]] * 3, "payload": payload}


CORPUS = [["dense/main/g1", "a" * 64], ["dense/main/g2", "b" * 64], ["clips/main/g1", "c" * 64]]


@pytest.mark.parametrize("payload, corpus, verdict", [
    ("p" * 16, CORPUS, "equal"),
    ("q" * 16, CORPUS, f"differs: (40, 2) seed 1: {'p' * 16} (a) != {'q' * 16} (b)"),
    ("p" * 16, [CORPUS[0], ["dense/main/g2", "d" * 64], ["clips/main/g1", "e" * 64]],
     f"differs: dense/main/g2: {'b' * 16} (a) != {'d' * 16} (b)"),
], ids=["equal", "rung", "layout"])
def test_the_ladder_names_the_first_difference(monkeypatch, tmp_path, capsys, payload, corpus, verdict):
    def measure(srcs, solver):
        return [[record("p" * 16)], [record(payload)]], [CORPUS, corpus]

    monkeypatch.setattr(ladder, "measure", measure)
    monkeypatch.setattr(ladder, "ROOT", tmp_path)
    monkeypatch.setattr(ladder, "_commit", lambda src: src.name)
    code = ladder.main(["--src", "a", "--src", "b"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == verdict
    assert code == (verdict != "equal")
    for src, rows in (("a", CORPUS), ("b", corpus)):
        digest = ladder.corpus_digest(rows)
        assert f"corpus {digest}  3 layouts  {src}" in lines
        doc = json.loads((tmp_path / f"BENCH_{src}.json").read_text())
        assert doc["corpus"] == {"layouts": 3, "digest": digest}
