"""One workload in its own process: decompose the layout files the way
``trimask decompose --input`` does, time it, check every output, and write
the results as JSON.

    python3 perfbench/worker.py --plan plan.json --out worker.json

``run.py`` writes the plan and starts this process with one BLAS thread.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

import trimask.pipeline
from trimask.cli import format_assignment, format_stats
from trimask.geometry import load_layout
from trimask.pipeline import DecomposeConfig, decompose

import reference
from checks import check_output, geometric_pairs, greedy_one_opt
from spans import Tracer, layer_metrics

CONFIG = DecomposeConfig(solver="auto", seed=42)
CALLS = {
    "load_layout": load_layout,
    "decompose": decompose,
    "format_assignment": format_assignment,
    "format_stats": format_stats,
}


def run_one(calls, path):
    layout = calls["load_layout"](path)
    result = calls["decompose"](layout, CONFIG)
    return result, calls["format_assignment"](result.assignment), calls["format_stats"](result)


def steal_ticks() -> int:
    """Ticks the host took from all of this machine's CPUs since boot."""
    with open("/proc/stat") as fh:
        return int(fh.readline().split()[8])


def peak_rss_mb() -> float:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM not found in /proc/self/status")


class Batch:
    """Runs over the instance list. The first successful run of an instance
    is kept for the output check; later runs must give the same payload."""

    def __init__(self, instances):
        self.instances = instances
        self.first: dict[int, tuple] = {}
        self.payloads: dict[int, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.reference: list[float] = []
        self.reference_at = float("-inf")

    def time_reference(self) -> None:
        self.reference += reference.burst()
        self.reference_at = time.perf_counter()

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def run(self, k: int, calls, tracer=None) -> dict | None:
        """Run instance ``k`` once. Returns its sample (wall and process CPU
        seconds, system seconds, minor page faults, shapes), or None if it
        failed."""
        inst = self.instances[k]
        if tracer is not None:
            tracer.layout = inst["name"]
        self.attempted += 1
        r0 = resource.getrusage(resource.RUSAGE_SELF)
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            out = run_one(calls, inst["path"])
        except Exception as exc:  # a failed attempt is counted, not fatal
            self.fail(f"{inst['name']}: {type(exc).__name__}: {exc}")
            return None
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        r1 = resource.getrusage(resource.RUSAGE_SELF)
        if k not in self.first:
            self.first[k] = out
            self.payloads[k] = out[0].payload()
        elif out[0].payload() != self.payloads[k]:
            self.fail(f"{inst['name']}: repeated run gave another payload")
        return {
            "wall_s": wall, "cpu_s": cpu, "sys_s": r1.ru_stime - r0.ru_stime,
            "minor_faults": r1.ru_minflt - r0.ru_minflt, "shapes": inst["shapes"],
        }

    def run_pass(self, deadline: float) -> list[dict]:
        """One untraced pass over the instances, cut at ``deadline``, with
        the reference task timed between layouts."""
        samples = []
        for k in range(len(self.instances)):
            now = time.perf_counter()
            if now > deadline:
                break
            if now - self.reference_at >= reference.EVERY_S:
                self.time_reference()
            samples.append(self.run(k, CALLS))
        return [x for x in samples if x is not None]

    def run_paired(self, tracer) -> tuple[list[dict], list[dict]]:
        """Each instance once untraced and once traced, back to back and in
        alternating order, so that a drift in the machine's speed falls on
        both sides of the tracing overhead alike."""
        traced_calls = tracer.entry_calls(CALLS)
        untraced, traced = [], []
        for k in range(len(self.instances)):
            for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
                if with_trace:
                    with tracer.patched(trimask.pipeline):
                        traced.append(self.run(k, traced_calls, tracer))
                else:
                    untraced.append(self.run(k, CALLS))
        return ([x for x in untraced if x is not None],
                [x for x in traced if x is not None])


def check_first(batch: Batch) -> dict:
    """Run the output check on each kept result and total the quality. An
    instance never run to completion counts as one more failure."""
    for k, inst in enumerate(batch.instances):
        if k not in batch.first:
            batch.fail(f"{inst['name']}: no completed run")
    q = {"objective": Fraction(0), "conflicts": 0, "stitches": 0,
         "base_objective": Fraction(0), "proven": 0, "layouts": 0, "per_layout": []}
    for k, (result, assignment_text, stats_text) in sorted(batch.first.items()):
        inst = batch.instances[k]
        doc = json.loads(Path(inst["path"]).read_text())
        segments = [(s.id, s.parent, s.rect) for s in result.dg.segments]
        ce, se = geometric_pairs(segments, doc["params"]["min_s"])
        problems = check_output(doc, segments, (ce, se), assignment_text, stats_text)
        if problems:
            batch.fail(f"{inst['name']}: " + "; ".join(problems))
        alpha = Fraction(repr(float(doc["params"]["alpha"])))
        base = greedy_one_opt([s[0] for s in segments], ce, se, alpha)
        objective = result.conflict_count + alpha * result.stitch_count
        q["objective"] += objective
        q["conflicts"] += result.conflict_count
        q["stitches"] += result.stitch_count
        q["base_objective"] += base
        q["proven"] += bool(result.proven_optimal)
        q["layouts"] += 1
        q["per_layout"].append({
            "name": inst["name"], "objective": float(objective),
            "base_objective": float(base), "conflicts": result.conflict_count,
            "stitches": result.stitch_count, "proven_optimal": bool(result.proven_optimal),
        })
    return q


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--plan", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    plan = json.loads(Path(args.plan).read_text())
    seconds, trace = plan["seconds"], plan["trace"]

    batch = Batch(plan["instances"])
    # warm-up: the first layout once, untimed. It fills lazy state, and its
    # timed run must repeat its payload.
    batch.run(0, CALLS)
    out = {}
    if not trace:
        # whole passes, so the mix stays fixed, until less than half a pass
        # of the time is left; the timed loop then ends within half a pass
        # of ``seconds``
        start = time.perf_counter()
        deadline = start + plan["max_seconds"]
        steal0 = steal_ticks()
        samples = []
        out["passes"] = 0
        while True:
            samples += batch.run_pass(deadline)
            out["passes"] += 1
            elapsed = time.perf_counter() - start
            if elapsed >= seconds - elapsed / out["passes"] / 2:
                break
        batch.time_reference()
        out["reference_s"] = batch.reference
        out["steal_s"] = (steal_ticks() - steal0) / os.sysconf("SC_CLK_TCK")
        out["peak_rss_mb"] = peak_rss_mb()
    else:
        tracer = Tracer()
        samples, out["traced_samples"] = batch.run_paired(tracer)
        tracer.write(Path(args.out).with_name("spans.jsonl"))
        out["passes"] = 2
        out["layers"] = layer_metrics(tracer.spans)

    quality = check_first(batch)
    out.update({
        "attempted": batch.attempted,
        "failed": batch.failed,
        "errors": batch.errors,
        "samples": samples,
        "quality": {
            k: (float(v) if isinstance(v, Fraction) else v) for k, v in quality.items()
        },
    })
    Path(args.out).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
