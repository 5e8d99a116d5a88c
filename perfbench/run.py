"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload dense --seed 1 --seconds 16 --trace 0

Run from anywhere inside a source checkout (the package is imported from
its ``src``). The run generates the workload's layout files from the seed
and checks them against their pinned digests, then runs the workload in a
child process with one BLAS thread. Before and after the workload it times
fresh interpreters importing trimask (``setup_s``). End-to-end timings are
scaled by the host's speed, measured with ``reference.py``. It prints every
metric with its unit; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 1`` the metrics are the per-layer ones from running each layout
once untraced and once traced, and ``correct`` also requires that the
workload loads the layer it was chosen for. Everything else (environment,
digests, raw timings, raw quality, spans) goes to
``.perfbench_work/<workload>-s<seed>-t<trace>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SETUP_RUNS = 5  # before the workload, and as many after it
TIME_LIMIT_S = 170  # a run must end within 180 s
CHECK_RESERVE_S = 30  # kept free after the timed loop for the output check


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "loadavg_at_start": list(os.getloadavg()),
    }


def setup_times(env: dict) -> list[float]:
    """Wall times of fresh interpreters importing the package and its
    command line, as every CLI call pays it. A first import, which may
    compile bytecode, is not counted. No timeout: with one, the wait polls
    with sleeps of up to 50 ms, which would quantize the times."""
    cmd = [sys.executable, "-c", "import trimask, trimask.cli"]
    quiet = {"env": env, "check": True, "stdout": subprocess.DEVNULL}
    subprocess.run(cmd, **quiet)
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run(cmd, **quiet)
        times.append(time.perf_counter() - t0)
    return times


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def speed_factor(child: dict) -> float:
    """Scale from the run's wall times to those on a host where the
    reference task takes ``reference.NOMINAL_S``."""
    return reference.NOMINAL_S / statistics.median(child["reference_s"])


def end_to_end(child: dict, setup_s: float) -> dict:
    q = child["quality"]
    samples = child["samples"]
    scale = speed_factor(child)
    lat_ms = [x["wall_s"] * scale * 1000 for x in samples] or [float("nan")]
    timed_s = sum(x["wall_s"] for x in samples) * scale
    return {
        "shapes_per_s": sum(x["shapes"] for x in samples) / max(timed_s, 1e-9),
        "layout_ms_p50": percentile(lat_ms, 50),
        "layout_ms_p95": percentile(lat_ms, 95),
        "objective_plus_1": q["objective"] + 1,
        "conflicts_plus_1": q["conflicts"] + 1,
        "proven_share_plus_1": 1 + q["proven"] / max(q["layouts"], 1),
        "peak_rss_mb": child["peak_rss_mb"],
        "setup_s": setup_s * scale,
        "passed_share": 1 - child["failed"] / child["attempted"],
    }


def per_layer(child: dict) -> dict:
    q = child["quality"]
    untraced = child["samples"]
    layers = dict(child["layers"])
    untraced_s = sum(x["wall_s"] for x in untraced)
    overhead = sum(x["wall_s"] for x in child["traced_samples"]) - untraced_s
    layers["trace.overhead_s"] = overhead
    layers["trace.overhead_share"] = overhead / max(untraced_s, 1e-9)
    layers["process.sys_s"] = sum(x["sys_s"] for x in untraced)
    layers["process.minor_faults"] = sum(x["minor_faults"] for x in untraced)
    layers["quality.objective"] = q["objective"]
    layers["quality.base_objective"] = q["base_objective"]
    layers["quality.conflicts"] = q["conflicts"]
    layers["quality.stitches"] = q["stitches"]
    layers["quality.proven_share"] = q["proven"] / max(q["layouts"], 1)
    layers["quality.failed_share"] = child["failed"] / child["attempted"]
    return layers


def layer_checks(workload: str, m: dict) -> list[tuple[str, bool]]:
    """What the traced run must show for the workload to load its layer."""
    decompose_s = max(m["pipeline.decompose_s"], 1e-12)
    if workload == "dense":
        share = (m["sdp.relax_s"] + m["sdp.map_s"]) / decompose_s
        return [(f"sdp.relax_s + sdp.map_s = {share:.1%} of decompose (>= 80%)", share >= 0.8)]
    if workload == "sparse":
        geo = m["geometry.load_s"] + m["geometry.layout_graph_s"] + m["geometry.split_s"]
        share = geo / (decompose_s + m["geometry.load_s"])
        return [
            (f"geometry.*_s = {share:.1%} of load + decompose (>= 60%)", share >= 0.6),
            ("no ilp or sdp call", m["ilp.calls"] == 0 and m["sdp.relax_calls"] == 0),
        ]
    return [(f"ilp calls {m['ilp.calls']:g}, sdp calls {m['sdp.relax_calls']:g} (both > 0)",
             m["ilp.calls"] > 0 and m["sdp.relax_calls"] > 0)]


def with_units(values: dict, declared: list[dict]) -> dict:
    """Order and label the metrics as BENCHMARK.json declares them."""
    if set(values) != {m["name"] for m in declared}:
        raise RuntimeError("computed metrics differ from those BENCHMARK.json declares: "
                           f"{sorted(set(values) ^ {m['name'] for m in declared})}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "trimask" / "__init__.py").is_file():
        print(f"error: no trimask package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import inputs

    if args.workload not in inputs.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}, expected one of "
              f"{sorted(inputs.WORKLOADS)}", file=sys.stderr)
        return 2

    env_info = environment()
    workdir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        instances = inputs.prepare(args.workload, args.seed, workdir)
    except inputs.DigestMismatch as exc:
        print(f"error: input digest mismatch: {exc}", file=sys.stderr)
        return 3

    child_env = {**os.environ, **CHILD_ENV, "PYTHONPATH": str(SRC)}
    setup_samples = setup_times(child_env)

    plan = {
        "seconds": args.seconds,
        "trace": args.trace,
        "max_seconds": max(
            args.seconds, TIME_LIMIT_S - CHECK_RESERVE_S - (time.perf_counter() - started)
        ),
        "instances": [asdict(inst) for inst in instances],
    }
    (workdir / "plan.json").write_text(json.dumps(plan, indent=1))
    child_out = workdir / "worker.json"
    try:
        subprocess.run(
            [sys.executable, str(Path(__file__).with_name("worker.py")),
             "--plan", str(workdir / "plan.json"), "--out", str(child_out)],
            env=child_env, cwd=ROOT, stdout=sys.stderr, check=True,
            timeout=max(1.0, TIME_LIMIT_S - (time.perf_counter() - started)),
        )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: workload process failed: {exc}", file=sys.stderr)
        return 4
    child = json.loads(child_out.read_text())
    setup_samples += setup_times(child_env)
    setup_s = statistics.median(setup_samples)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    checks = []
    if args.trace:
        values = per_layer(child)
        checks = layer_checks(args.workload, values)
        metrics = with_units(values, spec["per_layer"])
    else:
        metrics = with_units(end_to_end(child, setup_s), spec["end_to_end"])
    q = child["quality"]
    samples = child["samples"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env_info,
        "inputs": [{"name": i.name, "digest": i.digest} for i in instances],
        "setup_samples_s": setup_samples,
        "samples": len(samples),
        "passes": child["passes"],
        "wall_s": sum(x["wall_s"] for x in samples),
        "cpu_s": sum(x["cpu_s"] for x in samples),
        "steal_s": child.get("steal_s"),
        "reference_s": child.get("reference_s"),
        "quality": q,
        "errors": child["errors"],
        "layer_checks": checks,
        "metrics": metrics,
    }
    (workdir / "result.json").write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"layouts {len(instances)}  passes {child['passes']}  samples {len(samples)}")
    print(f"environment {json.dumps(env_info)}")
    print(f"timed wall {record['wall_s']:.3f} s  cpu {record['cpu_s']:.3f} s  "
          f"host steal {record['steal_s']} s  setup {setup_s:.4f} s")
    if not args.trace:
        print(f"reference task median {statistics.median(child['reference_s']) * 1000:.2f} ms "
              f"over {len(child['reference_s'])} samples, timings scaled by "
              f"{speed_factor(child):.4f}")
    print(f"objective {q['objective']:.1f}  greedy+1-opt base {q['base_objective']:.1f}  "
          f"conflicts {q['conflicts']}  stitches {q['stitches']}  "
          f"proven_share {q['proven'] / max(q['layouts'], 1):.3f}  "
          f"failed_share {child['failed'] / child['attempted']:.3f}")
    for message in child["errors"]:
        print(f"FAILED {message}")
    for text, ok in checks:
        print(f"{'ok  ' if ok else 'FAIL'} {text}")
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({
        "correct": child["failed"] == 0 and all(ok for _, ok in checks),
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
