"""Run the benchmark over workloads and seeds and print every metric.

    python3 perfbench/report.py                      # every workload, seed 1
    python3 perfbench/report.py --seeds 1-10         # spread over ten seeds
    python3 perfbench/report.py --trace              # per-layer metrics too
    python3 perfbench/report.py --workloads dense --seeds 1-5 --seconds 30

For each workload it prints every end-to-end metric with its unit: the
median over the seeds, the quartiles, and the spread (quartile distance
over the median) against the bound in BENCHMARK.json. It also prints the
raw quality of each seed: objective beside the greedy + 1-opt base,
conflicts, proven share and failed share. With ``--trace`` it adds a traced
run of the first seed, the per-layer metrics, the tracing overhead and
whether each workload loads the layer it was chosen for. It exits non-zero
when a spread exceeds its bound, an output fails its check, or a layer
check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (ROOT / ".perfbench_work" / f"{workload}-s{seed}-t{trace}" / "result.json").read_text()
    )
    return last, record


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    ap.add_argument("--seeds", default="1", help="a seed or a range such as 1-10")
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    seeds = seed_range(args.seeds)
    bad = False

    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            runs.append(run(workload, seed, args.seconds, 0))
            print(f"# {workload} seed {seed} done", file=sys.stderr)
        print(f"\n== {workload}  seeds {args.seeds}  {args.seconds:g} s per run")
        print(f"{'metric':20s} {'unit':9s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>7s} {'bound':>6s}")
        for m in SPEC["end_to_end"]:
            values = [last["metrics"][m["name"]]["value"] for last, _ in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [med] * 3
            spread = (q3 - q1) / med if med else float("inf")
            note = "" if spread < m["bound"] / 3 else (
                "over a third of bound" if spread <= m["bound"] else "OVER BOUND")
            bad |= spread > m["bound"]
            print(f"{m['name']:20s} {m['unit']:9s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:7.3f} {m['bound']:6.2f} {note}")
        print(f"{'seed':>6s} {'objective':>10s} {'base':>10s} {'conflicts':>9s} "
              f"{'proven':>7s} {'failed':>7s} {'samples':>7s} {'passes':>6s} "
              f"{'wall_s':>7s} {'cpu_s':>7s} {'steal_s':>7s}")
        for seed, (last, rec) in zip(seeds, runs):
            q = rec["quality"]
            print(f"{seed:6d} {q['objective']:10.1f} {q['base_objective']:10.1f} "
                  f"{q['conflicts']:9d} {q['proven'] / max(q['layouts'], 1):7.3f} "
                  f"{last['failed'] / last['attempted']:7.3f} {rec['samples']:7d} "
                  f"{rec['passes']:6d} {rec['wall_s']:7.2f} {rec['cpu_s']:7.2f} "
                  f"{rec['steal_s']:7.2f}")
            for message in rec["errors"]:
                print(f"       FAILED {message}")
            bad |= not last["correct"]

        if args.trace:
            last, rec = run(workload, seeds[0], args.seconds, 1)
            metrics = {k: v["value"] for k, v in last["metrics"].items()}
            print(f"-- {workload} traced, seed {seeds[0]}")
            for m in SPEC["per_layer"]:
                print(f"   {m['name']:26s} {metrics[m['name']]:14.6g} {m['unit']}")
            for text, ok in rec["layer_checks"]:
                print(f"   {'ok  ' if ok else 'FAIL'} {text}")
            for message in rec["errors"]:
                print(f"   FAILED {message}")
            bad |= not last["correct"]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
