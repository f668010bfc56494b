"""Steadiness command: run each workload N times and report the spread.

Usage (from the repository root)::

    python3 perfbench/steady.py --runs 10 --seed 100 [--workloads hybrid-drift ...]
        [--seconds 10] [--fixed-seed] [--traced 3]

Each run is a fresh ``run.py`` process; run ``i`` uses seed ``seed + i``
(or ``seed`` every time with ``--fixed-seed``, which must repeat
``sim_ops_per_s`` exactly).  For every end-to-end metric it prints the
median, the first and third quartiles (``statistics.quantiles(n=4)``) and
the spread ``(q3 - q1) / median``; these figures set the bounds in
``BENCHMARK.json``.  ``--traced N`` follows each of the first N runs with
a traced run of the same seed, reports the tracing overhead as the median
over those pairs of untraced over traced ``ops_per_s`` minus one, and the
traced runs' median per-layer metrics.
Results are also written to ``.bench_out/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("hybrid-drift", "durable-writes", "sharded-reads")


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["elapsed_s"] = elapsed
    result["stderr"] = done.stderr
    return result


def _stderr_value(result: dict, label: str) -> float:
    """A figure of the run's summary on stderr, by its label."""
    return next(
        float(line.split()[-1])
        for line in result["stderr"].splitlines()
        if line.startswith(label)
    )


def _stderr_ops(result: dict) -> float:
    """The traced run's own ``ops_per_s``, from its summary on stderr."""
    return _stderr_value(result, "ops_per_s (this run)")


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "min": min(values),
        "max": max(values),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=100)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    parser.add_argument("--fixed-seed", action="store_true")
    parser.add_argument("--traced", type=int, default=0)
    args = parser.parse_args(argv)
    report = {}
    for workload in args.workloads:
        runs, traced, ratios = [], [], []
        for i in range(args.runs):
            seed = args.seed if args.fixed_seed else args.seed + i
            result = run_once(workload, seed, args.seconds, 0)
            runs.append(result)
            if i < args.traced:
                # Right after its untraced twin, so both see the same machine.
                traced.append(run_once(workload, seed, args.seconds, 1))
                ratios.append(
                    result["metrics"]["ops_per_s"]["value"] / _stderr_ops(traced[-1]) - 1.0
                )
            print(
                f"{workload} seed {seed}: correct={result['correct']} "
                f"failed={result['failed']}/{result['attempted']} "
                f"ops/s={result['metrics']['ops_per_s']['value']:.1f} "
                f"wall-clock ops/s={_stderr_value(result, 'ops_per_s (wall clock)'):.1f} "
                f"steal={_stderr_value(result, 'steal share'):.3f} "
                f"({result['elapsed_s']:.1f}s)",
                file=sys.stderr,
            )
        names = list(runs[0]["metrics"])
        summary = {
            name: summarize([r["metrics"][name]["value"] for r in runs]) for name in names
        }
        entry = {
            "seeds": [args.seed if args.fixed_seed else args.seed + i for i in range(args.runs)],
            "correct": all(r["correct"] for r in runs),
            "failed_share": sorted({r["failed"] / r["attempted"] for r in runs}),
            "max_elapsed_s": max(r["elapsed_s"] for r in runs),
            "metrics": summary,
        }
        if args.traced:
            entry["tracing_overhead"] = statistics.median(ratios)
            entry["per_layer"] = {
                name: statistics.median(run["metrics"][name]["value"] for run in traced)
                for name in traced[0]["metrics"]
            }
        report[workload] = entry
        print(f"\n{workload}  (correct={entry['correct']}, failed share {entry['failed_share']})")
        print(f"  {'metric':16s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s}")
        for name, s in summary.items():
            print(
                f"  {name:16s} {s['median']:14.4f} {s['q1']:14.4f} {s['q3']:14.4f} "
                f"{100 * s['spread']:7.2f}%"
            )
        if args.traced:
            print(
                f"  tracing overhead {100 * entry['tracing_overhead']:.1f}% "
                f"(median of {len(ratios)} untraced/traced ops_per_s pairs - 1)"
            )
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
