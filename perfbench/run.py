"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload hybrid-drift --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (its spans go to ``.bench_out/``).  The last line
of standard output is the result::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

A human-readable summary goes to standard error.  The run imports the
program from ``src/`` next to this directory, so it fails (exit code 1,
no result line) where the program's sources are missing.  The module is
safe to import under the ``spawn`` start method: shard workers re-import
it and must not start a run of their own.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

OUT = ROOT / ".bench_out"
SHM = Path("/dev/shm")

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "batch_p50_ms": "ms",
    "sim_ops_per_s": "ops/s",
    "peak_rss_mb": "MB",
}


def _shm_names() -> set[str]:
    try:
        return set(os.listdir(SHM))
    except OSError:
        return set()


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("hybrid-drift", "durable-writes", "sharded-reads")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def stop_helper_processes() -> None:
    """Stop every process the run started and wait until each has ended.

    Besides shard workers, ``multiprocessing`` starts a resource-tracker
    process the first time a shared-memory segment is created or a worker
    is spawned.  It only ends once it reads end-of-file on its pipe, which
    without this would happen after the run had already exited.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    args = parse(argv)
    try:
        return _run(args)
    finally:
        stop_helper_processes()


def _run(args) -> int:
    import layers  # imports the program: fails here when src/ is missing
    from spans import Tracer
    from workloads import WORKLOADS

    # Everything the run writes -- WAL directories, temp files of the
    # program and its workers, traces -- stays under .bench_out/.
    scratch = OUT / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    import tempfile

    tempfile.tempdir = None
    shm_before = _shm_names()

    tracer = None
    if args.trace:
        tracer = Tracer()
        layers.instrument(tracer)
    try:
        outcome = WORKLOADS[args.workload](args.seed, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.restore()

    # Run hygiene: nothing the run started may outlive it.
    import multiprocessing

    for child in multiprocessing.active_children():
        child.join(timeout=5.0)
    leftover = multiprocessing.active_children()
    if leftover:
        outcome.problems.append(f"worker processes left behind: {[c.name for c in leftover]}")
        for child in leftover:
            child.kill()
            child.join()
    leaked = sorted(_shm_names() - shm_before)
    if leaked:
        outcome.problems.append(f"shared-memory segments left behind: {leaked}")
    stray = sorted(p.name for p in scratch.iterdir())
    if stray:
        outcome.problems.append(f"temp files or directories left behind: {stray}")

    if tracer is not None:
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
        tracer.write(trace_path)
        values = layers.layer_metrics(tracer, outcome.layer, tracer.timed_counts)
        units = {name: unit for name, unit, _ in layers.METRICS}
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
        print(f"trace: {trace_path}", file=sys.stderr)
    else:
        metrics = {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, unit in E2E_UNITS.items()
        }
    for name, metric in metrics.items():
        print(f"{name:34s} {metric['value']:14.4f} {metric['unit']}", file=sys.stderr)
    print(f"{'ops_per_s (this run)':34s} {outcome.metrics['ops_per_s']:14.1f}", file=sys.stderr)
    print(f"{'ops_per_s (wall clock)':34s} {outcome.metrics['wall_ops_per_s']:14.1f}", file=sys.stderr)
    print(f"{'steal share (timed phase)':34s} {outcome.metrics['steal_share']:14.4f}", file=sys.stderr)
    for problem in outcome.problems:
        print(f"PROBLEM: {problem}", file=sys.stderr)
    shutil.rmtree(scratch, ignore_errors=True)
    print(
        json.dumps(
            {
                "correct": not outcome.problems,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
