"""Self-test of the benchmark: the reference model and traced mode.

Run from the repository root (about a minute)::

    python3 perfbench/selftest.py

It checks that

1. the reference model accepts the program's results on a small mixed run
   and rejects the same results with one of them perturbed;
2. on a small traced run of each workload, every span sits inside its
   parent, and for every call the self times of its spans -- the root
   span's self time being the benchmark's own time -- sum to within 5 %
   of the measured ``execute`` wall time;
3. the traced run reports every per-layer metric of ``BENCHMARK.json``.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

SMALL_CALLS = {"hybrid-drift": 200, "durable-writes": 60, "sharded-reads": 30}


def check_reference_rejects_perturbed() -> None:
    import numpy as np

    from reference import ReferenceTable, check_calls, spec_keys
    from workloads import normalize, table_rows, to_op

    from repro.api import Database

    keys = np.arange(200, dtype=np.int64) * 2
    payload = np.random.default_rng(7).integers(0, 1000, size=(200, 2))
    calls = [
        [
            ("point", 4),
            ("insert", 5, (1, 2)),
            ("range", 0, 20),
            ("update", 6, 7),
            ("point", 7),
        ],
        [
            ("mpoint", (0, 2, 5, 7, 6)),
            ("mrange", ((0, 9), (10, 30))),
            ("minsert", (9, 11), ((3, 4), (5, 6))),
            ("mdelete", (8, 12)),
            ("mupdate", ((14, 15), (16, 399))),
        ],
    ]
    db = Database.from_rows(keys, payload, chunk_size=64, payload_names=("a1", "a2"))
    session = db.session()
    results = [session.execute([to_op(spec) for spec in specs]) for specs in calls]
    got = [
        [normalize(spec, value) for spec, value in zip(specs, result.results)]
        for specs, result in zip(calls, results)
    ]
    extra = [k for specs in calls for spec in specs for k in spec_keys(spec)]

    def fresh():
        return ReferenceTable(keys, payload, extra)

    reference = fresh()
    assert check_calls(reference, calls, got) == [], "reference rejects correct results"
    assert np.array_equal(reference.final_rows(), table_rows(db.table))
    bad = copy.deepcopy(got)
    bad[0][2] += 1  # one range count off by one
    assert check_calls(fresh(), calls, bad), "reference accepts a perturbed count"
    bad = copy.deepcopy(got)
    key, row = bad[1][0][0][0]
    bad[1][0] = (((key, (row[0] + 1, row[1])),),) + bad[1][0][1:]  # one payload value
    assert check_calls(fresh(), calls, bad), "reference accepts a perturbed row"
    print("reference: accepts the program's results, rejects perturbed ones")


def check_traced(workload: str) -> None:
    import layers
    from spans import CALL, Tracer
    from workloads import WORKLOADS

    tracer = Tracer()
    layers.instrument(tracer)
    try:
        outcome = WORKLOADS[workload](1, 0, tracer, calls=SMALL_CALLS[workload])
    finally:
        tracer.restore()
    assert not outcome.problems, outcome.problems
    problems = tracer.check_nesting()
    assert not problems, problems[:5]
    sums: dict[int, int] = {}
    for span, own in zip(tracer.spans, tracer.self_times()):
        if isinstance(span[CALL], int):
            sums[span[CALL]] = sums.get(span[CALL], 0) + own
    worst = 0.0
    for call, wall in enumerate(outcome.latencies_ns):
        error = abs(sums[call] - wall) / wall
        worst = max(worst, error)
        assert error <= 0.05, f"call {call}: self times {sums[call]} ns vs wall {wall} ns"
    values = layers.layer_metrics(tracer, outcome.layer, tracer.timed_counts)
    wanted = [m["name"] for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]]
    missing = [name for name in wanted if name not in values]
    assert not missing, missing
    print(
        f"{workload}: {len(tracer.spans)} spans nest; per-call self times within "
        f"{100 * worst:.2f} % of execute wall time; {len(wanted)} per-layer metrics"
    )


def main() -> int:
    from run import stop_helper_processes

    try:
        check_reference_rejects_perturbed()
        for workload in SMALL_CALLS:
            check_traced(workload)
    finally:
        stop_helper_processes()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
