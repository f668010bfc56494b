"""The three deployments, driven through the program's public API.

Each workload function takes ``(seed, seconds, tracer)`` and returns a
:class:`Outcome`.  The shape is the same for all three:

1. make the inputs (:mod:`inputs`) and convert them to operation objects;
2. set the deployment up ``SETUP_REPS`` times and keep the last one, so
   ``setup_s`` is a median and not one noisy sample;
3. the timed phase: one ``execute`` call per input call, each timed on its
   own; ``durable-writes`` also checkpoints on a fixed schedule;
4. outside the timed window: replay the inputs through the reference model
   and compare every result, the final table, and the properties the
   deployment must have; then tear everything down.

The number of calls is fixed by the run length (``CALLS_PER_SECOND``), not
by a clock, so a seed always issues the same operations and the simulated
cost (``sim_ops_per_s``) repeats exactly.

Times are taken net of steal: the CPU time a hypervisor gives to other
machines while this one's CPUs have work (``/proc/stat``).  On a shared
host steal is what spreads wall-clock figures most from run to run; each
phase (the set-ups, the timed calls) counts its wall time and its steal,
and its times are scaled by the share of wall time not lost to steal
(:meth:`StealMeter.net_share`).
Where the host steals nothing the figures are plain wall-clock time.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

import inputs
from reference import ReferenceTable, check_calls, sort_rows, spec_keys, spec_ops

from repro.api import Database, Reorganizer, ReorgPolicy, VectorizedPolicy
from repro.durability import DurabilityConfig
from repro.replication import Primary
from repro.storage import LayoutKind
from repro.storage.cost_accounting import (
    DEFAULT_BLOCK_VALUES,
    AccessCounter,
    constants_for_block_values,
)
from repro.workload import operations as ops

#: Calls per second of ``--seconds`` on the reference machine (see README),
#: so that the timed phase lasts about ``--seconds`` there.
CALLS_PER_SECOND = {"hybrid-drift": 150, "durable-writes": 120, "sharded-reads": 100}
SETUP_REPS = {"hybrid-drift": 9, "durable-writes": 7, "sharded-reads": 3}


@dataclass
class Outcome:
    """What one run measured and found."""

    metrics: dict = field(default_factory=dict)
    layer: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    latencies_ns: list = field(default_factory=list)


# --------------------------------------------------------------------- #
# Specs <-> the program's operation objects and results
# --------------------------------------------------------------------- #


def to_op(spec):
    kind = spec[0]
    if kind == "point":
        return ops.PointQuery(key=spec[1])
    if kind == "range":
        return ops.RangeQuery(low=spec[1], high=spec[2])
    if kind == "insert":
        return ops.Insert(key=spec[1], payload=spec[2])
    if kind == "update":
        return ops.Update(old_key=spec[1], new_key=spec[2])
    if kind == "mpoint":
        return ops.MultiPointQuery(keys=spec[1])
    if kind == "mrange":
        return ops.MultiRangeCount(bounds=spec[1])
    if kind == "minsert":
        return ops.MultiInsert(keys=spec[1], payloads=spec[2])
    if kind == "mdelete":
        return ops.MultiDelete(keys=spec[1])
    if kind == "mupdate":
        return ops.MultiUpdate(pairs=spec[1])
    raise ValueError(f"unknown spec kind {kind!r}")


def _rows(rows) -> tuple:
    out = [(int(r.key), tuple(map(int, map(r.payload.__getitem__, inputs.PAYLOAD_NAMES)))) for r in rows]
    return tuple(sorted(out) if len(out) > 1 else out)


def normalize(spec, result):
    """The program's result for ``spec`` in the reference model's terms."""
    kind = spec[0]
    if kind == "point":
        return _rows(result)
    if kind == "range":
        return int(result)
    if kind == "insert":
        return 1 if result is not None else 0
    if kind == "update":
        # Serial dispatch reports every update as None; a miss shows up
        # only in the call's error count, which is checked separately.
        return 1
    if kind == "mpoint":
        return tuple(_rows(rows) for rows in result)
    if kind == "minsert":
        return len(result)
    if kind in ("mrange", "mdelete", "mupdate"):
        return tuple(int(v) for v in result)
    raise ValueError(f"unknown spec kind {kind!r}")


def table_rows(table) -> np.ndarray:
    """Every live ``key, payload...`` row of an in-process table, sorted."""
    keys = [chunk.values() for chunk in table.chunks]
    rowids = np.concatenate([chunk.rowids() for chunk in table.chunks])
    payload = table.payload_rows(rowids)
    return sort_rows(np.column_stack([np.concatenate(keys), payload]))


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_rss_mb() -> float:
    """Peak resident memory of the live child processes (``VmHWM``)."""
    total = 0.0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1]) / 1024.0
        except OSError:
            pass
    return total


def cpu_ns() -> tuple[int, int]:
    """``(busy, steal)`` so far, summed over the machine's CPUs, in ns.

    Busy is user, nice, system, irq and softirq time; steal is time the
    CPUs had work but the hypervisor ran something else.  ``/proc/stat``
    counts both in clock ticks (10 ms); ``(0, 0)`` where it is missing.
    """
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    if len(fields) < 8:
        return 0, 0
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    tick_ns = 1_000_000_000 // os.sysconf("SC_CLK_TCK")
    return (user + nice + system + irq + softirq) * tick_ns, steal * tick_ns


class StealMeter:
    """Wall time, busy CPU time and steal over the intervals it was entered for."""

    def __init__(self) -> None:
        self.wall_ns = 0
        self.busy_ns = 0
        self.steal_ns = 0

    def __enter__(self) -> "StealMeter":
        self._start = (time.perf_counter_ns(), *cpu_ns())
        return self

    def __exit__(self, *exc) -> None:
        busy, steal = cpu_ns()
        self.wall_ns += time.perf_counter_ns() - self._start[0]
        self.busy_ns += busy - self._start[1]
        self.steal_ns += steal - self._start[2]

    def net_share(self) -> float:
        """The share of the wall time that was not lost to steal (at least 0.1).

        Steal is summed over the CPUs.  While one CPU at a time has work,
        a stolen second is a second of wall time lost.  While several have
        work at once, their steal overlaps, so it is spread over their
        demand (busy plus stolen time), which then exceeds the wall time.
        """
        if self.wall_ns <= 0:
            return 1.0
        demand = max(self.wall_ns, self.busy_ns + self.steal_ns)
        return max(1.0 - self.steal_ns / demand, 0.1)


# --------------------------------------------------------------------- #
# Shared phases
# --------------------------------------------------------------------- #


def _setup(name, build, teardown, tracer) -> tuple[object, float]:
    """Build the deployment ``SETUP_REPS`` times; keep the last one.

    Returns the deployment and the median set-up time, net of steal.
    """
    times = []
    meter = StealMeter()
    for rep in range(SETUP_REPS[name]):
        if tracer is not None:
            tracer.call = "setup"
        gc.collect()
        with meter:
            start = time.perf_counter()
            deployment = build()
            times.append(time.perf_counter() - start)
        if rep < SETUP_REPS[name] - 1:
            teardown(deployment)
            deployment = None  # let it go before the next one is built
    return deployment, statistics.median(times) * meter.net_share()


class Kept(NamedTuple):
    """What the run keeps of one call: plain ints and tuples only, so the
    records do not load the garbage collector of the process under test."""

    results: tuple
    errors: int
    accesses: tuple  # random reads, random writes, seq reads, seq writes, probes
    durable: bool
    replans: int


def keep(specs, result) -> Kept:
    a = result.accesses
    return Kept(
        tuple(normalize(spec, value) for spec, value in zip(specs, result.results)),
        int(result.errors),
        (a.random_reads, a.random_writes, a.seq_reads, a.seq_writes, a.index_probes),
        bool(result.durable),
        sum(1 for decision in result.reorg_decisions if decision.replanned),
    )


def _timed(session, calls, tracer, between=None):
    """Run every call once.

    Returns ``(kept, latencies_ns, busy_s, error, meter)``: one
    :class:`Kept` per completed call, each call's ``execute`` wall time,
    the time spent in the program (``execute`` calls plus whatever
    ``between`` reports, such as checkpoints), ``(call index, message)`` if
    a call raised, and the :class:`StealMeter` of the whole phase.  The
    benchmark's own bookkeeping between calls is not part of ``busy_s``.
    """
    oplists = [[to_op(spec) for spec in specs] for specs in calls]
    counts = [sum(spec_ops(spec) for spec in specs) for specs in calls]
    kept, latencies = [], []
    busy_ns = 0
    error = None
    gc.collect()
    gc.freeze()  # the inputs are not the program's garbage to scan
    counts_before = dict(tracer.counts) if tracer is not None else {}
    meter = StealMeter()
    try:
        with meter:
            for index, oplist in enumerate(oplists):
                if tracer is not None:
                    tracer.call = index
                    root = tracer.begin("call")
                try:
                    t0 = time.perf_counter_ns()
                    result = session.execute(oplist)
                    t1 = time.perf_counter_ns()
                except Exception as exc:  # counted as failed, reported, run stops
                    error = (index, f"call {index} raised {type(exc).__name__}: {exc}")
                    break
                finally:
                    if tracer is not None:
                        tracer.end(root, counts[index])
                latencies.append(t1 - t0)
                busy_ns += t1 - t0
                kept.append(keep(calls[index], result))
                del result
                if between is not None:
                    busy_ns += between(index)
    finally:
        gc.unfreeze()
    if tracer is not None:
        tracer.call = "after"
        tracer.timed_counts = {
            name: count - counts_before.get(name, 0) for name, count in tracer.counts.items()
        }
    return kept, latencies, busy_ns / 1e9, error, meter


def _account(outcome, calls, kept, latencies, busy_s, error, meter, constants):
    """End-to-end metrics, failure counts and block-access tallies.

    ``ops_per_s`` and ``batch_p50_ms`` are net of the phase's steal; the
    per-layer ``batch_p99_ms`` is left as measured.
    """
    counts = [sum(spec_ops(spec) for spec in specs) for specs in calls]
    outcome.attempted = sum(counts)
    outcome.failed = sum(k.errors for k in kept)
    if error is not None:
        outcome.failed += sum(counts[error[0] :])
        outcome.problems.append(error[1])
    if not kept:
        raise RuntimeError(f"no call completed: {error[1]}")
    ops_done = sum(counts[: len(kept)])
    outcome.latencies_ns = latencies
    totals = np.sum([k.accesses for k in kept], axis=0)
    sim_ns = AccessCounter(*(int(v) for v in totals)).cost(constants)
    lat_ms = np.asarray(latencies, dtype=np.float64) / 1e6
    share = meter.net_share()
    outcome.metrics.update(
        ops_per_s=ops_done / (busy_s * share),
        batch_p50_ms=float(np.percentile(lat_ms, 50)) * share,
        sim_ops_per_s=ops_done / (sim_ns / 1e9),
        wall_ops_per_s=ops_done / busy_s,
        steal_share=1.0 - share,
    )
    outcome.layer.update(
        {
            "batch_p99_ms": float(np.percentile(lat_ms, 99)),
            "storage.random_blocks_per_op": (totals[0] + totals[1]) / ops_done,
            "storage.seq_blocks_per_op": (totals[2] + totals[3]) / ops_done,
            "storage.index_probes_per_op": totals[4] / ops_done,
            "ops": ops_done,
            "calls": len(kept),
            "write_ops": sum(
                spec_ops(s) for specs in calls[: len(kept)] for s in specs
                if s[0] in ("insert", "update", "minsert", "mdelete", "mupdate")
            ),
        }
    )


def _check(outcome, reference, calls, kept) -> None:
    """Compare every kept result with the reference (replays ``reference``)."""
    got = [k.results for k in kept]
    outcome.problems.extend(check_calls(reference, calls[: len(kept)], got))


def _check_rows(outcome, label, expected, got) -> None:
    if expected.shape != got.shape or not np.array_equal(expected, got):
        outcome.problems.append(
            f"{label}: {got.shape[0]} rows differ from the reference's {expected.shape[0]}"
        )


def _reference(keys, payload, calls):
    extra = [k for specs in calls for spec in specs for k in spec_keys(spec)]
    return ReferenceTable(keys, payload, extra)


def _calls(name, seconds) -> int:
    return max(4, round(CALLS_PER_SECOND[name] * seconds))


# --------------------------------------------------------------------- #
# hybrid-drift
# --------------------------------------------------------------------- #


def hybrid_drift(seed: int, seconds: float, tracer=None, calls: int | None = None) -> Outcome:
    """Casper-planned, memory-only, per-op objects, drift mid-run."""
    outcome = Outcome()
    n_calls = calls if calls is not None else _calls("hybrid-drift", seconds)
    sample, call_specs = inputs.hybrid_inputs(seed, n_calls)
    keys, payload = inputs.loaded_rows(seed)
    training = ops.Workload([to_op(spec) for spec in sample], name="hybrid, skewed")

    def build():
        db = Database.plan_for(
            training,
            keys,
            payload,
            chunk_size=inputs.CHUNK_ROWS,
            payload_names=inputs.PAYLOAD_NAMES,
        )
        session = db.session(
            execution=VectorizedPolicy(),
            reorg=Reorganizer(ReorgPolicy(), chunk_budget=1),
        )
        return db, session

    def teardown(deployment):
        deployment[1].close(reorganize=False)

    (db, session), setup_s = _setup("hybrid-drift", build, teardown, tracer)
    kept, latencies, busy_s, error, meter = _timed(session, call_specs, tracer)
    rss = self_rss_mb()
    _account(outcome, call_specs, kept, latencies, busy_s, error, meter, db.constants)
    drift_replans = sum(k.replans for k in kept[inputs.drift_call(n_calls) :])
    session.close()
    reference = _reference(keys, payload, call_specs)
    _check(outcome, reference, call_specs, kept)
    _check_rows(outcome, "final table", reference.final_rows(), table_rows(db.table))
    try:
        db.check_invariants()
    except Exception as exc:  # any failure of the check is a finding
        outcome.problems.append(f"check_invariants failed: {type(exc).__name__}: {exc}")
    if drift_replans < 1:
        outcome.problems.append("the drift phase triggered no replan")
    outcome.metrics.update(setup_s=setup_s, peak_rss_mb=rss)
    return outcome


# --------------------------------------------------------------------- #
# durable-writes
# --------------------------------------------------------------------- #


def durable_writes(seed: int, seconds: float, tracer=None, calls: int | None = None) -> Outcome:
    """Fixed layout, WAL ``fsync="always"``, in-process follower, reopen."""
    outcome = Outcome()
    n_calls = calls if calls is not None else _calls("durable-writes", seconds)
    call_specs = inputs.durable_inputs(seed, n_calls)
    keys, payload = inputs.loaded_rows(seed)

    def build():
        root = tempfile.mkdtemp(prefix="durable-")
        db = Database.from_rows(
            keys,
            payload,
            layout=LayoutKind.EQUI,
            chunk_size=inputs.CHUNK_ROWS,
            partitions=inputs.PARTITIONS,
            payload_names=inputs.PAYLOAD_NAMES,
            durability=DurabilityConfig(root=root, fsync="always"),
        )
        follower = Database.follow(root, primary=Primary(db.durability), start=False)
        return root, db, follower, db.session()

    def teardown(deployment):
        root, db, follower, session = deployment
        session.close()
        follower.close()
        db.close()
        shutil.rmtree(root)

    (root, db, follower, session), setup_s = _setup(
        "durable-writes", build, teardown, tracer
    )
    def between(index) -> int:
        """Checkpoint on the fixed schedule; returns the time it took."""
        if (index + 1) % inputs.CHECKPOINT_EVERY:
            return 0
        if tracer is not None:
            tracer.call = "checkpoint"
        start = time.perf_counter_ns()
        db.checkpoint()
        return time.perf_counter_ns() - start

    kept, latencies, busy_s, error, meter = _timed(session, call_specs, tracer, between)
    _account(outcome, call_specs, kept, latencies, busy_s, error, meter, db.constants)
    if not all(k.durable for k in kept):
        outcome.problems.append("a call under fsync='always' returned durable=False")

    if tracer is not None:
        tracer.call = "catch-up"
    applied_before = follower.follower.operations_applied
    batches_before = follower.follower.batches_applied
    start = time.perf_counter()
    follower.follower.catch_up()
    catch_up_s = time.perf_counter() - start
    applied = follower.follower.operations_applied - applied_before
    batches = follower.follower.batches_applied - batches_before

    if not follower.follower.caught_up:
        outcome.problems.append("the follower did not catch up")
    follower.close()
    session.close()
    db.close()

    if tracer is not None:
        tracer.call = "reopen"
    gc.collect()
    start = time.perf_counter()
    reopened = Database.open(root)
    reopen_s = time.perf_counter() - start
    replayed = reopened.recovery.operations_replayed
    reopened.close()
    rss = self_rss_mb()
    shutil.rmtree(root)

    reference = _reference(keys, payload, call_specs)
    _check(outcome, reference, call_specs, kept)
    expected = reference.final_rows()
    _check_rows(outcome, "final table", expected, table_rows(db.table))
    _check_rows(outcome, "caught-up follower", expected, table_rows(follower.table))
    _check_rows(outcome, "reopened database", expected, table_rows(reopened.table))

    outcome.metrics.update(setup_s=setup_s, peak_rss_mb=rss)
    outcome.layer.update(
        replica_ops_per_s=applied / catch_up_s,
        reopen_s=reopen_s,
        replica_ops=applied,
        replica_records=batches,
        replayed_ops=replayed,
    )
    return outcome


# --------------------------------------------------------------------- #
# sharded-reads
# --------------------------------------------------------------------- #

N_SHARDS = 2
FINAL_CHECK_BLOCK = 1 << 16
PAYLOAD_SAMPLE = 1 << 14


def _check_shards(outcome, db, session, reference, calls, seed) -> None:
    """Compare the shards' final contents with the reference.

    The key multiset is checked exactly: one ``(key, key)`` range count per
    live reference key, plus the total row count.  Payload rows are
    checked for every key the run wrote and for a seeded sample of
    ``PAYLOAD_SAMPLE`` loaded keys (materializing all million rows through
    the dispatcher would take longer than the timed phase).
    """
    expected = reference.final_rows()
    keys, counts = np.unique(expected[:, 0], return_counts=True)
    for start in range(0, keys.size, FINAL_CHECK_BLOCK):
        block = keys[start : start + FINAL_CHECK_BLOCK].tolist()
        op = ops.MultiRangeCount(bounds=tuple((k, k) for k in block))
        got = np.asarray(session.execute([op]).results[0], dtype=np.int64)
        if not np.array_equal(got, counts[start : start + FINAL_CHECK_BLOCK]):
            outcome.problems.append(f"final key counts differ in block {start}")
            break
    if db.num_rows != expected.shape[0]:
        outcome.problems.append(
            f"shards hold {db.num_rows} rows, the reference {expected.shape[0]}"
        )
    written = {k for specs in calls for spec in specs for k in spec_keys(spec)}
    sample = 2 * np.random.default_rng([seed, 5]).integers(0, inputs.ROWS, PAYLOAD_SAMPLE)
    probe = sorted(written | set(sample.tolist()))
    for start in range(0, len(probe), FINAL_CHECK_BLOCK):
        block = tuple(probe[start : start + FINAL_CHECK_BLOCK])
        rows = session.execute([ops.MultiPointQuery(keys=block)]).results[0]
        if normalize(("mpoint",), rows) != tuple(reference.point(k) for k in block):
            outcome.problems.append(f"final payload rows differ in block {start}")
            break


def sharded_reads(seed: int, seconds: float, tracer=None, calls: int | None = None) -> Outcome:
    """Two worker processes, read-mostly pre-batched calls."""
    outcome = Outcome()
    n_calls = calls if calls is not None else _calls("sharded-reads", seconds)
    call_specs = inputs.sharded_inputs(seed, n_calls)
    keys, payload = inputs.loaded_rows(seed)

    def build():
        db = Database.sharded(
            keys,
            payload,
            n_shards=N_SHARDS,
            layout="equi",
            partitions=inputs.PARTITIONS,
            chunk_size=inputs.CHUNK_ROWS,
            payload_names=inputs.PAYLOAD_NAMES,
        )
        return db, db.session()

    def teardown(deployment):
        deployment[1].close()
        deployment[0].close()

    (db, session), setup_s = _setup("sharded-reads", build, teardown, tracer)
    try:
        kept, latencies, busy_s, error, meter = _timed(session, call_specs, tracer)
        rss = self_rss_mb() + children_rss_mb()
        constants = constants_for_block_values(DEFAULT_BLOCK_VALUES)
        _account(outcome, call_specs, kept, latencies, busy_s, error, meter, constants)
        reference = _reference(keys, payload, call_specs)
        _check(outcome, reference, call_specs, kept)
        if tracer is not None:
            tracer.call = "final-check"
        _check_shards(outcome, db, session, reference, call_specs, seed)
    finally:
        session.close()
        db.close()
    outcome.metrics.update(setup_s=setup_s, peak_rss_mb=rss)
    return outcome


WORKLOADS = {
    "hybrid-drift": hybrid_drift,
    "durable-writes": durable_writes,
    "sharded-reads": sharded_reads,
}
