"""Where the traced run records spans, and the per-layer metrics.

:func:`instrument` wraps the public entry points of each layer the
benchmark reaches (the same set for every workload; a layer a workload
never calls records nothing there).  :func:`layer_metrics` turns the
spans of the timed ``execute`` calls -- plus the phases around them:
set-up, checkpoints, follower catch-up and reopen -- into the metrics
listed under ``per_layer`` in ``BENCHMARK.json``.  A metric of a layer
that a workload does not exercise reads 0.
"""

from __future__ import annotations

import json
import os
import types

from spans import CALL, END, NAME, OPS, PARENT, START

KERNELS = {
    "kernel.point": (("point_query", None), ("multi_point_query", 1)),
    "kernel.range": (("range_count", None), ("multi_range_count", 1)),
    "kernel.insert": (("insert", None), ("bulk_insert", 1)),
    "kernel.delete": (("delete", None), ("bulk_delete", 1)),
    "kernel.update": (("update_key", None), ("bulk_update", 1)),
}

METRICS = (
    ("batch_p99_ms", "ms", "lower"),
    ("policies.self_us_per_op", "us", "lower"),
    ("engine.dispatch_self_us_per_op", "us", "lower"),
    ("engine.ops_per_kernel_call", "ops", "higher"),
    ("engine.scalar_calls_per_kop", "calls", "lower"),
    ("kernel.point_us_per_op", "us", "lower"),
    ("kernel.range_us_per_op", "us", "lower"),
    ("kernel.insert_us_per_op", "us", "lower"),
    ("kernel.delete_us_per_op", "us", "lower"),
    ("kernel.update_us_per_op", "us", "lower"),
    ("storage.random_blocks_per_op", "count", "lower"),
    ("storage.seq_blocks_per_op", "count", "lower"),
    ("storage.index_probes_per_op", "count", "lower"),
    ("monitor.flush_us_per_op", "us", "lower"),
    ("reorg.us_per_op", "us", "lower"),
    ("reorg.slice_max_ms", "ms", "lower"),
    ("planner.solve_ms_per_chunk", "ms", "lower"),
    ("wal.append_us_per_op", "us", "lower"),
    ("wal.appends_per_call", "count", "lower"),
    ("wal.fsyncs_per_call", "count", "lower"),
    ("wal.fsync_wait_ms", "ms", "lower"),
    ("wal.bytes_per_write", "B", "lower"),
    ("checkpoint.ms", "ms", "lower"),
    ("checkpoint.bytes_per_row", "B", "lower"),
    ("recovery.snapshot_load_ms", "ms", "lower"),
    ("recovery.replay_us_per_op", "us", "lower"),
    ("follower.boot_ms", "ms", "lower"),
    ("follower.apply_us_per_op", "us", "lower"),
    ("follower.ops_per_record", "ops", "higher"),
    ("shard.spawn_ms", "ms", "lower"),
    ("shard.rounds_per_call", "count", "lower"),
    ("shard.worker_us_per_op", "us", "lower"),
    ("shard.wait_us_per_op", "us", "lower"),
    ("shard.imbalance", "ratio", "lower"),
    ("shard.route_merge_us_per_op", "us", "lower"),
    ("codec.encode_us_per_op", "us", "lower"),
    ("codec.decode_us_per_op", "us", "lower"),
    ("ipc.bytes_per_op", "B", "lower"),
    ("replica_ops_per_s", "ops/s", "higher"),
    ("reopen_s", "s", "lower"),
)


def _len_arg(position):
    if position is None:
        return lambda args, kwargs: 1
    return lambda args, kwargs: len(args[position])


def instrument(tracer) -> None:
    """Wrap every layer entry point the benchmark measures."""
    from repro.api import policies, reorganizer, session
    from repro.core import monitor, planner
    from repro.durability import manager, recovery, wal
    from repro.ipc import framing
    from repro.replication import follower
    from repro.sharding import cluster, codec, database
    from repro.storage import column, engine, table

    tracer.wrap(session.Session, "execute", "session")
    tracer.wrap(policies.SerialPolicy, "execute", "policies")
    tracer.wrap(policies.VectorizedPolicy, "execute", "policies")
    tracer.wrap(engine.StorageEngine, "execute_batch", "engine")
    tracer.wrap(engine.StorageEngine, "execute", "engine")
    for name, entries in KERNELS.items():
        for attr, position in entries:
            tracer.wrap(table.Table, attr, name, ops=_len_arg(position))
    tracer.wrap_count(column.PartitionedColumn, "point_query", "scalar")
    tracer.wrap_count(column.PartitionedColumn, "range_query", "scalar")
    tracer.wrap(monitor.WorkloadMonitor, "observe_batch", "monitor.flush")
    tracer.wrap(monitor.WorkloadMonitor, "observe", "monitor.flush")
    tracer.wrap(reorganizer.Reorganizer, "after_execute", "reorg")
    tracer.wrap(planner.CasperPlanner, "plan_chunk", "planner.solve")

    tracer.wrap(manager.DurabilityManager, "append", "wal.append")
    tracer.wrap(wal.WalWriter, "sync", "wal.fsync")
    encode_delta_log = manager.encode_delta_log

    def counted_encode(deltas):
        body = encode_delta_log(deltas)
        tracer.count("wal.bytes", len(body))
        return body

    tracer.patch(manager, "encode_delta_log", counted_encode)

    def snapshot_size(args, info):
        tracer.value("checkpoint.bytes", _tree_bytes(info.path))
        tracer.value("checkpoint.rows", info.rows)

    tracer.wrap(manager.DurabilityManager, "checkpoint", "checkpoint", after=snapshot_size)
    tracer.wrap(recovery, "load_latest_snapshot", "recovery.snapshot_load")
    tracer.wrap(recovery, "table_from_snapshot", "recovery.snapshot_load")
    tracer.wrap(recovery, "replay", "recovery.replay")
    tracer.wrap(follower.Follower, "__init__", "follower.boot")
    tracer.wrap(follower.Follower, "catch_up", "follower.catch_up")

    tracer.wrap(cluster.ShardCluster, "start", "shard.spawn")

    def harvest(args, replies):
        walls = [reply.wall_ns for reply in replies.values()]
        tracer.value("shard.round_walls", (tracer.call, tracer.last, walls))

    tracer.wrap(cluster.ShardCluster, "execute_round", "shard.round", after=harvest)
    tracer.wrap(cluster.ShardChannel, "request", "shard.rpc")
    tracer.wrap(database.ShardedSession, "execute", "shard.session")
    tracer.wrap(codec, "encode_ops", "codec.encode")
    tracer.wrap(codec, "decode_results", "codec.decode")

    put, get = codec.ArenaWriter.put, codec.ArenaReader.get

    def counted_put(self, values):
        descriptor = put(self, values)
        if "n" in descriptor:
            tracer.count("ipc.bytes", 8 * descriptor["n"])
        return descriptor

    def counted_get(self, descriptor):
        values = get(self, descriptor)
        if "n" in descriptor:
            tracer.count("ipc.bytes", values.nbytes)
        return values

    tracer.patch(codec.ArenaWriter, "put", counted_put)
    tracer.patch(codec.ArenaReader, "get", counted_get)

    def dumps(payload, **kwargs):
        text = json.dumps(payload, **kwargs)
        tracer.count("ipc.bytes", len(text) + 4)
        return text

    def loads(text):
        tracer.count("ipc.bytes", len(text) + 4)
        return json.loads(text)

    tracer.patch(
        framing,
        "json",
        types.SimpleNamespace(dumps=dumps, loads=loads, JSONDecodeError=json.JSONDecodeError),
    )


def _tree_bytes(path) -> int:
    total = 0
    for folder, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(folder, f)) for f in files)
    return total


def _div(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer, layer: dict, counts_timed: dict) -> dict:
    """Per-layer metrics from the spans plus the run's own counts.

    ``layer`` carries what the workload measured itself (ops and calls of
    the timed phase, block-access tallies, follower and reopen figures);
    ``counts_timed`` is the tracer's counters accumulated over the timed
    calls only.
    """
    spans = tracer.spans
    selfs = tracer.self_times()
    ops = layer["ops"]
    calls = layer["calls"]
    timed_self: dict[str, int] = {}
    timed_incl: dict[str, int] = {}
    timed_n: dict[str, int] = {}
    kernel_ops: dict[str, int] = {}
    kernel_ns: dict[str, int] = {}
    # Durations by (phase, span name); the timed calls form phase "timed".
    phase: dict[tuple, list[int]] = {}
    for index, span in enumerate(spans):
        name = span[NAME]
        duration = span[END] - span[START]
        timed = isinstance(span[CALL], int)
        phase.setdefault(("timed" if timed else span[CALL], name), []).append(duration)
        if not timed:
            continue
        timed_self[name] = timed_self.get(name, 0) + selfs[index]
        timed_incl[name] = timed_incl.get(name, 0) + duration
        timed_n[name] = timed_n.get(name, 0) + 1
        if name.startswith("kernel.") and (
            span[PARENT] < 0 or not spans[span[PARENT]][NAME].startswith("kernel.")
        ):
            kernel_ops[name] = kernel_ops.get(name, 0) + span[OPS]
            kernel_ns[name] = kernel_ns.get(name, 0) + duration

    def per_op(name):
        return _div(timed_self.get(name, 0) / 1e3, ops)

    def mean_ms(key):
        values = phase.get(key, [])
        return _div(sum(values) / 1e6, len(values))

    solves = [d for (_, name), ds in phase.items() if name == "planner.solve" for d in ds]
    kernel_calls = sum(timed_n.get(name, 0) for name in KERNELS)
    out = {
        "policies.self_us_per_op": per_op("policies"),
        "engine.dispatch_self_us_per_op": per_op("engine"),
        "engine.ops_per_kernel_call": _div(ops, kernel_calls),
        "engine.scalar_calls_per_kop": _div(1000 * counts_timed.get("scalar", 0), ops),
    }
    for name in KERNELS:
        out[f"{name}_us_per_op"] = _div(kernel_ns.get(name, 0) / 1e3, kernel_ops.get(name, 0))
    for key in ("storage.random_blocks_per_op", "storage.seq_blocks_per_op", "storage.index_probes_per_op"):
        out[key] = layer[key]
    reorg = phase.get(("timed", "reorg"), [])
    write_ops = layer.get("write_ops", 0)
    out.update(
        {
            "monitor.flush_us_per_op": per_op("monitor.flush"),
            "reorg.us_per_op": per_op("reorg"),
            "reorg.slice_max_ms": max(reorg, default=0) / 1e6,
            "planner.solve_ms_per_chunk": _div(sum(solves) / 1e6, len(solves)),
            "wal.append_us_per_op": per_op("wal.append"),
            "wal.appends_per_call": _div(timed_n.get("wal.append", 0), calls),
            "wal.fsyncs_per_call": _div(timed_n.get("wal.fsync", 0), calls),
            "wal.fsync_wait_ms": _div(timed_incl.get("wal.fsync", 0) / 1e6, calls),
            "wal.bytes_per_write": _div(counts_timed.get("wal.bytes", 0), write_ops),
            "checkpoint.ms": mean_ms(("checkpoint", "checkpoint")),
            "checkpoint.bytes_per_row": _div(
                sum(tracer.values.get("checkpoint.bytes", [])),
                sum(tracer.values.get("checkpoint.rows", [])),
            ),
            "recovery.snapshot_load_ms": sum(phase.get(("reopen", "recovery.snapshot_load"), []))
            / 1e6,
            "recovery.replay_us_per_op": _div(
                sum(phase.get(("reopen", "recovery.replay"), [])) / 1e3,
                layer.get("replayed_ops", 0),
            ),
            "follower.boot_ms": mean_ms(("setup", "follower.boot")),
            "follower.apply_us_per_op": _div(
                sum(phase.get(("catch-up", "follower.catch_up"), [])) / 1e3,
                layer.get("replica_ops", 0),
            ),
            "follower.ops_per_record": _div(
                layer.get("replica_ops", 0), layer.get("replica_records", 0)
            ),
            "shard.spawn_ms": mean_ms(("setup", "shard.spawn")),
            "shard.rounds_per_call": _div(
                timed_n.get("shard.round", 0) + timed_n.get("shard.rpc", 0), calls
            ),
            "shard.route_merge_us_per_op": per_op("shard.session"),
            "codec.encode_us_per_op": per_op("codec.encode"),
            "codec.decode_us_per_op": per_op("codec.decode"),
            "ipc.bytes_per_op": _div(counts_timed.get("ipc.bytes", 0), ops),
            "batch_p99_ms": layer["batch_p99_ms"],
            "replica_ops_per_s": layer.get("replica_ops_per_s", 0.0),
            "reopen_s": layer.get("reopen_s", 0.0),
        }
    )
    out.update(_shard_rounds(tracer, ops))
    return out


def _shard_rounds(tracer, ops) -> dict:
    """Worker time, wait and imbalance of the timed execute rounds."""
    spans = tracer.spans
    worker_ns = wait_ns = 0.0
    ratios = []
    children: dict[int, int] = {}
    for span in spans:
        if span[PARENT] >= 0 and span[NAME].startswith("codec."):
            children[span[PARENT]] = children.get(span[PARENT], 0) + span[END] - span[START]
    for call, index, walls in tracer.values.get("shard.round_walls", []):
        if not isinstance(call, int) or not walls:
            continue
        span = spans[index]
        slowest = max(walls)
        worker_ns += slowest
        wait_ns += (span[END] - span[START]) - children.get(index, 0) - slowest
        mean = sum(walls) / len(walls)
        ratios.append(_div(slowest, mean) if mean else 1.0)
    return {
        "shard.worker_us_per_op": _div(worker_ns / 1e3, ops),
        "shard.wait_us_per_op": _div(wait_ns / 1e3, ops),
        "shard.imbalance": _div(sum(ratios), len(ratios)),
    }
