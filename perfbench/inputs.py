"""Seeded inputs of the three workloads, made without the program.

Every input -- loaded rows, the planner's training sample, the calls of
the timed phase -- is a plain tuple spec (see :mod:`reference`) drawn from
``numpy.random.default_rng(seed)`` (the training sample from the fixed
``TRAINING_SEED``).  The same seed and run length give the
same inputs, and no change to the program can change them.

Loaded keys are the even integers ``0, 2, ..., 2 * ROWS - 2``.  Inserted
keys and update targets are fresh odd integers, so every key in a run is
unique: a delete or update always names one live row, and the reference
never has to guess which duplicate the engine chose.
"""

from __future__ import annotations

import numpy as np

ROWS = 1 << 20
CHUNK_ROWS = 1 << 16
PARTITIONS = 16
PAYLOAD_NAMES = ("a1", "a2")
DOMAIN_HIGH = 2 * ROWS - 2
RANGE_WIDTH = DOMAIN_HIGH // 1000  # 0.1 % of the key domain (HAP Q2)
PAYLOAD_HIGH = 1 << 31

#: Per-op calls of ``hybrid-drift``: 64 operation objects per call.
HYBRID_CALL_OPS = 64
#: The "hybrid, skewed" mix (HAP Q1 49 %, Q4 50 %, Q6 1 %), skewed to
#: recent keys, and the "read-only, uniform" mix (Q1 94 %, Q2 5 %, Q6 1 %).
HYBRID_SKEWED = {"point": 0.49, "insert": 0.50, "update": 0.01}
READ_ONLY_UNIFORM = {"point": 0.94, "range": 0.05, "update": 0.01}
TRAINING_OPS = 4096
#: The training sample is drawn from this fixed seed, not from ``--seed``:
#: the planned layout follows the sample, and with a seeded sample the
#: layout alone moved ``sim_ops_per_s`` by up to 10 % from seed to seed and
#: the timed figures by about 8 %.  Every run plans the same layout; the
#: seed varies the operations it serves.
TRAINING_SEED = 0
#: Share of the calls made in the "hybrid, skewed" mix before the drift.
#: Its calls take about 2.5 times as long as the read-only ones, so 15 % of
#: the calls is about a third of the run's time.  Every such call is slower
#: than the median call, so the median call latency is the read-only
#: calls' percentile ``50 / (1 - DRIFT_AT)``: with 15 % the 59th, in the
#: dense middle of their latencies.  With 30 % it was the 71st, in their
#: sparse upper tail, where the median spread by up to 19 % over ten runs;
#: an even split would put it in the gap between the two phases.
DRIFT_AT = 0.15

#: One ``durable-writes`` call: pre-batched writes then read-your-writes.
DURABLE_INSERTS = 32
DURABLE_DELETES = 8
DURABLE_UPDATES = 8
DURABLE_POINTS = 32  # half of them the keys this call inserted
DURABLE_RANGES = 8
CHECKPOINT_EVERY = 500  # calls

#: One ``sharded-reads`` call: a read-mostly pre-batched mix.
SHARDED_POINTS = 256
SHARDED_RANGES = 32
SHARDED_INSERTS = 2
SHARDED_MOVES = 1  # cross-shard key updates


def loaded_rows(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``ROWS`` loaded keys and their payload rows."""
    rng = np.random.default_rng([seed, 0])
    keys = np.arange(ROWS, dtype=np.int64) * 2
    payload = rng.integers(0, PAYLOAD_HIGH, size=(ROWS, len(PAYLOAD_NAMES)))
    return keys, payload.astype(np.int64)


class KeyPicker:
    """Chooses live loaded keys and fresh odd keys at domain positions."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self.alive = np.ones(ROWS, dtype=bool)
        self.used: set[int] = set()

    def live(self, position: float) -> int:
        """The first live loaded key at or after ``position`` in [0, 1)."""
        index = min(int(position * ROWS), ROWS - 1)
        while not self.alive[index]:
            index = (index + 1) % ROWS
        return 2 * index

    def take(self, position: float) -> int:
        """Like :meth:`live`, and mark the key gone (delete/update source)."""
        key = self.live(position)
        self.alive[key // 2] = False
        return key

    def fresh(self, position: float) -> int:
        """An unused odd key near ``position``."""
        key = int(position * DOMAIN_HIGH) | 1
        while key in self.used:
            key = int(self.rng.integers(0, DOMAIN_HIGH)) | 1
        self.used.add(key)
        return key

    def payload(self) -> tuple[int, ...]:
        return tuple(
            int(v) for v in self.rng.integers(0, PAYLOAD_HIGH, len(PAYLOAD_NAMES))
        )


def _positions(rng: np.random.Generator, n: int, skewed: bool) -> list[float]:
    """Domain positions in [0, 1); skewed ones favour recent (high) keys."""
    draws = rng.random(n)
    if skewed:
        draws = draws ** (1.0 / 3.0)
    return np.minimum(draws, np.nextafter(1.0, 0.0)).tolist()


def mix_ops(picker: KeyPicker, mix: dict, n: int, skewed: bool) -> list[tuple]:
    """``n`` single-operation specs drawn from ``mix``."""
    rng = picker.rng
    kinds = list(mix)
    choice = rng.choice(len(kinds), size=n, p=[mix[k] for k in kinds]).tolist()
    reads = _positions(rng, n, skewed)
    uniform = _positions(rng, 2 * n, False)
    specs = []
    for i, c in enumerate(choice):
        kind = kinds[c]
        if kind == "point":
            specs.append(("point", picker.live(reads[i])))
        elif kind == "insert":
            specs.append(("insert", picker.fresh(reads[i]), picker.payload()))
        elif kind == "range":
            low = int(uniform[2 * i] * (DOMAIN_HIGH - RANGE_WIDTH))
            specs.append(("range", low, low + RANGE_WIDTH))
        else:  # update: uniform source, uniform fresh target
            old = picker.take(uniform[2 * i])
            specs.append(("update", old, picker.fresh(uniform[2 * i + 1])))
    return specs


def drift_call(calls: int) -> int:
    """Index of the first call of the drifted phase."""
    return round(calls * DRIFT_AT)


def hybrid_inputs(seed: int, calls: int) -> tuple[list[tuple], list[list[tuple]]]:
    """Training sample plus ``calls`` calls: the first ``DRIFT_AT`` of them
    in the hybrid skewed mix, the rest drifted to the read-only uniform mix."""
    sample = mix_ops(
        KeyPicker(np.random.default_rng([TRAINING_SEED, 1])), HYBRID_SKEWED, TRAINING_OPS, True
    )
    picker = KeyPicker(np.random.default_rng([seed, 2]))
    first = drift_call(calls)
    ops = mix_ops(picker, HYBRID_SKEWED, first * HYBRID_CALL_OPS, True)
    ops += mix_ops(picker, READ_ONLY_UNIFORM, (calls - first) * HYBRID_CALL_OPS, False)
    return sample, [
        ops[i : i + HYBRID_CALL_OPS] for i in range(0, len(ops), HYBRID_CALL_OPS)
    ]


def _bounds(rng: np.random.Generator, n: int) -> tuple[tuple[int, int], ...]:
    lows = rng.integers(0, DOMAIN_HIGH - RANGE_WIDTH, n).tolist()
    return tuple((low, low + RANGE_WIDTH) for low in lows)


def durable_inputs(seed: int, calls: int) -> list[list[tuple]]:
    """Pre-batched write calls with read-your-writes lookups."""
    rng = np.random.default_rng([seed, 3])
    picker = KeyPicker(rng)
    out = []
    for _ in range(calls):
        spots = _positions(rng, DURABLE_INSERTS + DURABLE_DELETES + 2 * DURABLE_UPDATES, False)
        inserted = tuple(picker.fresh(p) for p in spots[:DURABLE_INSERTS])
        payloads = tuple(picker.payload() for _ in inserted)
        rest = spots[DURABLE_INSERTS:]
        deleted = tuple(picker.take(p) for p in rest[:DURABLE_DELETES])
        rest = rest[DURABLE_DELETES:]
        pairs = tuple(
            (picker.take(rest[2 * i]), picker.fresh(rest[2 * i + 1]))
            for i in range(DURABLE_UPDATES)
        )
        half = DURABLE_POINTS // 2
        looked = inserted[:half] + tuple(
            2 * int(i) for i in rng.integers(0, ROWS, DURABLE_POINTS - half)
        )
        out.append(
            [
                ("minsert", inserted, payloads),
                ("mdelete", deleted),
                ("mupdate", pairs),
                ("mpoint", looked),
                ("mrange", _bounds(rng, DURABLE_RANGES)),
            ]
        )
    return out


def sharded_inputs(seed: int, calls: int) -> list[list[tuple]]:
    """Read-mostly calls with a trickle of inserts and cross-shard moves.

    Move sources and targets sit on opposite sides of the key-space middle
    (positions below 0.4 and above 0.6), where two shards split the keys;
    the direction of the moves alternates from call to call.
    """
    rng = np.random.default_rng([seed, 4])
    picker = KeyPicker(rng)
    out = []
    for call in range(calls):
        points = tuple((2 * rng.integers(0, ROWS, SHARDED_POINTS)).tolist())
        inserted = tuple(picker.fresh(p) for p in _positions(rng, SHARDED_INSERTS, False))
        payloads = tuple(picker.payload() for _ in inserted)
        pairs = []
        for i, (a, b) in enumerate(rng.random((SHARDED_MOVES, 2)).tolist()):
            low, high = 0.4 * a, 0.6 + 0.4 * b
            old, new = (low, high) if (call + i) % 2 == 0 else (high, low)
            pairs.append((picker.take(old), picker.fresh(new)))
        out.append(
            [
                ("mpoint", points),
                ("mrange", _bounds(rng, SHARDED_RANGES)),
                ("minsert", inserted, payloads),
                ("mupdate", tuple(pairs)),
            ]
        )
    return out
