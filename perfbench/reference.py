"""Reference model: the expected result of every benchmark operation.

The model replays a workload's operation specs in submission order over a
plain ``key -> [payload row, ...]`` multiset and answers each operation the
way a correct engine must.  It imports nothing from the program under test:
it shares no code, no data structure and no routing logic with it, so a
fault in the program cannot hide itself by being reproduced here.

Range counts use a Fenwick tree over the sorted universe of every key that
may ever exist in the run (loaded keys plus every key the specs insert or
update to), which keeps a replay of a few hundred thousand operations in
the low seconds.

Operation specs are plain tuples (see :mod:`workloads`)::

    ("point", key)              -> rows: sorted tuple of (key, payload tuple)
    ("range", low, high)        -> count of live keys in [low, high]
    ("insert", key, payload)    -> 1 (one row id; ids are engine-local)
    ("update", old, new)        -> 1 if a row moved, else 0
    ("mpoint", keys)            -> tuple of rows per key
    ("mrange", bounds)          -> tuple of counts
    ("minsert", keys, payloads) -> number of row ids
    ("mdelete", keys)           -> tuple of deleted counts (1 or 0)
    ("mupdate", pairs)          -> tuple of updated counts (1 or 0)
"""

from __future__ import annotations

import numpy as np


def spec_keys(spec) -> list[int]:
    """Every key ``spec`` may bring into existence (insert/update targets)."""
    kind = spec[0]
    if kind == "insert":
        return [spec[1]]
    if kind == "update":
        return [spec[2]]
    if kind == "minsert":
        return [int(k) for k in spec[1]]
    if kind == "mupdate":
        return [int(new) for _, new in spec[1]]
    return []


def spec_ops(spec) -> int:
    """Key-level operations in ``spec``: one per key, bound or pair."""
    kind = spec[0]
    if kind in ("point", "range", "insert", "update"):
        return 1
    return len(spec[1])


class ReferenceTable:
    """Expected table state: a key -> payload-rows multiset."""

    def __init__(self, keys: np.ndarray, payload: np.ndarray, extra_keys) -> None:
        keys = np.asarray(keys, dtype=np.int64)
        key_list = keys.tolist()
        row_list = list(zip(*np.asarray(payload, dtype=np.int64).T.tolist()))
        self.rows: dict[int, list[tuple[int, ...]]] = {}
        if _sorted_unique(keys).size == keys.size:
            self.rows = {key: [row] for key, row in zip(key_list, row_list)}
        else:
            for key, row in zip(key_list, row_list):
                self.rows.setdefault(key, []).append(row)
        universe = _sorted_unique(
            np.concatenate([keys, np.asarray(list(extra_keys), dtype=np.int64)])
        )
        self._universe = universe
        counts = np.zeros(universe.size + 1, dtype=np.int64)
        np.add.at(counts, np.searchsorted(universe, keys) + 1, 1)
        prefix = np.cumsum(counts)
        idx = np.arange(universe.size + 1, dtype=np.int64)
        tree = prefix - prefix[idx - (idx & -idx)]
        tree[0] = 0
        self._tree = tree.tolist()

    # -- Fenwick tree over the key universe ------------------------------ #

    def _add(self, key: int, delta: int) -> None:
        i = int(np.searchsorted(self._universe, key)) + 1
        tree = self._tree
        n = len(tree)
        while i < n:
            tree[i] += delta
            i += i & -i

    def _prefix(self, i: int) -> int:
        tree = self._tree
        total = 0
        while i > 0:
            total += tree[i]
            i -= i & -i
        return total

    def count(self, low: int, high: int) -> int:
        """Live rows with ``low <= key <= high``."""
        upper = int(np.searchsorted(self._universe, high, side="right"))
        lower = int(np.searchsorted(self._universe, low, side="left"))
        return self._prefix(upper) - self._prefix(lower)

    # -- operations ------------------------------------------------------ #

    def point(self, key: int) -> list[tuple[int, tuple[int, ...]]]:
        rows = self.rows.get(key)
        if not rows:
            return ()
        return ((key, rows[0]),) if len(rows) == 1 else tuple(sorted((key, row) for row in rows))

    def insert(self, key: int, payload: tuple[int, ...]) -> int:
        self.rows.setdefault(key, []).append(tuple(payload))
        self._add(key, 1)
        return 1

    def _take(self, key: int) -> tuple[int, ...] | None:
        rows = self.rows.get(key)
        if not rows:
            return None
        row = rows.pop(0)
        if not rows:
            del self.rows[key]
        self._add(key, -1)
        return row

    def delete(self, key: int) -> int:
        return 0 if self._take(key) is None else 1

    def update(self, old: int, new: int) -> int:
        row = self._take(old)
        if row is None:
            return 0
        self.insert(new, row)
        return 1

    def apply(self, spec):
        """Apply one spec; return its expected normalized result."""
        kind = spec[0]
        if kind == "point":
            return self.point(spec[1])
        if kind == "range":
            return self.count(spec[1], spec[2])
        if kind == "insert":
            return self.insert(spec[1], spec[2])
        if kind == "update":
            return self.update(spec[1], spec[2])
        if kind == "mpoint":
            return tuple(self.point(int(k)) for k in spec[1])
        if kind == "mrange":
            return tuple(self.count(int(lo), int(hi)) for lo, hi in spec[1])
        if kind == "minsert":
            for key, row in zip(spec[1], spec[2]):
                self.insert(int(key), tuple(int(v) for v in row))
            return len(spec[1])
        if kind == "mdelete":
            return tuple(self.delete(int(k)) for k in spec[1])
        if kind == "mupdate":
            return tuple(self.update(int(old), int(new)) for old, new in spec[1])
        raise ValueError(f"unknown spec kind {kind!r}")

    def final_rows(self) -> np.ndarray:
        """All live rows as a ``(n, 1 + width)`` array of ``key, payload...``
        sorted by key, then payload."""
        keys = [key for key, rows in self.rows.items() for _ in rows]
        rows = [row for bucket in self.rows.values() for row in bucket]
        return sort_rows(np.column_stack([np.asarray(keys, dtype=np.int64), np.asarray(rows)]))


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    values = np.sort(values)
    return values[np.concatenate(([True], values[1:] != values[:-1]))]


def sort_rows(rows: np.ndarray) -> np.ndarray:
    """Sort a ``(n, k)`` row array by its first column, then the others."""
    rows = rows[np.argsort(rows[:, 0], kind="stable")]
    if rows.shape[0] > 1 and np.any(rows[1:, 0] == rows[:-1, 0]):
        rows = rows[np.lexsort(rows.T[::-1])]
    return rows


def check_calls(reference: ReferenceTable, calls, results, limit: int = 5):
    """Replay ``calls`` (lists of specs) and compare with ``results``.

    ``results[i][j]`` is the normalized result of spec ``j`` of call ``i``.
    Returns a list of at most ``limit`` mismatch descriptions (empty when
    every result matches).
    """
    mismatches: list[str] = []
    for call_index, (specs, got_call) in enumerate(zip(calls, results)):
        if len(got_call) != len(specs):
            mismatches.append(
                f"call {call_index}: {len(got_call)} results for {len(specs)} ops"
            )
            continue
        for op_index, (spec, got) in enumerate(zip(specs, got_call)):
            expected = reference.apply(spec)
            if got != expected and len(mismatches) < limit:
                mismatches.append(
                    f"call {call_index} op {op_index} {spec[0]}: "
                    f"expected {_short(expected)}, got {_short(got)}"
                )
    if len(results) != len(calls):
        mismatches.append(f"{len(results)} result lists for {len(calls)} calls")
    return mismatches


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 160 else text[:157] + "..."
