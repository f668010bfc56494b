"""Traced mode: spans recorded around the calls into each layer.

The benchmark never edits the program to trace it.  Instead a
:class:`Tracer` replaces a public method on a class, or a function
attribute on a module, with a wrapper that records a span around the
original, and puts the original back when the run ends.  Every span has a
name, a start and an end (``perf_counter_ns``), a parent span and the id
of the ``execute`` call it belongs to (or the name of the phase --
``setup``, ``catch-up``, ``reopen`` -- outside the timed calls).  Spans
stay in memory and are written out once, when the run ends.

A layer's self time is its span minus the spans directly under it.  Shard
workers run in other processes and are seen only through what their
replies carry (``wall_ns``).
"""

from __future__ import annotations

import functools
import inspect
import json
import time

# Span record layout (a list, for cheap appends).
NAME, START, END, PARENT, CALL, OPS = range(6)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.values: dict[str, list[float]] = {}
        self.call: object = "setup"
        #: Index of the span closed most recently.
        self.last = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object, bool]] = []

    # -- recording ------------------------------------------------------- #

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.call, 0])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int, ops: int = 0) -> None:
        span = self.spans[index]
        span[END] = time.perf_counter_ns()
        span[OPS] = ops
        self.last = index
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span[NAME]} closed out of order")

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def value(self, name: str, amount: float) -> None:
        self.values.setdefault(name, []).append(amount)

    # -- wrapping -------------------------------------------------------- #

    def _replace(self, owner, attr: str, replacement) -> None:
        own = attr in vars(owner)
        original = inspect.getattr_static(owner, attr)
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, original, own))

    def wrap(self, owner, attr: str, name: str, ops=None, after=None) -> None:
        """Record a span named ``name`` around ``owner.attr``.

        ``ops(args, kwargs)`` gives the key-level operations the span
        covers; ``after(args, result)`` runs once the span has closed
        (outside it) to harvest counts from the result.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index, ops(args, kwargs) if ops is not None else 0)
            if after is not None:
                after(args, result)
            return result

        self._replace(owner, attr, wrapper)

    def wrap_count(self, owner, attr: str, name: str) -> None:
        """Count calls to ``owner.attr`` without recording spans."""
        original = getattr(owner, attr)
        counts = self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return original(*args, **kwargs)

        self._replace(owner, attr, wrapper)

    def patch(self, owner, attr: str, replacement) -> None:
        """Replace ``owner.attr`` outright (restored by :meth:`restore`)."""
        self._replace(owner, attr, replacement)

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._undo:
            owner, attr, original, own = self._undo.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- analysis -------------------------------------------------------- #

    def self_times(self) -> list[int]:
        """Self time of every span: its duration minus its children's."""
        selfs = [span[END] - span[START] for span in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                selfs[span[PARENT]] -= span[END] - span[START]
        return selfs

    def check_nesting(self) -> list[str]:
        """Spans that do not sit inside their parent (empty when sound)."""
        problems = []
        for index, span in enumerate(self.spans):
            parent = span[PARENT]
            if span[END] < span[START]:
                problems.append(f"span {index} {span[NAME]} ends before it starts")
            if parent < 0:
                continue
            outer = self.spans[parent]
            if not (outer[START] <= span[START] and span[END] <= outer[END]):
                problems.append(f"span {index} {span[NAME]} leaves parent {outer[NAME]}")
            if outer[CALL] != span[CALL]:
                problems.append(f"span {index} {span[NAME]} changes call id")
        return problems

    def write(self, path) -> None:
        """Write the spans (and counters) out as one JSON document."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start_ns", "end_ns", "parent", "call", "ops"],
                    "spans": self.spans,
                    "counts": self.counts,
                },
                fh,
                separators=(",", ":"),
            )
