"""In-memory span recorder for the traced benchmark run.

Spans are recorded from ``bench/`` only, around the calls into each
layer's public functions; spans inside ``src/`` are a later change.  A
span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the enclosing span (``-1`` for a root) and ``op`` the id of the measured
operation, shared by every span of that operation.  Counts are taken at
the same boundaries (``Workload.counts``) and written with the spans;
nothing is written until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.slowdown: dict[int, float] = {}  # op id -> host speed around it
        self._open: list[int] = []  # indexes of the enclosing spans
        self._op = -1
        self._outside = itertools.count(1)

    def new_op(self) -> int:
        """An id for an operation outside the measured stream (a set-up, a
        probe): negative, where stream indexes are not."""
        return -next(self._outside)

    def timed_op(self, clock, op: int, call):
        """``clock.timed(call)`` with every span ``call`` opens carrying
        ``op``; the slowdown around it is kept for :meth:`durations`."""
        self._op = op
        seconds, slow, result = clock.timed(call)
        self.slowdown[op] = slow
        return seconds, slow, result

    def _append(self, name, start, end) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, start, end, parent, self._op])
        return len(self.spans) - 1

    @contextmanager
    def span(self, name: str):
        index = self._append(name, time.perf_counter(), None)
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    def add(self, name: str, start: float, end: float) -> None:
        """A span timed elsewhere (e.g. reported by the server), placed
        under the currently open span."""
        self._append(name, start, end)

    def durations(self, name: str) -> list[float]:
        """Seconds at reference speed of every span called ``name``."""
        return [
            (end - start) / self.slowdown.get(op, 1.0)
            for span, start, end, _parent, op in self.spans
            if span == name
        ]

    def self_times(self) -> dict[str, float]:
        """Per span name, over the measured ops' spans: total duration
        minus the part child spans cover.  They sum to the traced ops'
        time; set-up and probe spans (negative op ids) are left out."""
        covered = defaultdict(float)
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _parent, op) in enumerate(self.spans):
            if op >= 0:
                totals[name] += (end - start) - covered[index]
        return dict(totals)

    def dump(self, path, extra: dict) -> None:
        payload = dict(extra)
        payload["spans"] = [
            {"name": n, "start": s, "end": e, "parent": p, "op": o}
            for n, s, e, p, o in self.spans
        ]
        payload["slowdown"] = {str(op): s for op, s in self.slowdown.items()}
        payload["op_self_seconds"] = self.self_times()
        with open(path, "w") as handle:
            json.dump(payload, handle)
            handle.write("\n")
