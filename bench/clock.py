"""Timing at a reference host speed.

On a shared host a vCPU's speed depends on what its hyperthread sibling
and the other tenants' caches are doing, and changes every few seconds:
the wall time of any fixed CPU-bound work spreads by 20-35% from run to
run, which is more than any bound a benchmark could usefully set.  The
slowdown is multiplicative and hits unrelated code alike (measured: an
interpreter-bound and a numpy-bound kernel, interleaved, each spread by
11% while their ratio spreads by 1.4%).  So every CPU-bound timing here
is bracketed by two small fixed kernels on the same thread — one
compute-bound, one cache-bound, because the two kinds of contention
come and go separately — and reported as

    seconds at reference speed = wall seconds / slowdown

where ``slowdown`` is how much longer than their reference times the
kernels took around that call.  The wall time and the slowdown are kept
in every record.  Waiting that is not CPU work on this thread (a timer, a
socket, another process) does not scale with this thread's speed, so
``serve_durable``'s client-side latencies are reported as measured.
"""

from __future__ import annotations

import time

import numpy

#: what one pass of each kernel takes at reference speed (this host, quiet)
ARITHMETIC_S = 58e-6
GATHER_S = 60e-6
#: how stale a slowdown sample may be before a call is timed against it;
#: short ops share a sample, so the kernels stay under 5% of the run and
#: out of the caches of most ops
MAX_AGE_S = 0.010


def _arithmetic() -> int:
    total = 0
    for i in range(2000):
        total += i * i
    return total


def _best_of_three(kernel) -> float:
    """An interrupt only ever adds time, so the fastest pass is the one
    that saw the host's speed and nothing else."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best


class Clock:
    """Times calls on one thread, with the host's slowdown around each.

    An uncalibrated clock reports slowdown 1: wall time is what it gives.
    """

    def __init__(self, calibrated: bool = True) -> None:
        self.calibrated = calibrated
        if calibrated:
            random = numpy.random.default_rng(0)
            table = random.integers(0, 1 << 30, 1_000_000)  # 8 MB
            picks = random.integers(0, len(table), 20_000)
            self._gather = lambda: int(table[picks].sum())
        self._sample = 1.0
        self._sampled_at = float("-inf")

    def slowdown(self) -> float:
        """How much slower than reference speed this thread runs now."""
        now = time.perf_counter()
        if self.calibrated and now - self._sampled_at > MAX_AGE_S:
            self._sample = (
                _best_of_three(_arithmetic) / ARITHMETIC_S
                + _best_of_three(self._gather) / GATHER_S
            ) / 2
            self._sampled_at = time.perf_counter()
        return self._sample

    def timed(self, call):
        """``call()`` -> ``(wall seconds, slowdown around it, result)``."""
        before = self.slowdown()
        start = time.perf_counter()
        result = call()
        seconds = time.perf_counter() - start
        return seconds, (before + self.slowdown()) / 2, result

    def at_reference(self, call) -> float:
        """Seconds ``call()`` takes at reference speed."""
        seconds, slowdown, _result = self.timed(call)
        return seconds / slowdown
