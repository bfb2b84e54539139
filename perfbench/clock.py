"""Timings scaled to a fixed machine speed.

The benchmark shares its machine with other tenants, and the speed a
process gets swings by up to half for seconds at a time, the same for any
interpreter-bound code.  So the run takes a short, fixed reference sample
(:func:`_reference_work`) every ``SAMPLE_EVERY_S`` seconds between units of
work, and each measured interval is scaled by how long that sample took
around it: ``seconds * REFERENCE_S / median(nearby samples)``.  A change to
synthkit moves the intervals and not the samples, so it shows in full; a
slow stretch of the machine moves both and cancels out.  ``REFERENCE_S`` is
the sample's time on an idle baseline machine (2 CPUs, Python 3.11), so
scaled figures read as seconds on that machine.
"""

from __future__ import annotations

import bisect
import statistics
import time

REFERENCE_S = 0.0006
SAMPLE_EVERY_S = 0.02
NEARBY = 15


class _Node:
    __slots__ = ("value", "children")

    def __init__(self, value, children):
        self.value = value
        self.children = children


def _tree(depth: int, value: int) -> _Node:
    if depth == 0:
        return _Node(value, ())
    return _Node(value, tuple(_tree(depth - 1, 2 * value + k) for k in (0, 1)))


def _walk(node: _Node):
    yield node.value
    for child in node.children:
        yield from _walk(child)


def _reference_work() -> int:
    """Build and walk a small tree: the allocation, call and generator mix
    that dominates synthkit's own time, with none of synthkit's code."""
    return sum(_walk(_tree(8, 1)))


class Clock:
    """The reference samples of one run, with the times they were taken."""

    def __init__(self):
        self.stamps: list[float] = []
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        """Time one reference sample now."""
        start = time.perf_counter()
        _reference_work()
        end = time.perf_counter()
        self.stamps.append((start + end) / 2)
        self.samples.append(end - start)
        self._last = end

    def tick(self) -> None:
        """Take a reference sample if the last one is ``SAMPLE_EVERY_S`` old."""
        if time.perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """Reference speed over machine speed, from the samples in [start, end]."""
        low = bisect.bisect_left(self.stamps, start)
        high = bisect.bisect_right(self.stamps, end)
        return REFERENCE_S / statistics.median(self.samples[low:high] or self.samples)

    def scaled(self, start: float, seconds: float) -> float:
        """An interval that began at ``start``, in seconds at reference speed."""
        middle = bisect.bisect_left(self.stamps, start + seconds / 2)
        low = max(0, min(middle - NEARBY // 2, len(self.samples) - NEARBY))
        nearby = self.samples[low : low + NEARBY]
        return seconds * REFERENCE_S / statistics.median(nearby)
