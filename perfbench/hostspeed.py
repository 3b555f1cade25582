"""Host-speed probe: a fixed pure-Python loop, timed between operations.

On shared hardware the host runs the simulator at different speeds from
second to second and minute to minute (see README, "Host noise").  A
worker probes the host's speed when it starts, between operations at
least once a second, and when its pass ends.  The controller rescales
each stretch of host time between two probes to a host on which the
probe takes ``PROBE_REF_S``.  The probe exercises what the simulator's
interpreter and compiled traces spend their time on: attribute access
on a slotted object, method calls, dict lookups, and indexing at random
into a list of 2**18 ints (about 9 MB with its ints).  Of the probes
tried, this one followed the simulator's speed most closely: on a
250 ms simulation, correlation 0.84 and log-log slope 0.90 (a list of
2**16 ints: 0.82 and 0.70; object allocation: 0.79 and 0.70).  It uses
nothing from the simulator, so a change to the simulator cannot move
it.  Its list lives as long as the worker: it adds a constant ~9 MB to
the worker's RSS rather than a transient that could hide the
simulator's own peak.

Kept free of simulator imports.
"""

from __future__ import annotations

import time

__all__ = ["PROBE_EVERY_S", "PROBE_REF_S", "Marks", "probe", "rescale"]

#: (perf_counter time, probe seconds) of each probe a worker took
Marks = list[tuple[float, float]]

#: a pass probes after an operation once this long has passed since its
#: last probe, and at least once
PROBE_EVERY_S = 1.0
#: probe time of the reference host that rescaled host times refer to
PROBE_REF_S = 0.007

_ITERS = 15_000
_TIMINGS = 3
_TABLE = {i: i * 7 for i in range(4096)}
_BIG = list(range(1 << 18))


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self) -> None:
        self.a = 0
        self.b = 1

    def step(self, x: int) -> int:
        self.a = (self.a + x * self.b) & 0xFFFF
        return self.a


def _loop() -> int:
    cell, table, big, total = _Cell(), _TABLE, _BIG, 0
    for i in range(_ITERS):
        total += table[i & 4095] + cell.step(i) + big[(i * 2654435761) & 0x3FFFF]
    return total


def probe(marks: Marks) -> None:
    """Time the loop a few times and append (now, fastest time) to ``marks``."""
    best = float("inf")
    for _ in range(_TIMINGS):
        t0 = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - t0)
    marks.append((time.perf_counter(), best))


def _probe_at(t: float, marks: Marks) -> float:
    """The probe time at ``t``, interpolated linearly between marks."""
    if t <= marks[0][0]:
        return marks[0][1]
    for (t0, p0), (t1, p1) in zip(marks, marks[1:]):
        if t <= t1:
            return p0 + (p1 - p0) * (t - t0) / (t1 - t0)
    return marks[-1][1]


def rescale(start: float, end: float, marks: Marks) -> float:
    """The host time from ``start`` to ``end``, on the reference host."""
    cuts = [start] + [t for t, _ in marks if start < t < end] + [end]
    return sum(
        (b - a) * PROBE_REF_S / _probe_at((a + b) / 2, marks)
        for a, b in zip(cuts, cuts[1:])
    )
