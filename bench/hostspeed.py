"""Host-speed reference: a fixed pure-Python loop timed next to the work.

On a shared host, Python runs at speeds that change by up to 2x over
fractions of a second to minutes, as other tenants come and go (measured
on a 2-core KVM guest: this loop alternates between about 0.01 s and
0.019 s).  A raw pass time then moves as much between two runs of the
same code.  The loop below does not touch the simulator, so sampling it
between the steps of the work and dividing by the mean sample cancels
that drift: the benchmark reports a time as the seconds it would take on
a host where the loop takes :data:`REFERENCE_S`.  Raw seconds are kept in
the result files.
"""

from __future__ import annotations

import heapq
import time

#: Nominal seconds of :func:`reference_seconds` (about its fast-state
#: time on the 2-core host the benchmark was calibrated on).
REFERENCE_S = 0.01


class _Event:
    __slots__ = ("t", "n", "fn")

    def __init__(self, t: float, n: int, fn) -> None:
        self.t, self.n, self.fn = t, n, fn

    def __lt__(self, other: "_Event") -> bool:
        return (self.t, self.n) < (other.t, other.n)


def reference_seconds(n: int = 4_000) -> float:
    """Wall seconds of a fixed event loop: heap, objects, calls, dicts --
    the interpreter work a discrete-event simulator does."""
    start = time.perf_counter()
    heap: list[_Event] = []
    state: dict[int, float] = {}

    def bump(key: int, x: float) -> float:
        state[key] = state.get(key, 0.0) + x
        return state[key]

    acc = 0.0
    for i in range(n):
        heapq.heappush(heap, _Event((i * 7919) % 1009 * 1e-3, i, bump))
        if len(heap) > 64:
            ev = heapq.heappop(heap)
            acc += ev.fn(ev.n & 63, ev.t)
    while heap:
        ev = heapq.heappop(heap)
        acc += ev.fn(ev.n & 63, ev.t)
    return time.perf_counter() - start


def at_reference_speed(seconds: float, references: list[float]) -> float:
    """``seconds`` of work during which the loop took ``references``
    seconds (sampled around and between its steps), scaled to a host
    where the loop takes :data:`REFERENCE_S`."""
    return seconds * REFERENCE_S * len(references) / sum(references)
