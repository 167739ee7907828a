"""Event queue and simulation clock.

The engine is one binary heap (:mod:`heapq`) of :class:`Event` handles
and one run loop.  Design points that matter for this reproduction:

* **Deterministic tie-breaking.**  Events at the same timestamp fire in
  the order they were scheduled: an event is a ``list`` subclass
  ``[time, seq, fn, args, alive, engine]`` with a monotone, unique
  ``seq``, so heap comparisons order by ``(time, seq)`` in C and never
  reach the callback.  Communication-scheduling experiments are full of
  simultaneous events (a burst of gradients released by aggregation),
  and replaying the exact same interleaving under a fixed seed is what
  makes the benchmark tables reproducible.
* **Cancellation by tombstone.**  ``cancel`` marks the event dead in
  place (O(1)); the run loop discards tombstones as they surface, and
  marks each event dead as it fires, so cancelling a fired event is a
  no-op.  An exact count of queued tombstones keeps ``pending()`` O(1),
  and once more than :data:`_COMPACT_MIN_DEAD` tombstones make up over
  half the heap it is rebuilt in place from its live events, so
  replanning-heavy runs (Prophet/ByteScheduler re-arming timers every
  block) stay bounded by twice the live-event count.
* **No wall-clock coupling.**  The clock only advances when an event
  fires, so a simulated 10-minute training job costs only as much real
  time as its event count.
* **Trace attach point.**  The engine owns the simulation clock, so it
  also carries the session's trace recorder (``engine.trace``, default
  no-op): every component already holds the engine, which spares
  threading a recorder through each constructor.  While tracing, the run
  loop samples its own queue depth as a counter every
  :data:`_TRACE_QUEUE_STRIDE` events.
"""

from __future__ import annotations

import weakref
from collections import Counter
from heapq import heapify, heappop, heappush
from math import inf
from typing import Any, Callable

from repro.errors import EventBudgetExhausted, SimulationError
from repro.trace.recorder import NULL_RECORDER, NullRecorder, TraceRecorder

__all__ = ["Event", "Engine"]

#: While tracing, sample the event-queue depth every this many events.
_TRACE_QUEUE_STRIDE = 256

#: Tombstone compaction only kicks in above this many dead events — tiny
#: queues are cheaper to drain than to sweep.
_COMPACT_MIN_DEAD = 64

# Event list layout (indices into the Event list subclass).
_TIME = 0
_SEQ = 1
_FN = 2
_ARGS = 3
_ALIVE = 4
_ENGINE = 5


class Event(list):
    """Handle to a scheduled callback.

    Instances are returned by :meth:`Engine.schedule` and can be used to
    cancel the callback before it fires.  The handle exposes the
    scheduled ``time`` and whether the event is still ``alive``.

    Internally an event *is* a list — ``[time, seq, fn, args, alive,
    engine]`` — so heap sifts compare ``(time, seq)`` element-wise at C
    speed (``seq`` is unique per engine, so a comparison never reaches
    the callback).  The attribute API below is the public surface;
    treat the list layout as private.
    """

    __slots__ = ()

    # Identity hashing (list subclasses are unhashable by default; event
    # handles are compared and hashed as opaque tokens).
    __hash__ = object.__hash__  # type: ignore[assignment]

    @property
    def time(self) -> float:
        """Scheduled firing time (absolute simulation seconds)."""
        return self[_TIME]

    @property
    def seq(self) -> int:
        """Monotone schedule-order sequence number (the FIFO tiebreak)."""
        return self[_SEQ]

    @property
    def fn(self) -> Callable[..., None]:
        return self[_FN]

    @property
    def args(self) -> tuple:
        return self[_ARGS]

    @property
    def alive(self) -> bool:
        """Whether the event can still fire (cleared by ``cancel`` and
        when it fires)."""
        return self[_ALIVE]

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if self[_ALIVE]:
            self[_ALIVE] = False
            engine = self[_ENGINE]
            if engine is not None:
                engine._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self[_ALIVE] else "cancelled"
        name = getattr(self[_FN], "__qualname__", repr(self[_FN]))
        return f"Event(t={self[_TIME]:.6f}, fn={name}, {state})"


class Engine:
    """Discrete-event simulation engine.

    Example
    -------
    >>> eng = Engine()
    >>> fired = []
    >>> _ = eng.schedule(1.0, fired.append, "a")
    >>> _ = eng.schedule(0.5, fired.append, "b")
    >>> eng.run()
    >>> fired
    ['b', 'a']
    >>> eng.now
    1.0
    """

    def __init__(self, trace: TraceRecorder | NullRecorder = NULL_RECORDER) -> None:
        #: Queued events (live and tombstones), a heap on ``(time, seq)``.
        #: Always mutated in place: the run loop holds an alias.
        self._heap: list[Event] = []
        #: Count of cancelled events still in the heap.
        self._dead = 0
        self._seq = 0
        self._now = 0.0
        self._running = False
        self._events_processed = 0
        #: Trace recorder shared by every component holding this engine.
        self.trace = trace

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events that have fired so far."""
        return self._events_processed

    def attach_trace(self, enabled: bool) -> TraceRecorder | NullRecorder:
        """Give the engine a fresh trace recorder (:data:`NULL_RECORDER`
        unless ``enabled``) and return it.  The engine carries the
        recorder, so the recorder's clock holds the engine only by weak
        reference: a traced run has no cycle either."""
        if enabled:
            clock = weakref.ref(self)
            self.trace = TraceRecorder(clock=lambda: clock().now)
        else:
            self.trace = NULL_RECORDER
        return self.trace

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, time: float, fn: Callable[..., None], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulation time ``time``.

        ``time`` must not be in the past; scheduling *at* the current time is
        allowed and the event fires after all previously scheduled events at
        that timestamp.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at t={time:.9f} before now={self._now:.9f}"
            )
        self._seq = seq = self._seq + 1
        ev = Event((time, seq, fn, args, True, self))
        heappush(self._heap, ev)
        return ev

    def schedule_after(self, delay: float, fn: Callable[..., None], *args: Any) -> Event:
        """Schedule ``fn(*args)`` ``delay`` seconds from now (``delay >= 0``)."""
        # Inlined rather than delegating to schedule(): this is the
        # hottest call in the simulator and the extra frame is measurable.
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        self._seq = seq = self._seq + 1
        ev = Event((self._now + delay, seq, fn, args, True, self))
        heappush(self._heap, ev)
        return ev

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run until the queue drains, ``until`` is reached, or ``max_events``.

        ``until`` is inclusive: events scheduled exactly at ``until`` fire.
        When the run stops because of ``until``, the clock is advanced to
        ``until`` so subsequent scheduling is relative to the horizon.
        Firing ``max_events`` events with more still queued raises
        :class:`~repro.errors.EventBudgetExhausted`; the unfired events
        stay queued, so the caller may resume with a fresh budget.
        """
        if self._running:
            raise SimulationError("Engine.run() is not reentrant")
        self._running = True
        try:
            horizon = inf if until is None else until
            budget = -1 if max_events is None else max_events
            heap = self._heap
            trace = self.trace
            tracing = trace.enabled
            while heap:
                # Peek before popping: an event past the horizon or the
                # budget stays queued for the next run().
                ev = heap[0]
                if not ev[4]:  # _ALIVE
                    heappop(heap)
                    self._dead -= 1
                    continue
                time = ev[0]  # _TIME
                if time > horizon:
                    break
                if budget == 0:
                    raise EventBudgetExhausted(self._budget_message())
                budget -= 1
                heappop(heap)
                # A fired event is no longer alive: a late cancel() of its
                # handle is then a no-op and never counts a tombstone.
                ev[4] = False  # _ALIVE
                self._now = time
                self._events_processed += 1
                args = ev[3]  # _ARGS
                if args:
                    ev[2](*args)  # _FN
                else:
                    ev[2]()
                if tracing and self._events_processed % _TRACE_QUEUE_STRIDE == 0:
                    trace.counter(
                        "engine.queue",
                        "engine",
                        self._now,
                        "engine",
                        {"pending": len(heap) - self._dead},
                    )
            if until is not None and self._now < until:
                self._now = until
        finally:
            self._running = False

    def _budget_message(self) -> str:
        """Diagnosis for an exhausted budget: what is still queued."""
        names: Counter[str] = Counter()
        for ev in self._heap:
            if ev[_ALIVE]:
                fn = getattr(ev[_FN], "func", ev[_FN])  # unwrap partial
                names[getattr(fn, "__qualname__", type(fn).__qualname__)] += 1
        top = ", ".join(f"{name} x{n}" for name, n in names.most_common(3))
        return (
            f"event budget exhausted at t={self._now:.6f} "
            f"({self._events_processed} events fired); "
            f"{self.pending()} events still queued, most common: {top}"
        )

    def pending(self) -> int:
        """Number of live events still queued.  O(1)."""
        return len(self._heap) - self._dead

    def _note_cancelled(self) -> None:
        """Called by :meth:`Event.cancel`; compacts when tombstones win."""
        self._dead = dead = self._dead + 1
        if dead > _COMPACT_MIN_DEAD and dead * 2 > len(self._heap):
            self._drop_tombstones()

    def _drop_tombstones(self) -> None:
        """Rebuild the heap in place from its live events."""
        heap = self._heap
        heap[:] = [ev for ev in heap if ev[_ALIVE]]
        heapify(heap)
        self._dead = 0
