"""Event queue and simulation clock.

The engine is a calendar queue: events are binned into fixed-width time
buckets (a dict keyed by ``time // width``), and a small binary heap
orders the *buckets*, not the events.  Design points that matter for this
reproduction:

* **Deterministic tie-breaking.**  Events at the same timestamp fire in
  the order they were scheduled (a monotone sequence number is part of
  the sort key).  Communication-scheduling experiments are full of
  simultaneous events (a burst of gradients released by aggregation), and
  replaying the exact same interleaving under a fixed seed is what makes
  the benchmark tables reproducible.  The calendar queue preserves the
  exact ``(time, seq)`` FIFO order of the old single-heap engine: bucket
  index is monotone in time, a bucket is sorted on activation if any
  append broke its order, and events appended to the *active* bucket
  mid-drain re-sort the undrained suffix when (and only when) the append
  broke it.
* **Why buckets beat one big heap.**  A binary heap pays ``O(log n)``
  comparisons per push *and* pop, and with a Python-level ``__lt__``
  those comparisons dominated the event loop at fleet shapes (64 workers
  keep a 64-deep heap; every event paid ~12 interpreted comparisons).
  Here an event lands in its bucket with one dict probe and a list
  append; the heap only orders bucket *indices* — plain C float
  comparisons on a heap that is ~occupancy× smaller.  Same-timestamp
  bursts (a barrier step completing on 64 links at once) coalesce into
  one bucket and drain as a straight list scan.  :class:`Event` is a
  ``list`` subclass (``[time, seq, fn, args, alive, engine]``) so both
  sorting and construction run at C speed; ``seq`` is unique, so a sort
  never compares beyond index 1.
* **Bucket width auto-tuning.**  Width starts at 10 µs and is retuned
  from the observed inter-event firing spacing (targeting
  :data:`_TARGET_OCCUPANCY` events per bucket) every
  :data:`_RETUNE_STRIDE` bucket activations, rebuilding the calendar
  only when the ideal width drifts ≥ 4× from the current one.  Retuning
  happens strictly *between* bucket drains, when no bucket is active, so
  a rebuild can never reorder an in-flight drain.  Far-future events
  (idle-link watchdogs, fault timers) degrade gracefully: each lands in
  its own distant bucket, and the bucket heap behaves exactly like the
  old event heap — that *is* the heap fallback, with cheaper C-float
  comparisons.
* **Cancellation by tombstone, with lazy compaction.**  ``cancel`` marks
  the event dead in place — O(1), no structure surgery.  Dead events are
  skipped when their bucket drains.  Cancellation-heavy runs
  (Prophet/ByteScheduler replanning every block) can accumulate
  tombstones faster than draining retires them, so the engine keeps an
  O(1) count of dead events and sweeps all idle buckets once more than
  half the queued events are tombstones.  This bounds the structure at
  twice the live-event count instead of growing with the total number of
  cancellations.
* **No wall-clock coupling.**  The clock only advances when an event
  fires, so a simulated 10-minute training job costs only as much real
  time as its event count.
* **Trace attach point.**  The engine owns the simulation clock, so it
  also carries the session's trace recorder (``engine.trace``, default
  no-op): every component already holds the engine, which spares
  threading a recorder through each constructor.  While tracing, the run
  loop samples its own queue depth as a counter every
  :data:`_TRACE_QUEUE_STRIDE` events; disabled, the run loop takes a
  leaner specialized path with no per-event trace or budget checks.
"""

from __future__ import annotations

import heapq
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

#: Bucket-width auto-tuning: aim for this many events per bucket ...
_TARGET_OCCUPANCY = 32
#: ... re-evaluating the width every this many bucket activations ...
_RETUNE_STRIDE = 256
#: ... and only rebuilding when the ideal width drifts 4x from current.
_RETUNE_RATIO = 4.0
_WIDTH_MIN = 1e-9
_WIDTH_MAX = 1e3

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
    engine]`` — so bucket sorts compare ``(time, seq)`` element-wise at C
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
        """Whether the event can still fire (``cancel`` clears this)."""
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

    def __init__(
        self,
        trace: TraceRecorder | NullRecorder = NULL_RECORDER,
        time_quantum: float | None = None,
    ) -> None:
        #: Calendar: bucket index -> list of Events in that bin.  Indices
        #: are floats (``time // width``); ``time * inv_width // 1.0`` is
        #: monotone in time, which is all ordering correctness needs.
        #: A non-finite product (events at/near t=inf) collapses to the
        #: shared ``inf`` bucket, which drains last.
        self._buckets: dict[float, list[Event]] = {}
        #: Heap of ``(bucket_index, bucket_list)`` ordering the calendar.
        #: Bucket indices are unique in the heap (the dict guarantees one
        #: bucket per index), so heap comparisons stop at the C float.
        self._bucket_heap: list[tuple[float, list[Event]]] = []
        #: Indices of buckets whose append order is broken (an event was
        #: added before an already-queued one); sorted at activation.
        #: Buckets not in this set are already in (time, seq) order.
        self._unsorted: set[float] = set()
        #: Bucket currently being drained by run()/step(), else None.
        #: Removed from the dict/heap while active; schedule() appends
        #: same-bucket events directly to it.
        self._active: list[Event] | None = None
        self._active_idx = -1.0
        #: Set when an append broke the active bucket's undrained-suffix
        #: order (new event earlier than a queued one); the drain loop
        #: re-sorts the suffix before the next pop.
        self._active_dirty = False
        self._width = 1e-5
        self._inv_width = 1.0 / self._width
        self._seq = 0
        self._now = 0.0
        self._running = False
        self._events_processed = 0
        #: Physical event count across buckets (incl. tombstones).  The
        #: specialized drain loop batches its decrements per bucket, so
        #: mid-callback reads may be high by the bucket's fired count.
        self._size = 0
        #: Count of cancelled events still queued; kept exact so
        #: ``pending()`` is O(1) and compaction can trigger lazily.
        self._dead = 0
        #: Tombstones a sweep could not reclaim (they sat in the active
        #: bucket); prevents a sweep storm when the threshold stays met.
        self._compact_floor = 0
        # Width-retune bookkeeping (observed firing spacing).
        self._activations = 0
        self._retune_mark_time = 0.0
        self._retune_mark_events = 0
        #: Optional time grid (seconds; a positive power of two).  When
        #: set, every *delay* handed to :meth:`schedule_after` is snapped
        #: to the nearest grid multiple.  Because only delays are snapped
        #: — a pure function of the delay, never of the current clock —
        #: every absolute event time stays an exact grid multiple and
        #: time arithmetic becomes exactly translation-invariant, which
        #: is what makes steady-state fast-forward (:mod:`repro.sim.
        #: fastforward`) bit-exact.  ``None`` (default) changes nothing.
        self._quantum = time_quantum
        self._inv_quantum = 0.0 if time_quantum is None else 1.0 / time_quantum
        #: Trace recorder shared by every component holding this engine.
        self.trace = trace
        #: Set by the fleet simulator when several jobs share this engine.
        #: Whole-engine transformations (steady-state fast-forward shifts
        #: every queued event) are unsound with co-tenants, so eligibility
        #: checks consult this flag.  Jobs do not namespace their trace
        #: tracks or transfer tags: in a traced fleet every job writes to
        #: the same ``worker0/comm``, ``ps`` and link tracks.
        self.multi_tenant = False

    @property
    def time_quantum(self) -> float | None:
        """The delay grid in seconds, or ``None`` when snapping is off."""
        return self._quantum

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
        self._size += 1
        idx = time * self._inv_width // 1.0
        if idx != idx:  # non-finite time: the shared far bucket
            idx = inf
        if idx == self._active_idx:
            active = self._active
            if active[-1][0] > time:  # type: ignore[index]
                self._active_dirty = True
            active.append(ev)  # type: ignore[union-attr]
            return ev
        bucket = self._buckets.get(idx)
        if bucket is None:
            self._buckets[idx] = bucket = [ev]
            heapq.heappush(self._bucket_heap, (idx, bucket))
        else:
            if bucket[-1][0] > time:
                self._unsorted.add(idx)
            bucket.append(ev)
        return ev

    def schedule_after(self, delay: float, fn: Callable[..., None], *args: Any) -> Event:
        """Schedule ``fn(*args)`` ``delay`` seconds from now (``delay >= 0``)."""
        # Fused copy of schedule() minus the past-time check (delay >= 0
        # implies time >= now): this is the hottest call in the simulator
        # and the extra frame was measurable.
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        quantum = self._quantum
        if quantum is not None:
            delay = round(delay * self._inv_quantum) * quantum
        time = self._now + delay
        self._seq = seq = self._seq + 1
        ev = Event((time, seq, fn, args, True, self))
        self._size += 1
        idx = time * self._inv_width // 1.0
        if idx != idx:
            idx = inf
        if idx == self._active_idx:
            active = self._active
            if active[-1][0] > time:  # type: ignore[index]
                self._active_dirty = True
            active.append(ev)  # type: ignore[union-attr]
            return ev
        bucket = self._buckets.get(idx)
        if bucket is None:
            self._buckets[idx] = bucket = [ev]
            heapq.heappush(self._bucket_heap, (idx, bucket))
        else:
            if bucket[-1][0] > time:
                self._unsorted.add(idx)
            bucket.append(ev)
        return ev

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run until the queue drains, ``until`` is reached, or ``max_events``.

        ``until`` is inclusive: events scheduled exactly at ``until`` fire.
        When the run stops because of ``until``, the clock is advanced to
        ``until`` so subsequent scheduling is relative to the horizon.
        """
        if self._running:
            raise SimulationError("Engine.run() is not reentrant")
        self._running = True
        try:
            horizon = inf if until is None else until
            budget = max_events if max_events is not None else -1
            # Hot loop: heap/dict/trace hoisted to locals.  Mutating
            # engine calls (schedule, cancel, compaction) all work on the
            # dict and the active-bucket list in place, so the aliases
            # stay valid across callbacks.
            heap = self._bucket_heap
            buckets = self._buckets
            unsorted = self._unsorted
            pop_bucket = heapq.heappop
            trace = self.trace
            tracing = trace.enabled
            # The common case — run to completion, no budget, no tracing —
            # takes a specialized drain with no per-event horizon/budget
            # checks and counter updates batched per bucket.
            fast = until is None and max_events is None and not tracing
            done = False
            while heap and not done:
                self._activations += 1
                if self._activations % _RETUNE_STRIDE == 0:
                    # Safe point: no bucket is active, every queued event
                    # is in the dict, so a width rebuild cannot reorder
                    # an in-flight drain.
                    self._maybe_retune()
                idx, bucket = pop_bucket(heap)
                del buckets[idx]
                if idx in unsorted:
                    unsorted.remove(idx)
                    bucket.sort()
                self._active = bucket
                self._active_idx = idx
                self._active_dirty = False
                pos = 0
                fired = 0
                try:
                    if fast:
                        while pos < len(bucket):
                            ev = bucket[pos]
                            pos += 1
                            if not ev[4]:  # _ALIVE
                                self._size -= 1
                                self._dead -= 1
                                if self._compact_floor > self._dead:
                                    self._compact_floor = self._dead
                                continue
                            self._now = ev[0]  # _TIME
                            fired += 1
                            args = ev[3]  # _ARGS
                            if args:
                                ev[2](*args)  # _FN
                            else:
                                ev[2]()
                            if self._active_dirty:
                                # An append during fn() broke the
                                # undrained suffix's order; restore it
                                # before popping further.
                                self._active_dirty = False
                                tail = bucket[pos:]
                                tail.sort()
                                bucket[pos:] = tail
                        continue  # finally flushes counters
                    while pos < len(bucket):
                        ev = bucket[pos]
                        pos += 1
                        if not ev[4]:
                            self._size -= 1
                            self._dead -= 1
                            if self._compact_floor > self._dead:
                                self._compact_floor = self._dead
                            continue
                        time = ev[0]
                        if time > horizon:
                            pos -= 1  # not fired; keep it queued
                            done = True
                            break
                        if budget == 0:
                            pos -= 1
                            raise EventBudgetExhausted(
                                f"event budget exhausted at t={self._now:.6f} "
                                f"({self._events_processed} events fired); "
                                "the simulation is likely livelocked"
                            )
                        budget -= 1
                        self._now = time
                        self._events_processed += 1
                        self._size -= 1
                        args = ev[3]
                        if args:
                            ev[2](*args)
                        else:
                            ev[2]()
                        if self._active_dirty:
                            self._active_dirty = False
                            tail = bucket[pos:]
                            tail.sort()
                            bucket[pos:] = tail
                        if tracing and self._events_processed % _TRACE_QUEUE_STRIDE == 0:
                            trace.counter(
                                "engine.queue",
                                "engine",
                                self._now,
                                "engine",
                                {"pending": self._size - self._dead},
                            )
                finally:
                    if fired:
                        self._events_processed += fired
                        self._size -= fired
                    if pos < len(bucket):
                        rest = bucket[pos:]
                        buckets[idx] = rest
                        heapq.heappush(heap, (idx, rest))
                        if self._active_dirty:
                            # fn() raised after an out-of-order append;
                            # the suffix sorts at reactivation.
                            unsorted.add(idx)
                    self._active = None
                    self._active_idx = -1.0
                    self._active_dirty = False
            if until is not None and self._now < until:
                self._now = until
        finally:
            self._running = False

    def step(self) -> bool:
        """Fire the single next live event.  Returns ``False`` if queue empty."""
        heap = self._bucket_heap
        buckets = self._buckets
        while heap:
            idx, bucket = heapq.heappop(heap)
            del buckets[idx]
            if idx in self._unsorted:
                self._unsorted.remove(idx)
                bucket.sort()
            for pos, ev in enumerate(bucket):
                if not ev[_ALIVE]:
                    self._size -= 1
                    self._dead -= 1
                    if self._compact_floor > self._dead:
                        self._compact_floor = self._dead
                    continue
                rest = bucket[pos + 1 :]
                if rest:
                    buckets[idx] = rest
                    heapq.heappush(heap, (idx, rest))
                self._now = ev[_TIME]
                self._events_processed += 1
                self._size -= 1
                ev[_FN](*ev[_ARGS])
                return True
        return False

    def peek_time(self) -> float | None:
        """Timestamp of the next live event, or ``None`` if the queue is empty."""
        heap = self._bucket_heap
        buckets = self._buckets
        while heap:
            idx, bucket = heap[0]
            live = [ev for ev in bucket if ev[_ALIVE]]
            if not live:
                heapq.heappop(heap)
                del buckets[idx]
                self._unsorted.discard(idx)
                self._size -= len(bucket)
                self._dead -= len(bucket)
                if self._compact_floor > self._dead:
                    self._compact_floor = self._dead
                continue
            if len(live) != len(bucket):
                self._size -= len(bucket) - len(live)
                self._dead -= len(bucket) - len(live)
                if self._compact_floor > self._dead:
                    self._compact_floor = self._dead
                bucket[:] = live
            return min(live)[_TIME]
        return None

    def pending(self) -> int:
        """Number of live events still queued.  O(1)."""
        return self._size - self._dead

    # ------------------------------------------------------------------
    # Tombstone bookkeeping
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """Called by :meth:`Event.cancel`; sweeps when tombstones win."""
        self._dead += 1
        if (
            self._dead > _COMPACT_MIN_DEAD
            and self._dead * 2 > self._size
            and self._dead > self._compact_floor
        ):
            self._compact()

    def _compact(self) -> None:
        """Sweep tombstones out of every idle bucket and rebuild the
        bucket heap.  The active bucket (aliased by a running drain) is
        left alone — its tombstones retire as the drain passes them —
        and ``_compact_floor`` remembers how many were unreachable so the
        sweep doesn't re-trigger on every subsequent cancel."""
        buckets = self._buckets
        removed = 0
        for idx in [i for i, b in buckets.items() if not all(ev[_ALIVE] for ev in b)]:
            bucket = buckets[idx]
            live = [ev for ev in bucket if ev[_ALIVE]]
            removed += len(bucket) - len(live)
            if live:
                # In place: the heap entry aliases this list.
                bucket[:] = live
            else:
                del buckets[idx]
                self._unsorted.discard(idx)
        if removed:
            self._bucket_heap[:] = [(idx, b) for idx, b in buckets.items()]
            heapq.heapify(self._bucket_heap)
            self._size -= removed
            self._dead -= removed
        self._compact_floor = self._dead

    # ------------------------------------------------------------------
    # Bucket-width auto-tuning
    # ------------------------------------------------------------------
    def _maybe_retune(self) -> None:
        """Retune the bucket width from observed firing spacing.

        Called from run() between bucket drains only (no active bucket),
        so the rebuild can re-bin every queued event consistently.
        """
        fired = self._events_processed - self._retune_mark_events
        span = self._now - self._retune_mark_time
        self._retune_mark_events = self._events_processed
        self._retune_mark_time = self._now
        if fired <= 0 or span <= 0.0:
            return
        target = (span / fired) * _TARGET_OCCUPANCY
        if target < _WIDTH_MIN:
            target = _WIDTH_MIN
        elif target > _WIDTH_MAX:
            target = _WIDTH_MAX
        width = self._width
        if width / _RETUNE_RATIO < target < width * _RETUNE_RATIO:
            return
        self._rebuild(target)

    def _rebuild(self, width: float) -> None:
        """Re-bin every queued event under a new bucket width."""
        events: list[Event] = []
        for bucket in self._buckets.values():
            events.extend(bucket)
        self._width = width
        self._inv_width = inv = 1.0 / width
        self._buckets.clear()
        buckets = self._buckets
        for ev in events:
            idx = ev[_TIME] * inv // 1.0
            if idx != idx:
                idx = inf
            bucket = buckets.get(idx)
            if bucket is None:
                buckets[idx] = [ev]
            else:
                bucket.append(ev)
        self._bucket_heap[:] = [(idx, b) for idx, b in buckets.items()]
        heapq.heapify(self._bucket_heap)
        # Rebinning interleaves events arbitrarily; sort everything at
        # activation.  In place: run() holds an alias to this set.
        self._unsorted.clear()
        self._unsorted.update(buckets)

    # ------------------------------------------------------------------
    # Steady-state fast-forward support (repro.sim.fastforward)
    # ------------------------------------------------------------------
    def ff_pending(
        self, current: Event | None = None, *, ordered: bool = True
    ) -> list[Event]:
        """Every live queued event, sorted by ``(time, seq)``.

        ``current`` is the event whose callback is running right now;
        events at or before its ``(time, seq)`` key in the active bucket
        have already fired and are excluded.  Does not mutate the queue.
        ``ordered=False`` skips the final sort for callers that impose
        their own order on the result.
        """
        out: list[Event] = []
        active = self._active
        if active is not None:
            if current is None:
                out.extend(active)
            else:
                # The active bucket is kept sorted across callbacks, so
                # the undrained suffix is exactly the events ordered
                # after the firing one (list compare: time, then seq).
                out.extend(e for e in active if e > current)
        for bucket in self._buckets.values():
            out.extend(bucket)
        live = (e for e in out if e[_ALIVE])
        return sorted(live) if ordered else list(live)

    def ff_shift(
        self,
        dt: float,
        current: Event,
        rewrite: Callable[[Event], None] | None = None,
    ) -> None:
        """Advance the clock by ``dt``, translating every pending event.

        Must be called from inside the callback of ``current`` (the
        event firing right now).  The undrained suffix of the active
        bucket is taken over, every live event's time is shifted by
        ``dt`` (a uniform translation, so the exact ``(time, seq)``
        firing order is preserved and Event handles stay valid), and the
        calendar is rebuilt under the shifted times.  ``rewrite`` may
        rewrite each event's args in place (iteration relabeling).
        Tombstones are dropped during the rebuild.
        """
        if dt < 0:
            raise SimulationError(f"cannot fast-forward by negative dt {dt!r}")
        pending: list[Event] = []
        active = self._active
        if active is not None:
            keep: list[Event] = []
            for e in active:
                (pending if e > current else keep).append(e)
            # Truncating in place ends the drain loop's walk over this
            # bucket; run()'s finally block sees nothing left to requeue.
            active[:] = keep
            self._active_idx = -1.0
        for bucket in self._buckets.values():
            pending.extend(bucket)
        dropped = 0
        live: list[Event] = []
        for e in pending:
            if e[_ALIVE]:
                live.append(e)
            else:
                dropped += 1
        if dropped:
            self._size -= dropped
            self._dead -= dropped
            if self._compact_floor > self._dead:
                self._compact_floor = self._dead
        self._now += dt
        self._buckets.clear()
        buckets = self._buckets
        inv = self._inv_width
        for e in live:
            e[_TIME] = e[_TIME] + dt
            if rewrite is not None:
                rewrite(e)
            idx = e[_TIME] * inv // 1.0
            if idx != idx:
                idx = inf
            bucket = buckets.get(idx)
            if bucket is None:
                buckets[idx] = [e]
            else:
                bucket.append(e)
        self._bucket_heap[:] = [(idx, b) for idx, b in buckets.items()]
        heapq.heapify(self._bucket_heap)
        self._unsorted.clear()
        self._unsorted.update(buckets)
