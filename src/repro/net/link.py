"""Serialized network links with time-varying available bandwidth.

A :class:`Link` is the unit resource that communication schedulers contend
for.  It enforces the paper's Constraint (8): at most one transfer occupies
a link at a time ("to ensure that each gradient is transferred with the full
available network bandwidth ... avoids the concurrent gradient transfer").
Preemption is therefore only possible at transfer boundaries, which is
exactly why partition / block sizing matters.

Bandwidth may vary over time via a piecewise-constant
:class:`BandwidthSchedule` — this is how the "dynamic network environments"
experiments (paper Sec. 5.3) are driven.  Each transfer's duration is
computed from the bandwidth available at its start time through the TCP
model of :mod:`repro.net.tcp`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Callable, NamedTuple, Sequence

from repro.errors import ConfigurationError, SimulationError
from repro.net.tcp import TCPParams, _slow_start_table, is_warm, transfer_time
from repro.sim.engine import Engine

__all__ = ["BandwidthSchedule", "TransferRecord", "Link", "send_batch"]


class BandwidthSchedule:
    """Piecewise-constant available bandwidth (bytes/second) over time.

    ``points`` is a sequence of ``(start_time, bandwidth)`` pairs; the first
    segment is extended back to t=0 and the last forward to infinity.  A
    constant schedule is just ``BandwidthSchedule.constant(B)``.
    """

    def __init__(self, points: Sequence[tuple[float, float]]):
        if not points:
            raise ConfigurationError("BandwidthSchedule needs at least one point")
        times = [float(t) for t, _ in points]
        values = [float(b) for _, b in points]
        if any(b <= 0 for b in values):
            raise ConfigurationError("bandwidth values must be positive")
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ConfigurationError("schedule times must be strictly increasing")
        self._times = times
        self._values = values
        # Segment of the most recent lookup.  Simulation time only moves
        # forward, so nearly every ``value()`` call lands in the cached
        # segment (or the next one) and resolves without a bisect.
        self._cursor = 0
        # Mutation counter, bumped by set_level().  Consumers that cache
        # derived state off the breakpoints (a Link's constant-schedule
        # shortcut) compare this to detect in-place mutation — rebinding
        # the schedule object is already caught by identity.
        self._version = 0

    @classmethod
    def constant(cls, bandwidth: float) -> "BandwidthSchedule":
        """A schedule that never changes."""
        return cls([(0.0, bandwidth)])

    @property
    def points(self) -> tuple[tuple[float, float], ...]:
        """The ``(start_time, bandwidth)`` breakpoints, in time order."""
        return tuple(zip(self._times, self._values))

    @property
    def times(self) -> tuple[float, ...]:
        """Breakpoint start times, strictly increasing."""
        return tuple(self._times)

    @property
    def values(self) -> tuple[float, ...]:
        """Bandwidth level of each breakpoint segment (bytes/s)."""
        return tuple(self._values)

    def set_level(self, time: float, bandwidth: float) -> None:
        """Re-level the schedule from ``time`` onward to ``bandwidth``.

        Breakpoints at or after ``time`` are dropped and (unless the
        preceding segment already sits at ``bandwidth``) one breakpoint
        ``(time, bandwidth)`` is appended.  This is the mutation used by
        live bandwidth division — the fleet fabric re-levels every
        tenant's schedule whenever a job arrives or finishes — and it is
        why :meth:`value` clamps its cursor: a truncation can leave the
        cached segment index pointing past the end of the breakpoint
        list, and the behind-cursor prefix bisect would then scan (and
        index) beyond the freshly shortened list.
        """
        if bandwidth <= 0:
            raise ConfigurationError(
                f"bandwidth values must be positive, got {bandwidth}"
            )
        if not (time >= 0.0) or time != time or time == float("inf"):
            raise ConfigurationError(f"set_level time must be finite and >= 0, got {time}")
        times = self._times
        values = self._values
        bandwidth = float(bandwidth)
        idx = bisect_left(times, float(time))
        if idx == len(times) and values[-1] == bandwidth:
            return  # Tail already at this level: nothing changes.
        del times[idx:]
        del values[idx:]
        if not times or values[-1] != bandwidth:
            times.append(float(time))
            values.append(bandwidth)
        self._version += 1
        if self._cursor >= len(times):
            self._cursor = len(times) - 1

    def value(self, time: float) -> float:
        """Available bandwidth at ``time``."""
        times = self._times
        idx = self._cursor
        if idx >= len(times):
            # Stale cursor (set_level truncated the breakpoints since the
            # last lookup): clamp before indexing.
            idx = len(times) - 1
            self._cursor = idx
        if times[idx] <= time:
            nxt = idx + 1
            if nxt == len(times) or time < times[nxt]:
                return self._values[idx]
            idx = bisect_right(times, time, lo=nxt) - 1
        else:
            # Query behind the cursor (replay, fault-injection probes):
            # fall back to a bisect over the prefix.
            idx = bisect_right(times, time, hi=idx) - 1
            if idx < 0:
                idx = 0
        self._cursor = idx
        return self._values[idx]


class TransferRecord(NamedTuple):
    """One completed transfer on a link (for timelines and throughput).

    The read-side view of a link's transfer log: :attr:`Link.records`
    builds these on demand from the log's plain ``(start, end, nbytes,
    tag)`` tuples.  The link never stores them itself, because the cycle
    collector keeps tracking a tuple *subclass* while it untracks plain
    tuples of atomic values.
    """

    start: float
    end: float
    nbytes: float
    tag: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def throughput(self) -> float:
        """Achieved bytes/second (0 for an instantaneous record)."""
        return self.nbytes / self.duration if self.duration > 0 else 0.0


# In-flight transfer state, a plain ``(nbytes, tag, start, end,
# on_complete)`` tuple: link.py is the only reader, and tuple construction
# is several times cheaper than a dataclass __init__ on the send hot path.
_NBYTES, _TAG, _START, _END, _ON_COMPLETE = range(5)


class Link:
    """A serialized, unidirectional link driven by a simulation engine.

    The owner starts transfers with :meth:`send`; exactly one transfer may
    be in flight.  When it completes, the link records it, fires the
    transfer's ``on_complete`` callback, and then the link-level ``on_idle``
    callback (the scheduler's cue to pick the next transfer).
    """

    def __init__(
        self,
        engine: Engine,
        schedule: BandwidthSchedule,
        tcp: TCPParams,
        name: str = "link",
    ):
        self.engine = engine
        self.schedule = schedule
        self.tcp = tcp
        self.name = name
        self._inflight: tuple | None = None
        self._finish_event = None
        # Completed transfers as plain ``(start, end, nbytes, tag)`` tuples
        # (see :class:`TransferRecord` for why not the named tuple).
        self._log: list[tuple[float, float, float, object]] = []
        self.total_bytes = 0.0
        self.on_idle: Callable[[], None] | None = None
        self._last_end: float | None = None
        # Running busy-time total: O(1) utilization for the trace counter.
        self._busy_accum = 0.0
        # Hot-path caches: the warm-gap threshold and the slow-start table
        # for the bandwidth seen by the last send.  The table only changes
        # at schedule breakpoints, so this
        # skips the memo-dict lookup that hashes TCPParams.
        self._warm_threshold = tcp.warm_threshold
        self._tbl = None
        self._tbl_bw = -1.0
        # Constant-schedule hint: most links never change bandwidth, so
        # their sends can skip the segment lookup entirely.  Keyed by
        # identity so rebinding ``self.schedule`` (fault injection wraps
        # it in a FlappedSchedule) silently disables the shortcut, and by
        # the schedule's mutation version so an in-place ``set_level``
        # (the fleet fabric re-levelling a tenant share) disables it too.
        if len(schedule._times) == 1:
            self._const_sched = schedule
            self._const_bw = schedule._values[0]
            self._const_ver = schedule._version
        else:
            self._const_sched = None
            self._const_bw = 0.0
            self._const_ver = -1

    # ------------------------------------------------------------------
    @property
    def records(self) -> list[TransferRecord]:
        """Completed transfers in completion order, as a fresh list."""
        return list(map(TransferRecord._make, self._log))

    @property
    def busy(self) -> bool:
        """Whether a transfer is currently in flight."""
        return self._inflight is not None

    @property
    def busy_until(self) -> float:
        """Completion time of the in-flight transfer (``now`` if idle)."""
        if self._inflight is None:
            return self.engine.now
        return self._inflight[_END]

    def current_bandwidth(self) -> float:
        """Available (configured) bandwidth right now, before TCP effects."""
        return self.schedule.value(self.engine.now)

    def estimate_time(self, nbytes: float) -> float:
        """Transfer time ``nbytes`` would take if started now."""
        return float(
            transfer_time(
                nbytes, self.current_bandwidth(), self.tcp, warm=self._is_warm()
            )
        )

    def _is_warm(self) -> bool:
        """Whether a send starting now rides an already-open window."""
        if self._last_end is None:
            return False
        return is_warm(self.engine.now - self._last_end, self.tcp)

    # ------------------------------------------------------------------
    def send(
        self,
        nbytes: float,
        tag: object = None,
        on_complete: Callable[[], None] | None = None,
        extra_time: float = 0.0,
    ) -> float:
        """Start a transfer; returns its completion time.

        ``extra_time`` adds strategy-level blocking overhead (e.g. P3's
        per-partition stop-and-wait synchronization) during which the link
        stays occupied.  Raises :class:`SimulationError` if the link is
        busy — callers must serialize via the ``on_idle`` callback,
        mirroring Constraint (8).
        """
        end = self._start(nbytes, tag, on_complete, extra_time)
        # The plain function with the link as argument: no bound method to
        # build per send, and none cached on the link (a reference cycle).
        self._finish_event = self.engine.schedule(end, Link._finish, self)
        return end

    def _start(
        self,
        nbytes: float,
        tag: object,
        on_complete: Callable[[], None] | None,
        extra_time: float,
    ) -> float:
        """Occupy the link with one transfer and return its end time.

        :meth:`send` schedules the completion event right away;
        :func:`send_batch` runs it on a step's first link (and on links
        that cannot share that link's row) and defers the event, so
        same-instant completions share one drain.
        """
        if self._inflight is not None:
            raise SimulationError(
                f"link {self.name!r} is busy until t={self._inflight[_END]:.6f}"
            )
        if nbytes < 0:
            raise SimulationError(f"negative transfer size {nbytes!r}")
        if extra_time < 0:
            raise SimulationError(f"negative extra_time {extra_time!r}")
        start = self.engine._now
        sched = self.schedule
        bandwidth = (
            self._const_bw
            if sched is self._const_sched and sched._version == self._const_ver
            else sched.value(start)
        )
        # Inlined transfer_time(): schedule validation guarantees a positive
        # bandwidth, and nbytes was checked above, so the scalar fast path
        # reduces to one table replay.  Same IEEE-754 sequence as the
        # wrapper — durations are bit-identical.
        if bandwidth != self._tbl_bw:
            self._tbl = _slow_start_table(bandwidth, self.tcp)
            self._tbl_bw = bandwidth
        last_end = self._last_end
        warm = last_end is not None and (start - last_end) <= self._warm_threshold
        duration = self._tbl.transfer_time(nbytes, warm) + extra_time
        end = start + duration
        self._inflight = (nbytes, tag, start, end, on_complete)
        self._finish_event = None
        return end

    def abort(self) -> object | None:
        """Abort the in-flight transfer (the sender crashed mid-send).

        The bytes are lost: no record is appended, no ``on_complete`` or
        ``on_idle`` callback fires, and the completion event is cancelled
        (a lockstep batch's shared drain event skips the link instead).
        Returns the aborted transfer's tag, or ``None`` if the link was
        idle.  TCP state is reset (the next send pays a cold start).
        """
        inflight = self._inflight
        if inflight is None:
            return None
        if self._finish_event is not None:
            self._finish_event.cancel()
            self._finish_event = None
        self._inflight = None
        self._last_end = None
        trace = self.engine.trace
        if trace.enabled:
            trace.instant(
                "transfer.aborted",
                "fault",
                self.engine.now,
                f"net/{self.name}",
                {"nbytes": inflight[_NBYTES], "started": inflight[_START]},
            )
        return inflight[_TAG]

    def _finish(self) -> None:
        inflight = self._inflight
        if inflight is None:  # pragma: no cover - defensive
            raise SimulationError(f"link {self.name!r} finished with no transfer")
        nbytes, tag, start, end, on_complete = inflight
        self._inflight = None
        self._finish_event = None
        self._last_end = end
        self._log.append((start, end, nbytes, tag))
        self.total_bytes += nbytes
        self._busy_accum += end - start
        if self.engine.trace.enabled:
            self._trace_transfer(start, end, nbytes, tag)
        if on_complete is not None:
            on_complete()
        if self.on_idle is not None:
            self.on_idle()

    def _trace_transfer(
        self, start: float, end: float, nbytes: float, tag: object
    ) -> None:
        """Emit a completed transfer's span and the utilization counter."""
        trace = self.engine.trace
        name = (
            f"{tag[0]} i{tag[1]}"
            if isinstance(tag, tuple) and len(tag) == 2
            else "transfer"
        )
        track = f"net/{self.name}"
        trace.complete(name, "transfer", start, end, track, {"nbytes": nbytes})
        now = self.engine.now
        if now > 0:
            trace.counter(
                "link.utilization",
                "net",
                now,
                track,
                {"busy_fraction": self._busy_accum / now},
            )


# ----------------------------------------------------------------------
def _drain_batch(
    links: tuple[Link, ...],
    row: tuple,
    on_complete: Callable[[], None] | None,
) -> None:
    """Complete a lockstep step: every link that still carries ``row``.

    Each such link gets the bookkeeping :meth:`Link._finish` would do, in
    launch order and in the same order of updates: ``_last_end``, one
    shared ``(start, end, nbytes, tag)`` log row (a plain tuple of atomic
    values, so the cycle collector still leaves it untracked), then
    ``total_bytes`` and ``_busy_accum``, then the trace span and counter
    when tracing is on.  ``on_complete`` fires once, in the last link's
    turn (after its bookkeeping, before its ``on_idle``) — where the
    last of N per-link completion callbacks fired before.

    A link aborted after launch no longer carries ``row`` (it is idle, or
    already carries a later transfer's row) and is skipped, exactly as
    cancelling its own completion event would have done.  If the last
    link is among them, ``on_complete`` does not fire.
    """
    nbytes, tag, start, end, _ = row
    log_row = (start, end, nbytes, tag)
    busy = end - start
    traced = links[0].engine.trace.enabled
    last = links[-1]
    for link in links:
        if link._inflight is not row:
            continue
        link._inflight = None
        link._last_end = end
        link._log.append(log_row)
        link.total_bytes += nbytes
        link._busy_accum += busy
        if traced:
            link._trace_transfer(start, end, nbytes, tag)
        if link is last and on_complete is not None:
            on_complete()
        if link.on_idle is not None:
            link.on_idle()


def send_batch(
    links: Sequence[Link],
    nbytes: float,
    tag: object = None,
    on_complete: Callable[[], None] | None = None,
    extra_time: float = 0.0,
) -> float:
    """Start the same ``nbytes`` transfer on every link at once.

    This is the barrier-step entry point (collective chunk steps): all
    ``links`` start at the current instant and ``on_complete`` fires once,
    when the step's last transfer finishes.  Returns that time.

    **Lockstep.**  Only the first link runs the full :meth:`Link._start`
    (checks, bandwidth lookup, warm test, slow-start table replay).  Every
    other link is simply marked in flight with the first link's in-flight
    row when it is idle, on its constant schedule at the first link's
    bandwidth, on the same :class:`~repro.net.tcp.TCPParams` object, and
    at the same ``_last_end``.  Those inputs are all its own ``_start`` would read, so
    it would compute a bit-identical end time.  A link that fails the test
    runs its own ``_start``; if its end time equals the first link's, its
    row equals the first link's in value and is replaced by it.

    When every link carries the shared row, ONE engine event runs
    :func:`_drain_batch`.  That is bit-identical to N :meth:`Link.send`
    calls: their N completion events would sit at one timestamp with
    consecutive sequence numbers, so no other event could interleave
    them, they would fire in launch order, and the per-link countdown
    would release the barrier in the last one.

    **Fallback.**  When end times differ (``worker_bandwidth`` overrides,
    stepped or flapped schedules), each link gets its own
    :meth:`Link._finish` event, in launch order, and the barrier callback
    rides only on the link that finishes last, launch order breaking
    ties: the event whose countdown would have reached zero.
    """
    links = tuple(links)
    first = links[0]
    end = first._start(nbytes, tag, None, extra_time)
    row = first._inflight
    bandwidth = first._tbl_bw
    tcp = first.tcp
    last_end = first._last_end
    same = True
    for link in links[1:]:
        sched = link.schedule
        if (
            link._inflight is None
            and link._last_end == last_end
            and link.tcp is tcp
            and sched is link._const_sched
            and sched._version == link._const_ver
            and link._const_bw == bandwidth
        ):
            link._inflight = row
            link._finish_event = None
        elif link._start(nbytes, tag, None, extra_time) == end:
            link._inflight = row
        else:
            same = False
    engine = first.engine
    if same:
        engine.schedule(end, _drain_batch, links, row, on_complete)
        return end
    barrier = first
    for link in links[1:]:
        if link._inflight[_END] >= barrier._inflight[_END]:
            barrier = link
    for link in links:
        if link is barrier:
            link._inflight = link._inflight[:_ON_COMPLETE] + (on_complete,)
        link._finish_event = engine.schedule(
            link._inflight[_END], Link._finish, link
        )
    return barrier._inflight[_END]
