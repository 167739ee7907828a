"""Unit tests for the discrete-event engine."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Engine


def test_events_fire_in_time_order():
    eng = Engine()
    fired = []
    eng.schedule(2.0, fired.append, "b")
    eng.schedule(1.0, fired.append, "a")
    eng.schedule(3.0, fired.append, "c")
    eng.run()
    assert fired == ["a", "b", "c"]
    assert eng.now == 3.0


def test_same_time_events_fire_in_insertion_order():
    eng = Engine()
    fired = []
    for tag in range(5):
        eng.schedule(1.0, fired.append, tag)
    eng.run()
    assert fired == [0, 1, 2, 3, 4]


def test_schedule_after_uses_relative_delay():
    eng = Engine()
    seen = []
    eng.schedule(1.0, lambda: eng.schedule_after(0.5, lambda: seen.append(eng.now)))
    eng.run()
    assert seen == [1.5]


def test_schedule_in_past_raises():
    eng = Engine()
    eng.schedule(1.0, lambda: None)
    eng.run()
    with pytest.raises(SimulationError):
        eng.schedule(0.5, lambda: None)


def test_negative_delay_raises():
    eng = Engine()
    with pytest.raises(SimulationError):
        eng.schedule_after(-0.1, lambda: None)


def test_cancelled_events_do_not_fire():
    eng = Engine()
    fired = []
    ev = eng.schedule(1.0, fired.append, "cancelled")
    eng.schedule(2.0, fired.append, "kept")
    ev.cancel()
    eng.run()
    assert fired == ["kept"]


def test_cancel_is_idempotent():
    eng = Engine()
    ev = eng.schedule(1.0, lambda: None)
    ev.cancel()
    ev.cancel()
    eng.run()
    assert eng.events_processed == 0


def test_run_until_is_inclusive_and_advances_clock():
    eng = Engine()
    fired = []
    eng.schedule(1.0, fired.append, 1)
    eng.schedule(2.0, fired.append, 2)
    eng.schedule(5.0, fired.append, 5)
    eng.run(until=2.0)
    assert fired == [1, 2]
    assert eng.now == 2.0
    eng.run()
    assert fired == [1, 2, 5]


def test_run_until_beyond_queue_advances_to_horizon():
    eng = Engine()
    eng.schedule(1.0, lambda: None)
    eng.run(until=10.0)
    assert eng.now == 10.0


def test_max_events_guard_raises():
    eng = Engine()

    def reschedule():
        eng.schedule_after(1.0, reschedule)

    eng.schedule(0.0, reschedule)
    with pytest.raises(SimulationError, match="budget") as info:
        eng.run(max_events=100)
    # The message diagnoses what is still queued instead of guessing.
    assert "test_max_events_guard_raises.<locals>.reschedule x1" in str(info.value)
    assert eng.pending() == 1


def test_pending_counts_live_events():
    eng = Engine()
    ev = eng.schedule(1.0, lambda: None)
    eng.schedule(2.0, lambda: None)
    assert eng.pending() == 2
    ev.cancel()
    assert eng.pending() == 1


def test_run_not_reentrant():
    eng = Engine()
    errors = []

    def nested():
        try:
            eng.run()
        except SimulationError as exc:
            errors.append(exc)

    eng.schedule(1.0, nested)
    eng.run()
    assert len(errors) == 1


def test_events_scheduled_at_now_fire_in_same_run():
    eng = Engine()
    fired = []
    eng.schedule(1.0, lambda: eng.schedule(eng.now, fired.append, "same-time"))
    eng.run()
    assert fired == ["same-time"]


# ----------------------------------------------------------------------
# Tombstone compaction / O(1) pending
# ----------------------------------------------------------------------
def _queued_events(eng: Engine) -> int:
    """Physical event count in the heap (incl. tombstones)."""
    return len(eng._heap)


def test_mass_cancellation_compacts_queue():
    eng = Engine()
    events = [eng.schedule(1.0 + i, lambda: None) for i in range(1_000)]
    keeper = eng.schedule(0.5, lambda: None)
    for ev in events:
        ev.cancel()
    # Far more than _COMPACT_MIN_DEAD tombstones were cancelled, so the
    # heap must have been swept down to the live events.
    assert _queued_events(eng) < 100
    assert eng.pending() == 1
    assert keeper.alive


def test_pending_stays_correct_through_compaction():
    eng = Engine()
    live = [eng.schedule(10.0 + i, lambda: None) for i in range(10)]
    doomed = [eng.schedule(1.0 + i, lambda: None) for i in range(500)]
    for ev in doomed:
        ev.cancel()
        alive_doomed = sum(1 for e in doomed if e.alive)
        assert eng.pending() == len(live) + alive_doomed
    assert eng.pending() == 10
    eng.run()
    assert eng.events_processed == 10


def test_compaction_preserves_firing_order():
    eng = Engine()
    fired = []
    survivors = []
    for i in range(300):
        ev = eng.schedule(float(i + 1), fired.append, i)
        if i % 5 == 0:
            survivors.append(i)
        else:
            ev.cancel()
    eng.run()
    assert fired == survivors


def test_cancellation_during_run_keeps_queue_bounded():
    """The simulator's own pattern: timeouts armed then cancelled."""
    eng = Engine()
    peak = 0
    count = 0
    pending = []

    def tick():
        nonlocal count, peak
        count += 1
        for ev in pending:
            ev.cancel()
        pending.clear()
        peak = max(peak, _queued_events(eng))
        if count < 500:
            for _ in range(10):
                pending.append(eng.schedule_after(100.0, lambda: None))
            eng.schedule_after(0.01, tick)

    eng.schedule(0.0, tick)
    eng.run()
    # 5000 total cancellations; without compaction the peak would be
    # ~5000 — with it, tombstones are capped near _COMPACT_MIN_DEAD.
    assert peak < 200


def test_cancel_then_pop_keeps_counter_consistent():
    eng = Engine()
    ev = eng.schedule(1.0, lambda: None)
    eng.schedule(2.0, lambda: None)
    ev.cancel()
    assert eng.pending() == 1
    eng.run()
    assert eng.pending() == 0
    # More schedule/cancel cycles after a run keep the count exact.
    ev2 = eng.schedule(3.0, lambda: None)
    assert eng.pending() == 1
    ev2.cancel()
    assert eng.pending() == 0


def test_cancel_after_firing_is_a_no_op():
    eng = Engine()
    ev = eng.schedule(1.0, lambda: None)
    eng.run()
    assert not ev.alive
    ev.cancel()
    assert eng.pending() == 0
    assert not ev.alive


def test_attach_trace_reads_the_engine_clock_by_weak_reference():
    import gc
    import weakref

    from repro.trace.recorder import NULL_RECORDER, TraceRecorder

    eng = Engine()
    assert eng.attach_trace(False) is NULL_RECORDER is eng.trace
    trace = eng.attach_trace(True)
    assert isinstance(trace, TraceRecorder) and eng.trace is trace
    eng.schedule(2.5, lambda: None)
    eng.run()
    assert trace.now() == 2.5
    # The recorder's clock does not keep the engine alive: no cycle.
    gc.disable()
    try:
        ref = weakref.ref(eng)
        del eng
        assert ref() is None
    finally:
        gc.enable()
