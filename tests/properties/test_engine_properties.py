"""Property-based tests for the event engine and RNG streams.

The engine is checked against a textbook tombstone-heap reference
implementation: any scenario of schedules, cancels (including storms
large enough to trigger tombstone compaction), nested mid-run
scheduling, segmented ``run(until=...)`` horizons, and small
``max_events`` budgets resumed after every
:class:`~repro.errors.EventBudgetExhausted` must produce the identical
``(time, label)`` firing sequence, clock, and pending count.
"""

import heapq
import itertools

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import EventBudgetExhausted
from repro.sim.engine import Engine
from repro.sim.rng import spawn_rng


@given(times=st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=1, max_size=50))
@settings(max_examples=200, deadline=None)
def test_events_always_fire_in_nondecreasing_time_order(times):
    eng = Engine()
    fired: list[float] = []
    for t in times:
        eng.schedule(t, lambda t=t: fired.append(eng.now))
    eng.run()
    assert fired == sorted(fired)
    assert len(fired) == len(times)


@given(
    times=st.lists(st.floats(0.0, 100.0), min_size=2, max_size=30),
    cancel_mask=st.lists(st.booleans(), min_size=2, max_size=30),
)
@settings(max_examples=200, deadline=None)
def test_cancellation_removes_exactly_the_cancelled(times, cancel_mask):
    eng = Engine()
    fired: list[int] = []
    events = [eng.schedule(t, fired.append, i) for i, t in enumerate(times)]
    kept = set(range(len(times)))
    for i, (ev, cancel) in enumerate(zip(events, cancel_mask)):
        if cancel:
            ev.cancel()
            kept.discard(i)
    eng.run()
    assert set(fired) == kept


@given(
    seed=st.integers(0, 2**31 - 1),
    label=st.text(min_size=0, max_size=20),
    idx=st.integers(0, 1000),
)
@settings(max_examples=100, deadline=None)
def test_spawned_streams_reproducible(seed, label, idx):
    a = spawn_rng(seed, label, idx).random(4)
    b = spawn_rng(seed, label, idx).random(4)
    assert np.array_equal(a, b)


# ----------------------------------------------------------------------
# Engine vs. reference heap equivalence
# ----------------------------------------------------------------------
class _RefEvent(list):
    """``[time, seq, fn, args, alive]`` — seq unique, so heap compares
    never reach the uncomparable fn slot."""

    __slots__ = ("engine",)

    def cancel(self):
        if self[4]:
            self[4] = False
            self.engine._pending -= 1

    @property
    def alive(self):
        return self[4]


class _RefEngine:
    """Textbook tombstone-heap DES: the behavioural reference."""

    def __init__(self):
        self._heap = []
        self._seq = itertools.count()
        self._pending = 0
        self.now = 0.0

    def schedule(self, time, fn, *args):
        assert time >= self.now
        ev = _RefEvent([time, next(self._seq), fn, args, True])
        ev.engine = self
        heapq.heappush(self._heap, ev)
        self._pending += 1
        return ev

    def run(self, until=None):
        heap = self._heap
        while heap:
            if until is not None and heap[0][0] > until:
                break
            ev = heapq.heappop(heap)
            if not ev[4]:
                continue
            self._pending -= 1
            self.now = ev[0]
            ev[2](*ev[3])
        if until is not None and self.now < until:
            self.now = until

    def pending(self):
        return self._pending


# A small time grid forces exact ties (same-timestamp FIFO ordering)
# while the continuous component spreads events over many magnitudes.
_time_strategy = st.one_of(
    st.sampled_from([0.0, 1e-6, 2e-6, 5e-6, 1e-5, 1e-3, 1.0, 1e3]),
    st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False),
)

_spec_strategy = st.fixed_dictionaries(
    {
        "children": st.lists(st.floats(0.0, 1e-3, allow_nan=False), max_size=3),
        "cancel": st.lists(st.integers(0, 10_000), max_size=40),
    }
)


def _run(eng, until, max_events):
    """``eng.run(until)``, resumed after every exhausted event budget."""
    if max_events is None:
        eng.run(until=until)
        return
    while True:
        try:
            eng.run(until=until, max_events=max_events)
            return
        except EventBudgetExhausted:
            pass


def _run_scenario(eng, scenario, max_events=None):
    """Drive one engine through the scenario; return its observable log."""
    log = []
    registry = []

    def fire(label, spec):
        log.append((eng.now, label))
        for k in spec["cancel"]:
            registry[k % len(registry)].cancel()
        for j, delay in enumerate(spec["children"]):
            registry.append(
                eng.schedule(eng.now + delay, fire, f"{label}.{j}", _LEAF)
            )

    for i, (t, spec) in enumerate(scenario["initial"]):
        registry.append(eng.schedule(t, fire, f"e{i}", spec))
    for k in scenario["precancel"]:
        registry[k % len(registry)].cancel()
    for until in scenario["horizons"]:
        _run(eng, until, max_events)
        log.append(("segment", eng.now, eng.pending()))
    _run(eng, None, max_events)
    log.append(("end", eng.now, eng.pending()))
    return log


_LEAF = {"children": (), "cancel": ()}

#: Cancels 150 already-fired events, then 100 queued ones: enough
#: tombstones to compact, which must keep the reference's accounting.
_LATE_CANCEL = {"children": (), "cancel": tuple(range(150)) + tuple(range(151, 251))}


@example(
    initial=[(float(i), _LEAF) for i in range(150)]
    + [(500.0, _LATE_CANCEL)]
    + [(1000.0 + i, _LEAF) for i in range(110)],
    precancel=[],
    horizons=[600.0],
    max_events=None,
)
@given(
    initial=st.lists(
        st.tuples(_time_strategy, _spec_strategy), min_size=1, max_size=60
    ),
    precancel=st.lists(st.integers(0, 10_000), max_size=80),
    horizons=st.lists(st.floats(0.0, 2e3, allow_nan=False), max_size=4),
    max_events=st.one_of(st.none(), st.integers(1, 8)),
)
@settings(max_examples=150, deadline=None)
def test_engine_matches_reference_heap(initial, precancel, horizons, max_events):
    scenario = {
        "initial": initial,
        "precancel": precancel,
        "horizons": sorted(horizons),
    }
    ref_log = _run_scenario(_RefEngine(), scenario)
    eng_log = _run_scenario(Engine(), scenario, max_events)
    assert eng_log == ref_log
