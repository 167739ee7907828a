"""Property-based tests for :mod:`repro.net.link`.

The cursor-accelerated ``BandwidthSchedule.value()`` must agree with the
textbook numpy reference (``searchsorted(side="right") - 1``, clamped to
the first segment) for *any* interleaving of forward and backward queries
— the cursor is an optimization for monotone simulation time, never a
change in semantics.  Likewise ``send_batch`` (lockstep or per-link
fallback) must be indistinguishable from one ``Link.send`` per link.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.link import BandwidthSchedule, Link, send_batch
from repro.net.tcp import TCPParams
from repro.sim.engine import Engine


@st.composite
def schedules(draw):
    """A valid schedule: strictly increasing times, positive bandwidths."""
    n = draw(st.integers(1, 12))
    deltas = draw(
        st.lists(st.floats(1e-6, 100.0), min_size=n, max_size=n)
    )
    start = draw(st.floats(0.0, 50.0))
    times = []
    t = start
    for d in deltas:
        times.append(t)
        t += d
    values = draw(
        st.lists(st.floats(1e-3, 1e12), min_size=n, max_size=n)
    )
    return [(t, b) for t, b in zip(times, values)]


def _reference_value(points, time):
    """Numpy reference lookup, independent of any cursor state."""
    times = np.array([t for t, _ in points])
    values = np.array([b for _, b in points])
    idx = int(np.searchsorted(times, time, side="right")) - 1
    return float(values[max(idx, 0)])


@given(
    points=schedules(),
    queries=st.lists(st.floats(0.0, 500.0), min_size=1, max_size=50),
)
@settings(max_examples=200, deadline=None)
def test_value_matches_numpy_reference(points, queries):
    sched = BandwidthSchedule(points)
    for q in queries:
        assert sched.value(q) == _reference_value(points, q)


@given(points=schedules(), queries=st.lists(st.floats(0.0, 500.0), min_size=2, max_size=30))
@settings(max_examples=100, deadline=None)
def test_query_order_is_irrelevant(points, queries):
    """Sorted (monotone) and shuffled query orders give identical answers."""
    monotone = BandwidthSchedule(points)
    answers = {q: monotone.value(q) for q in sorted(queries)}
    shuffled = BandwidthSchedule(points)
    for q in reversed(queries):
        assert shuffled.value(q) == answers[q]


@given(points=schedules())
@settings(max_examples=100, deadline=None)
def test_boundary_queries_pick_right_segment(points):
    """Exactly-at-boundary queries belong to the segment that starts there."""
    sched = BandwidthSchedule(points)
    for t, b in points:
        assert sched.value(t) == b


# ----------------------------------------------------------------------
# Live mutation: set_level() interleaved with value() lookups
# ----------------------------------------------------------------------
class _NaiveSchedule:
    """Cursor-free oracle: a plain breakpoint list, full bisect per lookup.

    Mirrors the documented set_level semantics (truncate at-or-after,
    append unless it would duplicate the preceding level) without any of
    the cursor/version machinery under test.
    """

    def __init__(self, points):
        self.points = list(points)

    def set_level(self, time, bandwidth):
        self.points = [(t, b) for t, b in self.points if t < time]
        if not self.points or self.points[-1][1] != bandwidth:
            self.points.append((time, bandwidth))

    def value(self, time):
        return _reference_value(self.points, time)


@st.composite
def op_sequences(draw):
    """Interleaved (set_level | value) ops over a small time range."""
    n = draw(st.integers(1, 30))
    ops = []
    for _ in range(n):
        if draw(st.booleans()):
            ops.append(
                ("set", draw(st.floats(0.0, 100.0)), draw(st.floats(1e-3, 1e9)))
            )
        else:
            ops.append(("get", draw(st.floats(0.0, 200.0)), None))
    return ops


@given(points=schedules(), ops=op_sequences())
@settings(max_examples=300, deadline=None)
def test_set_level_interleaving_matches_naive_oracle(points, ops):
    """Any interleaving of re-levelling and (non-monotone) lookups agrees
    with the cursor-free oracle — the fleet fabric's mutation pattern must
    never let a stale cursor surface a wrong bandwidth or an IndexError."""
    sched = BandwidthSchedule(points)
    oracle = _NaiveSchedule(points)
    for op, time, bandwidth in ops:
        if op == "set":
            sched.set_level(time, bandwidth)
            oracle.set_level(time, bandwidth)
            assert list(sched.points) == oracle.points
        else:
            assert sched.value(time) == oracle.value(time)


# ----------------------------------------------------------------------
# send_batch against one Link.send per link
# ----------------------------------------------------------------------
_TCP = TCPParams(rtt=0.2e-3, fixed_overhead=0.1e-3, goodput=0.8)


@st.composite
def batch_setups(draw):
    """Per-link schedules and prior sends, plus the batch.

    Bandwidths and prior sizes come from small pools so that equal links
    (the lockstep path) are common; the rest take the fallback.
    """
    n = draw(st.integers(1, 8))
    pool = st.sampled_from([1e9, 2e9, 3e9])
    mode = draw(st.sampled_from(["equal", "unequal", "stepped"]))
    base = draw(pool)
    points = [[(0.0, base)] for _ in range(n)]
    if mode == "unequal":
        points = [[(0.0, draw(pool))] for _ in range(n)]
    elif mode == "stepped":
        step_at = draw(st.floats(1e-4, 5e-2))
        points[draw(st.integers(0, n - 1))] = [(0.0, base), (step_at, draw(pool))]
    return {
        "points": points,
        "prior": [draw(st.sampled_from([None, 1e5, 1e6])) for _ in range(n)],
        "gap": draw(st.floats(0.0, 2 * _TCP.warm_threshold)),
        "nbytes": draw(st.floats(0.0, 1e7)),
        "extra_time": draw(st.sampled_from([0.0, 1e-4, 1.5e-3])),
    }


def _world(setup):
    """Links after their prior sends, at the batch start instant."""
    engine = Engine()
    links = [
        Link(engine, BandwidthSchedule(pts), _TCP, name=f"l{i}")
        for i, pts in enumerate(setup["points"])
    ]
    for link, prior in zip(links, setup["prior"]):
        if prior is not None:
            link.send(prior, tag="prior")
    engine.run()
    engine.run(until=engine.now + setup["gap"])
    return engine, links


def _observed(links):
    return [(link.records, link.total_bytes, link._busy_accum) for link in links]


@given(setup=batch_setups())
@settings(max_examples=300, deadline=None)
def test_send_batch_matches_per_link_sends(setup):
    nbytes, extra = setup["nbytes"], setup["extra_time"]

    engine, links = _world(setup)
    fired = []

    def barrier():
        fired.append((engine.now, sum(link.busy for link in links)))

    end = send_batch(
        links, nbytes, tag=("step", 1), on_complete=barrier, extra_time=extra
    )
    engine.run()

    ref_engine, ref_links = _world(setup)
    ref_fired = []
    pending = [len(ref_links)]

    def countdown():
        pending[0] -= 1
        if pending[0] == 0:
            ref_fired.append((ref_engine.now, sum(link.busy for link in ref_links)))

    ref_ends = [
        link.send(nbytes, tag=("step", 1), on_complete=countdown, extra_time=extra)
        for link in ref_links
    ]
    ref_engine.run()

    assert end == max(ref_ends)
    # Once, at the latest end, after every link has completed.
    assert fired == ref_fired == [(end, 0)]
    assert _observed(links) == _observed(ref_links)
    assert not any(link.busy for link in links)
