"""Property-based tests: every scheduler upholds its contract on random
ready/drain sequences.

The harness interleaves gradient-ready events with propose/commit drains
in random order and asserts the conservation laws: every byte is sent
exactly once, segments are contiguous per gradient, units are never empty,
and priority strategies never send a lower-priority *whole* unit while a
strictly higher-priority gradient has unsent bytes and would fit.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agg.kvstore import GenerationSchedule
from repro.core.profiler import JobProfile
from repro.net.tcp import TCPParams
from repro.quantities import MB
from repro.sched.bytescheduler import ByteSchedulerScheduler
from repro.sched.fifo import FIFOScheduler
from repro.sched.mgwfbp import MGWFBPScheduler
from repro.sched.p3 import P3Scheduler
from repro.sched.prophet_sched import ProphetScheduler

TCP = TCPParams(rtt=0.2e-3, fixed_overhead=0.1e-3, goodput=1.0)


@st.composite
def random_jobs(draw):
    """Random gradient sizes + a random staircase of generation times."""
    n = draw(st.integers(2, 12))
    sizes = np.array([draw(st.floats(1 * KB_, 8 * MB)) for _ in range(n)])
    n_buckets = draw(st.integers(1, n))
    boundaries = sorted(
        draw(
            st.lists(
                st.integers(1, n - 1),
                min_size=n_buckets - 1,
                max_size=n_buckets - 1,
                unique=True,
            )
        )
    )
    # Partition indices [0..n) into buckets; bucket order = generation
    # order (descending index blocks).
    cuts = [0] + boundaries + [n]
    groups = [list(range(cuts[i], cuts[i + 1])) for i in range(len(cuts) - 1)]
    groups = groups[::-1]  # highest indices generate first
    c = np.empty(n)
    t = 0.0
    for group in groups:
        t += draw(st.floats(1e-3, 0.1))
        for g in group:
            c[g] = t
    buckets = tuple(tuple(sorted(g, reverse=True)) for g in groups)
    bucket_of = np.empty(n, dtype=np.int64)
    for b, members in enumerate(buckets):
        for g in members:
            bucket_of[g] = b
    schedule = GenerationSchedule(
        c=c,
        raw=c.copy(),
        bucket_of=bucket_of,
        buckets=buckets,
        sizes=sizes,
        backward_time=float(c.max()),
    )
    return schedule


KB_ = 1024.0

SCHEDULER_BUILDERS = [
    lambda schedule: FIFOScheduler(),
    lambda schedule: P3Scheduler(partition_size=1 * MB),
    lambda schedule: MGWFBPScheduler(merge_bytes=4 * MB),
    lambda schedule: ByteSchedulerScheduler(credit=4 * MB, partition_size=1 * MB),
    lambda schedule: ProphetScheduler(
        bandwidth_provider=lambda: 1.25e8,
        profile=JobProfile.from_generation_schedule(schedule),
        tcp=TCP,
    ),
]


@given(
    schedule=random_jobs(),
    builder_idx=st.integers(0, len(SCHEDULER_BUILDERS) - 1),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=150, deadline=None)
def test_drain_conserves_bytes(schedule, builder_idx, seed):
    sched = SCHEDULER_BUILDERS[builder_idx](schedule)
    sched.begin_iteration(0, schedule, 0.0)
    rng = np.random.default_rng(seed)

    sent = np.zeros(schedule.num_gradients)
    pending_buckets = list(schedule.buckets)
    now = 0.0
    stall_guard = 0
    while pending_buckets or sched.pending_bytes > 0:
        do_ready = pending_buckets and (sched.pending_bytes == 0 or rng.random() < 0.4)
        if do_ready:
            bucket = pending_buckets.pop(0)
            now = max(now, float(schedule.c[bucket[0]]))
            for g in bucket:
                sched.gradient_ready(g, now)
            continue
        unit = sched.propose_unit(now)
        if unit is None:
            # Prophet may idle for a predicted boundary; advance time.
            now += 0.05
            stall_guard += 1
            assert stall_guard < 1000, "scheduler never drained"
            # ByteScheduler flow control: replenish as if pulls returned.
            for g in range(schedule.num_gradients):
                if sent[g] > 0:
                    sched.pull_completed(g, sent[g], now)
            continue
        stall_guard = 0
        # Unit validity: non-empty, positive segment sizes.
        assert unit.segments
        for seg in unit.segments:
            assert seg.nbytes > 0
            assert seg.offset == sent[seg.grad]  # contiguous, in order
        sched.commit_unit(unit, now)
        for seg in unit.segments:
            sent[seg.grad] += seg.nbytes
        sched.unit_sent(unit, now)
        now += 1e-4

    assert np.allclose(sent, schedule.sizes)
    assert sched.pending_bytes == 0


@given(schedule=random_jobs(), seed=st.integers(0, 2**16))
@settings(max_examples=100, deadline=None)
def test_p3_strict_priority_among_ready(schedule, seed):
    """P3 always proposes the most urgent ready gradient."""
    sched = P3Scheduler(partition_size=1 * MB)
    sched.begin_iteration(0, schedule, 0.0)
    rng = np.random.default_rng(seed)
    pending_buckets = list(schedule.buckets)
    now = 0.0
    while pending_buckets or sched.pending_bytes > 0:
        if pending_buckets and (sched.pending_bytes == 0 or rng.random() < 0.5):
            bucket = pending_buckets.pop(0)
            now = max(now, float(schedule.c[bucket[0]]))
            for g in bucket:
                sched.gradient_ready(g, now)
            continue
        unit = sched.propose_unit(now)
        assert unit is not None
        assert unit.segments[0].grad == min(sched.ready_grads)
        sched.commit_unit(unit, now)


@given(
    schedule=random_jobs(),
    seed=st.integers(0, 2**16),
    iterations=st.integers(1, 3),
)
@settings(max_examples=100, deadline=None)
def test_prophet_warmup_matches_fifo(schedule, seed, iterations):
    """Until its profile converges Prophet sends default FIFO whole tensors
    (paper Sec. 4.2): unit for unit the same stream as FIFOScheduler,
    whatever the interleaving of ready signals, skipped proposals and
    commits."""
    fifo = FIFOScheduler()
    prophet = ProphetScheduler(bandwidth_provider=lambda: 1.25e8, profile=None, tcp=TCP)
    rng = np.random.default_rng(seed)
    now = 0.0
    for iteration in range(iterations):
        for sched in (fifo, prophet):
            sched.begin_iteration(iteration, schedule, now)
        pending_buckets = list(schedule.buckets)
        while pending_buckets or fifo.pending_bytes > 0:
            if pending_buckets and (fifo.pending_bytes == 0 or rng.random() < 0.4):
                for g in pending_buckets.pop(0):
                    fifo.gradient_ready(g, now)
                    prophet.gradient_ready(g, now)
                continue
            units = [sched.propose_unit(now) for sched in (fifo, prophet)]
            assert units[0].segments == units[1].segments
            if rng.random() < 0.7:  # otherwise the channel sends a pull
                fifo.commit_unit(units[0], now)
                prophet.commit_unit(units[1], now)
            now += 1e-4
        assert prophet.pending_bytes == 0
        for sched in (fifo, prophet):
            sched.end_iteration(iteration, now, now)
    assert not prophet.active
