"""Unit tests for the periodic bandwidth monitor."""

import pytest

from repro.errors import ConfigurationError
from repro.net.link import BandwidthSchedule, Link
from repro.net.monitor import BandwidthMonitor
from repro.net.tcp import TCPParams
from repro.quantities import Gbps
from repro.sim.engine import Engine


@pytest.fixture
def engine():
    return Engine()


def _link(engine, schedule):
    return Link(engine, schedule, TCPParams())


def test_initial_sample_taken_immediately(engine):
    link = _link(engine, BandwidthSchedule.constant(2 * Gbps))
    mon = BandwidthMonitor(engine, link, interval=5.0)
    assert mon.bandwidth == pytest.approx(2 * Gbps)
    assert mon.last_sample_time == 0.0


def test_periodic_sampling_follows_schedule(engine):
    sched = BandwidthSchedule([(0.0, 1 * Gbps), (7.0, 3 * Gbps)])
    link = _link(engine, sched)
    mon = BandwidthMonitor(engine, link, interval=5.0)
    engine.run(until=12.0)
    times = [t for t, _ in mon.history]
    values = [v for _, v in mon.history]
    assert times == [0.0, 5.0, 10.0]
    assert values[0] == pytest.approx(1 * Gbps)
    assert values[1] == pytest.approx(1 * Gbps)
    assert values[2] == pytest.approx(3 * Gbps)


def test_monitor_is_stale_between_samples(engine):
    """The monitor only sees bandwidth changes at its next sample."""
    sched = BandwidthSchedule([(0.0, 1 * Gbps), (1.0, 9 * Gbps)])
    link = _link(engine, sched)
    mon = BandwidthMonitor(engine, link, interval=5.0)
    engine.run(until=2.0)
    assert mon.bandwidth == pytest.approx(1 * Gbps)  # change not yet observed


def test_stop_halts_sampling(engine):
    link = _link(engine, BandwidthSchedule.constant(1 * Gbps))
    mon = BandwidthMonitor(engine, link, interval=1.0)
    engine.run(until=2.5)
    mon.stop()
    engine.run(until=10.0)
    assert mon.last_sample_time <= 3.0


def test_invalid_interval_raises(engine):
    link = _link(engine, BandwidthSchedule.constant(1 * Gbps))
    with pytest.raises(ConfigurationError):
        BandwidthMonitor(engine, link, interval=0.0)


def test_stop_cancels_pending_sample_so_queue_drains(engine):
    link = _link(engine, BandwidthSchedule.constant(1 * Gbps))
    mon = BandwidthMonitor(engine, link, interval=1.0)
    engine.run(until=2.5)
    mon.stop()
    engine.run()  # unbounded: would tick forever if the event survived
    assert engine.now == 2.5  # cancelled events never advance the clock
    assert mon.last_sample_time == 2.0


def test_last_sample_time_tracks_ticks(engine):
    link = _link(engine, BandwidthSchedule.constant(1 * Gbps))
    mon = BandwidthMonitor(engine, link, interval=5.0)
    engine.run(until=3.0)
    assert mon.last_sample_time == 0.0
    engine.run(until=6.0)  # tick at t=5
    assert mon.last_sample_time == 5.0


def test_prophet_reads_stale_monitor_sample_until_next_tick(
    engine, tiny_model, tiny_device
):
    """Square-wave bandwidth: between monitor ticks Prophet plans against
    the stale pre-drop sample; the tick after the drop it converges and
    the collapse detector fires."""
    from repro.agg.kvstore import KVStore
    from repro.core.profiler import JobProfile
    from repro.models.compute import build_compute_profile
    from repro.sched.prophet_sched import ProphetScheduler

    square = BandwidthSchedule(
        [(0.0, 4 * Gbps), (3.0, 0.1 * Gbps), (6.0, 4 * Gbps)]
    )
    link = _link(engine, square)
    mon = BandwidthMonitor(engine, link, interval=2.0)
    gen = KVStore().generation_schedule(
        build_compute_profile(tiny_model, tiny_device, batch_size=8)
    )
    sched = ProphetScheduler(
        bandwidth_provider=lambda: mon.bandwidth,
        profile=JobProfile.from_generation_schedule(gen),
    )

    engine.run(until=3.5)  # the wave dropped at t=3.0 ...
    sched.begin_iteration(0, gen, engine.now)
    # ... but the last sample (t=2.0) predates the drop: Prophet still
    # sees the high value and does not degrade.
    assert mon.bandwidth == pytest.approx(4 * Gbps)
    assert not sched.degraded

    engine.run(until=4.5)  # monitor tick at t=4.0 observes the drop
    assert mon.bandwidth == pytest.approx(0.1 * Gbps)
    import numpy as np

    for g in np.argsort(gen.c):
        sched.gradient_ready(int(g), engine.now)
    while True:
        unit = sched.propose_unit(engine.now)
        if unit is None:
            break
        sched.commit_unit(unit, engine.now)
    sched.end_iteration(0, engine.now, engine.now)
    sched.begin_iteration(1, gen, engine.now)
    assert sched.degraded and sched.collapse_detections == 1


def test_cleared_history_degrades_to_last_estimate(engine):
    """Regression: reading a monitor whose history was cleared externally
    used to surface a bare ``IndexError``; the estimate is the last
    sample whatever happens to ``history`` — a mid-run chaos experiment
    must not die because an analysis pass emptied the sample list."""
    link = Link(engine, BandwidthSchedule.constant(1 * Gbps), TCPParams(),
                name="worker0-up")
    mon = BandwidthMonitor(engine, link, interval=1.0)
    before = mon.bandwidth
    mon.history.clear()
    assert mon.bandwidth == before
    assert mon.last_sample_time == 0.0
