"""Unit tests for serialized links and bandwidth schedules."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.net.link import BandwidthSchedule, Link
from repro.net.tcp import TCPParams, transfer_time
from repro.quantities import Gbps, MB
from repro.sim.engine import Engine


@pytest.fixture
def engine():
    return Engine()


@pytest.fixture
def link(engine):
    return Link(engine, BandwidthSchedule.constant(1 * Gbps), TCPParams(), name="t")


class TestBandwidthSchedule:
    def test_constant(self):
        sched = BandwidthSchedule.constant(5.0)
        assert sched.value(0.0) == 5.0
        assert sched.value(100.0) == 5.0

    def test_piecewise_lookup(self):
        sched = BandwidthSchedule([(0.0, 1.0), (10.0, 2.0), (20.0, 3.0)])
        assert sched.value(5.0) == 1.0
        assert sched.value(10.0) == 2.0
        assert sched.value(15.0) == 2.0
        assert sched.value(25.0) == 3.0

    def test_time_before_first_point_extends_back(self):
        sched = BandwidthSchedule([(5.0, 2.0)])
        assert sched.value(0.0) == 2.0

    def test_empty_raises(self):
        with pytest.raises(ConfigurationError):
            BandwidthSchedule([])

    def test_nonpositive_bandwidth_raises(self):
        with pytest.raises(ConfigurationError):
            BandwidthSchedule([(0.0, 0.0)])

    def test_non_increasing_times_raise(self):
        with pytest.raises(ConfigurationError):
            BandwidthSchedule([(0.0, 1.0), (0.0, 2.0)])

    def test_cursor_survives_backward_queries(self):
        """The monotone cursor must not poison out-of-order lookups
        (fault-injection probes and replay query behind sim time)."""
        points = [(0.0, 1.0), (5.0, 2.0), (10.0, 3.0), (20.0, 4.0)]
        sched = BandwidthSchedule(points)
        queries = [0.0, 7.0, 25.0, 3.0, 12.0, 0.5, 19.9, 20.0, 4.9, 5.0]
        expected = [1.0, 2.0, 4.0, 1.0, 3.0, 1.0, 3.0, 4.0, 1.0, 2.0]
        for q, want in zip(queries, expected):
            assert sched.value(q) == want
        # A fresh schedule (cursor at 0) agrees on every query.
        fresh = BandwidthSchedule(points)
        for q, want in zip(queries, expected):
            assert fresh.value(q) == want


class TestLink:
    def test_send_completes_and_records(self, engine, link):
        done = []
        end = link.send(4 * MB, tag="x", on_complete=lambda: done.append(engine.now))
        assert link.busy
        engine.run()
        assert done == [end]
        assert not link.busy
        assert len(link.records) == 1
        rec = link.records[0]
        assert rec.tag == "x"
        assert rec.nbytes == 4 * MB
        assert rec.duration == pytest.approx(end)

    def test_records_are_a_fresh_list(self, engine, link):
        link.send(1 * MB, tag="a")
        engine.run()
        records = link.records
        assert records is not link.records
        records.clear()
        assert [r.tag for r in link.records] == ["a"]

    def test_send_while_busy_raises(self, engine, link):
        link.send(1 * MB)
        with pytest.raises(SimulationError):
            link.send(1 * MB)

    def test_on_idle_fires_after_completion(self, engine, link):
        idles = []
        link.on_idle = lambda: idles.append(engine.now)
        link.send(1 * MB)
        engine.run()
        assert len(idles) == 1

    def test_back_to_back_sends_are_warm(self, engine, link):
        """Second send right after the first skips slow-start."""
        params = link.tcp
        link.send(8 * MB)
        engine.run()
        first = link.records[0].duration
        link.send(8 * MB)
        engine.run()
        second = link.records[1].duration
        assert second <= first
        warm_expected = float(
            transfer_time(8 * MB, 1 * Gbps, params, warm=True)
        )
        assert second == pytest.approx(warm_expected)

    def test_idle_gap_restores_cold_path(self, engine, link):
        link.send(8 * MB)
        engine.run()
        cold = link.records[0].duration
        # Wait longer than the warm threshold, then send again.
        engine.schedule_after(link.tcp.warm_threshold * 10, lambda: link.send(8 * MB))
        engine.run()
        assert link.records[1].duration == pytest.approx(cold)

    def test_bandwidth_schedule_respected(self, engine):
        sched = BandwidthSchedule([(0.0, 1 * Gbps), (1.0, 2 * Gbps)])
        link = Link(engine, sched, TCPParams())
        link.send(10 * MB)
        engine.run()
        slow = link.records[0].duration
        engine.schedule(2.0, lambda: link.send(10 * MB))
        engine.run()
        fast = link.records[1].duration
        assert fast < slow

    def test_extra_time_extends_occupancy(self, engine, link):
        base_end = link.send(1 * MB)
        engine.run()
        base = link.records[0].duration
        engine.schedule_after(1.0, lambda: link.send(1 * MB, extra_time=0.01))
        engine.run()
        assert link.records[1].duration == pytest.approx(base + 0.01, rel=1e-6)
        assert base_end > 0

    def test_negative_size_raises(self, engine, link):
        with pytest.raises(SimulationError):
            link.send(-1.0)

    def test_busy_time_accounts_transfers(self, engine, link):
        """The busy-time accumulator (what the utilization counter reads)
        counts a completed transfer."""
        link.send(4 * MB)
        engine.run()
        assert link._busy_accum == pytest.approx(link.records[0].duration)

    def test_busy_time_accumulator_matches_record_sum(self, engine, link):
        """The O(1) running total must equal the per-record sum exactly."""
        for i in range(4):
            engine.schedule(float(i), lambda: link.send(2 * MB))
            engine.run()
        assert len(link.records) == 4
        assert link._busy_accum == sum(r.duration for r in link.records)

    def test_total_bytes_accumulates(self, engine, link):
        link.send(1 * MB)
        engine.run()
        link.send(2 * MB)
        engine.run()
        assert link.total_bytes == pytest.approx(3 * MB)


# ----------------------------------------------------------------------
# BandwidthSchedule public accessors
# ----------------------------------------------------------------------

class TestSetLevel:
    def test_appends_a_breakpoint(self):
        sched = BandwidthSchedule.constant(4.0)
        sched.set_level(2.0, 1.0)
        assert sched.points == ((0.0, 4.0), (2.0, 1.0))
        assert sched.value(1.0) == 4.0
        assert sched.value(2.0) == 1.0

    def test_truncates_breakpoints_at_or_after_time(self):
        sched = BandwidthSchedule([(0.0, 1.0), (5.0, 2.0), (10.0, 3.0)])
        sched.set_level(5.0, 9.0)
        assert sched.points == ((0.0, 1.0), (5.0, 9.0))

    def test_noop_when_tail_already_at_level(self):
        sched = BandwidthSchedule([(0.0, 1.0), (5.0, 2.0)])
        version = sched._version
        sched.set_level(8.0, 2.0)
        assert sched.points == ((0.0, 1.0), (5.0, 2.0))
        assert sched._version == version  # consumers' caches stay valid

    def test_truncation_dedupes_against_preceding_segment(self):
        sched = BandwidthSchedule([(0.0, 1.0), (5.0, 2.0)])
        sched.set_level(3.0, 1.0)
        # Future breakpoints dropped, and (3.0, 1.0) would duplicate the
        # preceding level — one breakpoint remains.
        assert sched.points == ((0.0, 1.0),)

    def test_relevel_at_existing_time_replaces(self):
        sched = BandwidthSchedule([(0.0, 4.0)])
        sched.set_level(0.0, 2.5)
        assert sched.points == ((0.0, 2.5),)

    def test_rejects_bad_arguments(self):
        sched = BandwidthSchedule.constant(1.0)
        with pytest.raises(ConfigurationError):
            sched.set_level(1.0, 0.0)
        with pytest.raises(ConfigurationError):
            sched.set_level(-1.0, 1.0)
        with pytest.raises(ConfigurationError):
            sched.set_level(float("nan"), 1.0)
        with pytest.raises(ConfigurationError):
            sched.set_level(float("inf"), 1.0)

    def test_stale_cursor_is_clamped_after_truncation(self):
        """Regression: a lookup deep in the schedule leaves the cursor on a
        late segment; a truncating set_level then shrinks the breakpoint
        list below the cursor.  The next value() must clamp, not IndexError
        or scan a prefix that no longer exists."""
        sched = BandwidthSchedule([(0.0, 1.0), (5.0, 2.0), (10.0, 3.0), (20.0, 4.0)])
        assert sched.value(25.0) == 4.0  # cursor -> last segment
        sched.set_level(4.0, 7.0)  # truncates to [(0,1),(4,7)]
        assert sched.value(3.0) == 1.0  # behind-cursor lookup post-truncation
        assert sched.value(4.5) == 7.0
        assert sched.value(100.0) == 7.0

    def test_link_constant_fast_path_sees_in_place_mutation(self, engine):
        """A Link caches a constant schedule's level; set_level must bust
        that cache via the version counter even though the schedule object
        identity is unchanged (the fleet fabric re-levels in place)."""
        sched = BandwidthSchedule.constant(2 * Gbps)
        link = Link(engine, sched, TCPParams(), name="t")
        first_end = link.send(10 * MB)
        engine.run()
        sched.set_level(engine.now, 1 * Gbps)
        second_end = link.send(10 * MB) - engine.now
        assert second_end > (first_end - 0.0)  # half the bandwidth: slower
        expected = transfer_time(10 * MB, 1 * Gbps, link.tcp, warm=link._is_warm())
        assert second_end == pytest.approx(expected, rel=1e-9)


class TestScheduleCapped:
    def test_points_roundtrip(self):
        sched = BandwidthSchedule([(0.0, 5.0), (2.0, 9.0)])
        assert sched.points == ((0.0, 5.0), (2.0, 9.0))
        assert sched.times == (0.0, 2.0)
        assert sched.values == (5.0, 9.0)
