"""Unit tests for the FIFO (default MXNet) and P3 schedulers."""

import pytest

from repro.agg.kvstore import KVStore
from repro.errors import ConfigurationError
from repro.models.compute import build_compute_profile
from repro.quantities import MB
from repro.sched.fifo import FIFOScheduler
from repro.sched.p3 import P3Scheduler


@pytest.fixture
def schedule(tiny_model, tiny_device):
    prof = build_compute_profile(tiny_model, tiny_device, batch_size=8)
    return KVStore().generation_schedule(prof)


class TestFIFO:
    def test_serves_in_arrival_order(self, schedule):
        s = FIFOScheduler()
        s.begin_iteration(0, schedule, 0.0)
        for g in (7, 5, 6):  # arrival order, not priority order
            s.gradient_ready(g, 0.0)
        served = []
        while True:
            unit = s.propose_unit(0.1)
            if unit is None:
                break
            s.commit_unit(unit, 0.1)
            served.append(unit.segments[0].grad)
        assert served == [7, 5, 6]

    def test_whole_tensor_units(self, schedule):
        s = FIFOScheduler()
        s.begin_iteration(0, schedule, 0.0)
        s.gradient_ready(3, 0.0)
        unit = s.propose_unit(0.0)
        assert unit.total_bytes == pytest.approx(schedule.sizes[3])
        assert unit.segments[0].offset == 0.0

    def test_is_fifo_channel(self):
        assert FIFOScheduler().fifo_channel is True
        assert FIFOScheduler().unit_sync_rtts == 0.0

    def test_queue_resets_per_iteration(self, schedule):
        s = FIFOScheduler()
        s.begin_iteration(0, schedule, 0.0)
        for g in range(8):
            s.gradient_ready(g, 0.0)
        while (unit := s.propose_unit(0.0)) is not None:
            s.commit_unit(unit, 0.0)
        s.begin_iteration(1, schedule, 1.0)
        assert s.propose_unit(1.0) is None


class TestP3:
    def test_partitions_bounded_by_partition_size(self, schedule):
        s = P3Scheduler(partition_size=1 * MB)
        s.begin_iteration(0, schedule, 0.0)
        s.gradient_ready(3, 0.0)  # 8 MB gradient? (index 3 = l2.p0, 3 MB)
        unit = s.propose_unit(0.0)
        assert unit.total_bytes == pytest.approx(1 * MB)
        assert len(unit.segments) == 1

    def test_strict_priority_among_ready(self, schedule):
        s = P3Scheduler(partition_size=1 * MB)
        s.begin_iteration(0, schedule, 0.0)
        s.gradient_ready(6, 0.0)
        s.gradient_ready(2, 0.0)
        unit = s.propose_unit(0.0)
        assert unit.segments[0].grad == 2

    def test_preemption_at_partition_boundary(self, schedule):
        s = P3Scheduler(partition_size=1 * MB)
        s.begin_iteration(0, schedule, 0.0)
        s.gradient_ready(6, 0.0)
        first = s.propose_unit(0.0)
        s.commit_unit(first, 0.0)
        s.gradient_ready(1, 0.1)  # higher priority arrives mid-stream
        nxt = s.propose_unit(0.1)
        assert nxt.segments[0].grad == 1

    def test_partitions_resume_at_offset(self, schedule):
        s = P3Scheduler(partition_size=1 * MB)
        s.begin_iteration(0, schedule, 0.0)
        s.gradient_ready(5, 0.0)  # 8 MB gradient
        offsets = []
        for _ in range(3):
            unit = s.propose_unit(0.0)
            s.commit_unit(unit, 0.0)
            offsets.append(unit.segments[0].offset)
        assert offsets == [0.0, pytest.approx(1 * MB), pytest.approx(2 * MB)]

    def test_tail_smaller_than_partition(self, schedule):
        s = P3Scheduler(partition_size=2 * MB)
        s.begin_iteration(0, schedule, 0.0)
        s.gradient_ready(4, 0.0)  # 64 KB gradient
        unit = s.propose_unit(0.0)
        assert unit.total_bytes == pytest.approx(schedule.sizes[4])

    def test_blocking_sync_configured(self):
        assert P3Scheduler().unit_sync_rtts == 2.0
        assert FIFOScheduler().unit_sync_rtts == 0.0  # pipelined baseline

    def test_invalid_params_raise(self):
        with pytest.raises(ConfigurationError):
            P3Scheduler(partition_size=0.0)
        with pytest.raises(ConfigurationError):
            P3Scheduler(partition_size=-1.0)
