"""Unit tests for the online Prophet scheduler."""

import numpy as np
import pytest

from repro.agg.kvstore import KVStore
from repro.core.profiler import JobProfile
from repro.errors import ConfigurationError
from repro.models.compute import build_compute_profile
from repro.net.tcp import TCPParams
from repro.quantities import MB
from repro.core.algorithm import FORWARD_BLOCK_BYTES
from repro.sched.prophet_sched import PULL_BATCH_BYTES, ProphetScheduler


@pytest.fixture
def schedule(tiny_model, tiny_device):
    prof = build_compute_profile(tiny_model, tiny_device, batch_size=8)
    return KVStore().generation_schedule(prof)


@pytest.fixture
def profile(schedule):
    return JobProfile.from_generation_schedule(schedule)


TCP = TCPParams(rtt=0.2e-3, fixed_overhead=0.1e-3, goodput=1.0)


def make_prophet(profile, bandwidth=125e6, **kwargs) -> ProphetScheduler:
    return ProphetScheduler(
        bandwidth_provider=lambda: bandwidth,
        profile=profile,
        tcp=TCP,
        **kwargs,
    )


def _ready_bucket(s, schedule, bucket_idx, now):
    for g in schedule.buckets[bucket_idx]:
        s.gradient_ready(g, now)


class TestBackwardPhase:
    def test_packs_block_within_interval(self, schedule, profile):
        s = make_prophet(profile, bandwidth=1e9)  # plenty of bandwidth
        s.begin_iteration(0, schedule, now=0.0)
        t0 = float(schedule.c[schedule.buckets[0][0]])
        _ready_bucket(s, schedule, 0, t0)
        unit = s.propose_unit(t0)
        assert unit is not None
        # With abundant bandwidth the whole burst fits in one block.
        assert set(unit.grads) == set(schedule.buckets[0])

    def test_idles_when_nothing_fits(self, schedule, profile):
        s = make_prophet(profile, bandwidth=1e3)  # 1 KB/s: nothing fits
        s.begin_iteration(0, schedule, now=0.0)
        t0 = float(schedule.c[schedule.buckets[0][0]])
        _ready_bucket(s, schedule, 0, t0)
        assert s.propose_unit(t0) is None

    def test_slices_gradient_to_fill_interval(self, schedule, profile):
        # Bandwidth such that only part of the first burst fits.
        interval = float(
            schedule.c[schedule.buckets[1][0]] - schedule.c[schedule.buckets[0][0]]
        )
        burst_bytes = sum(schedule.sizes[g] for g in schedule.buckets[0])
        bandwidth = (burst_bytes / 2) / interval
        s = make_prophet(profile, bandwidth=bandwidth, slice_bytes=0.5 * MB)
        s.begin_iteration(0, schedule, now=0.0)
        t0 = float(schedule.c[schedule.buckets[0][0]])
        _ready_bucket(s, schedule, 0, t0)
        unit = s.propose_unit(t0)
        assert unit is not None
        assert unit.total_bytes < burst_bytes
        # Last segment may be a partial slice of a gradient.
        last = unit.segments[-1]
        assert last.nbytes <= schedule.sizes[last.grad]

    def test_no_lower_priority_bypass(self, schedule, profile):
        """Packing stops at the first non-fitting gradient."""
        s = make_prophet(profile, bandwidth=125e6, slice_bytes=1 * MB)
        s.begin_iteration(0, schedule, now=0.0)
        t0 = float(schedule.c[schedule.buckets[0][0]])
        _ready_bucket(s, schedule, 0, t0)
        unit = s.propose_unit(t0)
        if unit is not None:
            grads = list(unit.grads)
            # Must be a priority-contiguous prefix of the ready set.
            assert grads == sorted(grads)
            assert grads == s.ready_grads[: len(grads)]


class TestCriticalAndForwardPhase:
    def _drain_backward(self, s, schedule):
        """Signal all buckets except the last (which holds gradient 0)."""
        for b in range(len(schedule.buckets) - 1):
            t = float(schedule.c[schedule.buckets[b][0]])
            _ready_bucket(s, schedule, b, t)
            while True:
                unit = s.propose_unit(t)
                if unit is None:
                    break
                s.commit_unit(unit, t)

    def test_gradient_zero_sent_alone_immediately(self, schedule, profile):
        s = make_prophet(profile)
        s.begin_iteration(0, schedule, now=0.0)
        self._drain_backward(s, schedule)
        t_last = float(schedule.c[0])
        _ready_bucket(s, schedule, len(schedule.buckets) - 1, t_last)
        unit = s.propose_unit(t_last)
        assert unit is not None
        assert unit.grads == (0,)
        assert unit.total_bytes == pytest.approx(schedule.sizes[0])

    def test_forward_phase_drains_by_priority_in_blocks(self, schedule, profile):
        s = make_prophet(profile)
        s.begin_iteration(0, schedule, now=0.0)
        self._drain_backward(s, schedule)
        t_last = float(schedule.c[0])
        _ready_bucket(s, schedule, len(schedule.buckets) - 1, t_last)
        sent: list[int] = []
        while True:
            unit = s.propose_unit(t_last)
            if unit is None:
                break
            s.commit_unit(unit, t_last)
            assert unit.total_bytes <= max(
                FORWARD_BLOCK_BYTES, max(schedule.sizes[g] for g in unit.grads)
            ) + 1e-6
            sent.extend(unit.grads)
        assert sent == sorted(sent)
        assert s.pending_bytes == 0.0


class TestWarmupFallback:
    def test_fallback_is_fifo_until_profile_ready(self, schedule):
        s = ProphetScheduler(
            bandwidth_provider=lambda: 125e6,
            profile=None,
            profile_iterations=2,
            tcp=TCP,
        )
        assert not s.active
        s.begin_iteration(0, schedule, now=0.0)
        s.gradient_ready(7, 0.0)
        s.gradient_ready(5, 0.0)  # arrival order 7 then 5
        unit = s.propose_unit(0.0)
        assert unit.grads == (7,)
        s.commit_unit(unit, 0.0)
        assert s.propose_unit(0.0).grads == (5,)

    def test_profile_builds_after_warmup(self, schedule):
        s = ProphetScheduler(
            bandwidth_provider=lambda: 125e6,
            profile=None,
            profile_iterations=2,
            tcp=TCP,
        )
        for it in range(2):
            s.begin_iteration(it, schedule, now=float(it))
            for b, bucket in enumerate(schedule.buckets):
                t = float(it) + float(schedule.c[bucket[0]])
                for g in bucket:
                    s.gradient_ready(g, t)
            while (unit := s.propose_unit(float(it) + 1.0)) is not None:
                s.commit_unit(unit, float(it) + 1.0)
            s.end_iteration(it, 1.0, float(it) + 1.0)
        assert s.active
        assert np.allclose(s.profile.c, schedule.c, atol=1e-9)

    def test_planned_iterations_counted(self, schedule, profile):
        s = make_prophet(profile)
        s.begin_iteration(0, schedule, now=0.0)
        assert s.planned_iterations == 1


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(round_trip_factor=0.5),
            dict(slice_bytes=0.0),
        ],
    )
    def test_invalid_params(self, profile, kwargs):
        with pytest.raises(ConfigurationError):
            make_prophet(profile, **kwargs)

    def test_pull_batch_limit_forward_phase(self, profile, schedule):
        s = make_prophet(profile)
        s.begin_iteration(0, schedule, 0.0)
        for bucket in schedule.buckets:
            for g in bucket:
                s.gradient_ready(g, float(schedule.c[bucket[0]]))
        # gradient 0 signalled -> forward phase -> fixed cap.
        assert s.pull_batch_limit(float(schedule.c[0])) == PULL_BATCH_BYTES

    def test_pull_batch_limit_backward_is_interval_bounded(self, profile, schedule):
        s = make_prophet(profile, slice_bytes=0.25 * MB)
        s.begin_iteration(0, schedule, 0.0)
        t0 = float(schedule.c[schedule.buckets[0][0]])
        for g in schedule.buckets[0]:
            s.gradient_ready(g, t0)
        limit = s.pull_batch_limit(t0)
        assert limit is not None
        assert 0.25 * MB <= limit <= 4 * PULL_BATCH_BYTES + 1e-6
