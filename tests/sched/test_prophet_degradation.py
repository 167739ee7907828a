"""Graceful-degradation tests for the Prophet scheduler: stale-profile
drift detection, bandwidth-collapse detection, and the re-profiling
fallback."""

from dataclasses import replace

import numpy as np
import pytest

from repro.agg.kvstore import KVStore
from repro.cluster.trainer import run_training
from repro.core.profiler import JobProfile
from repro.models.compute import build_compute_profile
from repro.net.link import BandwidthSchedule
from repro.net.tcp import TCPParams
from repro.quantities import Gbps
from repro.sched.prophet_sched import (
    COLLAPSE_FACTOR,
    STALE_PATIENCE,
    STALE_TOLERANCE,
    ProphetScheduler,
)
from repro.workloads.presets import prophet_factory

TCP = TCPParams(rtt=0.2e-3, fixed_overhead=0.1e-3, goodput=1.0)


@pytest.fixture
def schedule(tiny_model, tiny_device):
    prof = build_compute_profile(tiny_model, tiny_device, batch_size=8)
    return KVStore().generation_schedule(prof)


@pytest.fixture
def profile(schedule):
    return JobProfile.from_generation_schedule(schedule)


def make_prophet(profile, bandwidth_fn, **kwargs):
    return ProphetScheduler(
        bandwidth_provider=bandwidth_fn, profile=profile, tcp=TCP, **kwargs
    )


def feed_iteration(s, schedule, iteration, now0, dilation=1.0):
    """Run one begin/ready*/drain/end cycle, generation times scaled by
    ``dilation`` (a dilation far from 1.0 models a profile gone stale)."""
    s.begin_iteration(iteration, schedule, now0)
    for g in np.argsort(schedule.c):
        s.gradient_ready(int(g), now0 + dilation * float(schedule.c[g]))
    end = now0 + dilation * float(schedule.c.max())
    while True:  # every gradient is signalled, so the forward path drains
        unit = s.propose_unit(end)
        if unit is None:
            break
        s.commit_unit(unit, end)
    s.end_iteration(iteration, end - now0, end)
    return end


class TestStaleProfile:
    def test_drift_beyond_tolerance_needs_patience(self, schedule, profile):
        assert (STALE_TOLERANCE, STALE_PATIENCE) == (0.5, 2)
        s = make_prophet(profile, lambda: 1e9)
        now = feed_iteration(s, schedule, 0, 0.0, dilation=5.0)
        assert not s.degraded  # one bad iteration: streak, not detection
        feed_iteration(s, schedule, 1, now, dilation=5.0)
        assert s.degraded
        assert s.stale_detections == 1
        assert s.fallbacks == 1
        assert s.profile is None

    def test_accurate_iterations_reset_the_streak(self, schedule, profile):
        s = make_prophet(profile, lambda: 1e9)
        now = feed_iteration(s, schedule, 0, 0.0, dilation=5.0)
        now = feed_iteration(s, schedule, 1, now, dilation=1.0)  # on-plan
        feed_iteration(s, schedule, 2, now, dilation=5.0)
        assert not s.degraded

    def test_reprofile_action_reenters_warmup(self, schedule, profile):
        events = []
        s = make_prophet(
            profile,
            lambda: 1e9,
            profile_iterations=2,
            notify=lambda e, d: events.append((e, d)),
        )
        now = 0.0
        for it in range(STALE_PATIENCE):
            now = feed_iteration(s, schedule, it, now, dilation=6.0)
        assert s.fallbacks == 1 and s.profile is None
        assert len(events) == 1
        name, detail = events[0]
        assert name == "prophet.fallback"
        assert detail["reason"] == "stale-profile"
        # Warmup-FIFO path re-profiles from the new (dilated) timings and
        # converges back to a plan after ``profile_iterations`` iterations.
        now = feed_iteration(s, schedule, 2, now, dilation=6.0)
        feed_iteration(s, schedule, 3, now, dilation=6.0)
        assert s.active  # fresh profile built from post-shift reality
        assert s.fallbacks == 1


class TestBandwidthCollapse:
    def test_collapse_against_running_max_reference(self, schedule, profile):
        bw = {"v": 1e9}
        events = []
        s = make_prophet(
            profile, lambda: bw["v"], notify=lambda e, d: events.append((e, d))
        )
        s.begin_iteration(0, schedule, 0.0)  # reference := 1e9
        assert not s.degraded
        bw["v"] = 0.5 * COLLAPSE_FACTOR * 1e9  # half the collapse threshold
        s.begin_iteration(1, schedule, 1.0)
        assert s.degraded and s.collapse_detections == 1
        assert events[0][1]["reason"] == "bandwidth-collapse"
        assert events[0][1]["bandwidth"] == pytest.approx(0.5 * COLLAPSE_FACTOR * 1e9)

    def test_moderate_dip_is_not_a_collapse(self, schedule, profile):
        bw = {"v": 1e9}
        s = make_prophet(profile, lambda: bw["v"])
        s.begin_iteration(0, schedule, 0.0)
        bw["v"] = 4 * COLLAPSE_FACTOR * 1e9  # degraded link, not a collapse
        s.begin_iteration(1, schedule, 1.0)
        assert not s.degraded


class TestEndToEndFallback:
    def test_forced_collapse_fires_fallback_with_trace_instant(
        self, tiny_config
    ):
        """Acceptance: under a forced mid-run bandwidth collapse the
        planner falls back, and the detection lands in the trace."""
        clean = run_training(tiny_config, prophet_factory())
        t_half = 0.5 * clean.end_time
        collapsing = BandwidthSchedule(
            [(0.0, 1 * Gbps), (t_half, 0.01 * Gbps)]
        )
        config = replace(
            tiny_config,
            bandwidth=collapsing,
            monitor_interval=0.1 * t_half,
            trace=True,
        )
        result = run_training(config, prophet_factory())
        assert any(s.degraded for s in result.schedulers)
        fallbacks = [
            e for e in result.trace.events if e.name == "prophet.fallback"
        ]
        assert fallbacks, "fallback must be visible as a trace instant"
        assert all(e.cat == "fault" for e in fallbacks)
        assert fallbacks[0].args["reason"] == "bandwidth-collapse"
        assert fallbacks[0].ts >= t_half
