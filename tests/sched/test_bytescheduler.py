"""Unit tests for the ByteScheduler (credit flow control) scheduler."""

import numpy as np
import pytest

from repro.agg.kvstore import KVStore
from repro.errors import ConfigurationError
from repro.models.compute import build_compute_profile
from repro.quantities import MB
from repro.sched.bytescheduler import CREDIT_BOUNDS, ByteSchedulerScheduler


@pytest.fixture
def schedule(tiny_model, tiny_device):
    prof = build_compute_profile(tiny_model, tiny_device, batch_size=8)
    return KVStore().generation_schedule(prof)


def _drain_one(s, now=0.0):
    unit = s.propose_unit(now)
    if unit is not None:
        s.commit_unit(unit, now)
    return unit


class TestCreditBatching:
    def test_batch_bounded_by_credit(self, schedule):
        s = ByteSchedulerScheduler(credit=4 * MB, partition_size=1 * MB)
        s.begin_iteration(0, schedule, 0.0)
        for g in (5, 6, 7):  # 8 MB + 4 KB + 4 KB
            s.gradient_ready(g, 0.0)
        unit = s.propose_unit(0.0)
        assert unit.total_bytes <= 4 * MB + 1e-9
        assert unit.segments[0].grad == 5

    def test_batch_spans_gradients_in_priority_order(self, schedule):
        s = ByteSchedulerScheduler(credit=8 * MB, partition_size=1 * MB)
        s.begin_iteration(0, schedule, 0.0)
        for g in (2, 4, 3):  # 6 MB, 64 KB, 3 MB
            s.gradient_ready(g, 0.0)
        unit = s.propose_unit(0.0)
        assert list(unit.grads)[:2] == [2, 3]

    def test_flow_control_stalls_at_credit(self, schedule):
        s = ByteSchedulerScheduler(credit=4 * MB, partition_size=1 * MB)
        s.begin_iteration(0, schedule, 0.0)
        s.gradient_ready(5, 0.0)  # 8 MB
        first = _drain_one(s)
        assert first is not None
        # Outstanding == credit: no further proposals.
        assert s.propose_unit(0.1) is None

    def test_pull_replenishes_credit(self, schedule):
        s = ByteSchedulerScheduler(credit=4 * MB, partition_size=1 * MB)
        s.begin_iteration(0, schedule, 0.0)
        s.gradient_ready(5, 0.0)
        _drain_one(s)
        assert s.propose_unit(0.1) is None
        s.pull_completed(5, 2 * MB, 0.2)
        unit = s.propose_unit(0.2)
        assert unit is not None
        assert unit.total_bytes <= 2 * MB + 1e-9

    def test_probe_extends_window(self, schedule):
        s = ByteSchedulerScheduler(credit=4 * MB, partition_size=1 * MB)
        s.begin_iteration(0, schedule, 0.0)
        s.gradient_ready(5, 0.0)
        _drain_one(s)
        assert s.propose_unit(0.1) is None
        s.grant_probe(0.2)
        unit = s.propose_unit(0.2)
        assert unit is not None
        assert unit.total_bytes <= 1 * MB + 1e-9  # one partition per probe

    def test_probe_allowance_resets_on_feedback(self, schedule):
        s = ByteSchedulerScheduler(credit=4 * MB, partition_size=1 * MB)
        s.begin_iteration(0, schedule, 0.0)
        s.gradient_ready(5, 0.0)
        _drain_one(s)
        s.grant_probe(0.1)
        _drain_one(s, 0.1)
        s.pull_completed(5, 1 * MB, 0.2)
        assert s._probe_allowance == 0.0

    def test_outstanding_resets_per_iteration(self, schedule):
        s = ByteSchedulerScheduler(credit=40 * MB, partition_size=1 * MB)
        s.begin_iteration(0, schedule, 0.0)
        for g in range(8):
            s.gradient_ready(g, 0.0)
        while _drain_one(s) is not None:
            pass
        s.begin_iteration(1, schedule, 1.0)
        assert s._outstanding == 0.0

    def test_pull_batch_limit_tracks_credit(self):
        s = ByteSchedulerScheduler(credit=5 * MB)
        assert s.pull_batch_limit(0.0) == 5 * MB


class TestAutoTuning:
    def test_credit_history_recorded(self, schedule):
        s = ByteSchedulerScheduler(credit=4 * MB)
        s.begin_iteration(0, schedule, 0.0)
        assert s.credit_history == [(0, 4 * MB)]

    def test_autotune_changes_credit(self, schedule):
        rng = np.random.default_rng(0)
        s = ByteSchedulerScheduler(auto_tune=True, tune_every=1, rng=rng)
        credits = [s.credit]
        for i in range(6):
            s.begin_iteration(i, schedule, float(i))
            for g in range(8):
                s.gradient_ready(g, float(i))
            while _drain_one(s, float(i)) is not None:
                s.pull_completed(0, 100 * MB, float(i))  # keep window open
            s.end_iteration(i, 1.0 + 0.1 * i, float(i) + 0.5)
            credits.append(s.credit)
        assert len(set(round(c) for c in credits)) > 1

    def test_autotune_respects_bounds(self, schedule):
        rng = np.random.default_rng(1)
        s = ByteSchedulerScheduler(auto_tune=True, tune_every=1, rng=rng)
        low, high = CREDIT_BOUNDS
        for i in range(8):
            assert low <= s.credit <= high * (1 + 1e-9)
            s.end_iteration(i, 1.0 + 0.1 * i, float(i))

    def test_tune_every_batches_observations(self, schedule):
        rng = np.random.default_rng(2)
        s = ByteSchedulerScheduler(auto_tune=True, tune_every=3, rng=rng)
        c0 = s.credit
        s.end_iteration(0, 1.0, 0.0)
        s.end_iteration(1, 1.0, 0.0)
        assert s.credit == c0  # not enough observations yet
        s.end_iteration(2, 1.0, 0.0)
        assert s._optimizer.num_observations == 1


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(credit=0.0),
            dict(partition_size=0.0),
            dict(tune_every=0),
        ],
    )
    def test_invalid_params(self, kwargs):
        with pytest.raises(ConfigurationError):
            ByteSchedulerScheduler(**kwargs)
