"""Unit tests for Algorithm 1 (the offline Prophet planner)."""

import numpy as np
import pytest

from repro.agg.kvstore import KVStore
from repro.core.algorithm import FORWARD_BLOCK_BYTES, plan_schedule
from repro.core.blocks import ProphetPlan
from repro.core.perf_model import PerfModelInputs, check_constraints
from repro.core.profiler import JobProfile
from repro.errors import ConfigurationError, SchedulingError
from repro.models.compute import build_compute_profile
from repro.net.tcp import TCPParams
from repro.quantities import Gbps

TCP = TCPParams(rtt=0.2e-3, fixed_overhead=0.1e-3, goodput=1.0)


@pytest.fixture
def profile(tiny_model, tiny_device):
    prof = build_compute_profile(tiny_model, tiny_device, batch_size=8)
    return JobProfile.from_generation_schedule(KVStore().generation_schedule(prof))


def test_plan_covers_every_gradient_once(profile):
    plan = plan_schedule(profile, 1 * Gbps, TCP)
    assert plan.num_gradients == profile.num_gradients
    grads = sorted(t.grad for t in plan.transfers)
    assert grads == list(range(profile.num_gradients))


def test_plan_satisfies_all_constraints(profile):
    for bandwidth in (0.2 * Gbps, 1 * Gbps, 10 * Gbps):
        plan = plan_schedule(profile, bandwidth, TCP)
        inputs = PerfModelInputs(
            c=profile.c,
            t=plan.start_times,
            e=plan.durations,
            fp=np.zeros(profile.num_gradients),
            total_bwd=float(profile.c.max()),
        )
        check_constraints(inputs)


def test_gradient_zero_starts_at_its_generation(profile):
    plan = plan_schedule(profile, 1 * Gbps, TCP)
    assert plan.start_times[0] == pytest.approx(float(profile.c[0]))


def test_critical_block_is_solo_gradient_zero(profile):
    plan = plan_schedule(profile, 1 * Gbps, TCP)
    critical = [b for b in plan.blocks if b.phase == "critical"]
    assert len(critical) == 1
    assert critical[0].grads == (0,)


def test_high_bandwidth_transfers_everything_during_backward(profile):
    plan = plan_schedule(profile, 100 * Gbps, TCP)
    backward_grads = {g for b in plan.backward_blocks() for g in b.grads}
    # Everything except the final burst (incl. gradient 0) fits in-interval.
    final_burst = {0, 1}
    assert backward_grads >= set(range(profile.num_gradients)) - final_burst


def test_low_bandwidth_defers_to_forward_phase(profile):
    plan = plan_schedule(profile, 0.01 * Gbps, TCP)
    assert len(plan.backward_blocks()) == 0
    fw = plan.forward_blocks()
    assert sum(len(b.grads) for b in fw) == profile.num_gradients


def test_forward_blocks_respect_size_cap(profile):
    plan = plan_schedule(profile, 0.05 * Gbps, TCP)
    for block in plan.forward_blocks():
        if len(block.grads) > 1:
            assert block.nbytes <= FORWARD_BLOCK_BYTES + 1e-6


def test_forward_blocks_in_priority_order(profile):
    plan = plan_schedule(profile, 0.05 * Gbps, TCP)
    fw = [g for b in plan.forward_blocks() for g in b.grads]
    assert fw == sorted(fw)


def test_block_durations_match_transfer_sums(profile):
    plan = plan_schedule(profile, 1 * Gbps, TCP)
    by_grad = {t.grad: t for t in plan.transfers}
    for block in plan.blocks:
        total = sum(by_grad[g].duration for g in block.grads)
        assert total == pytest.approx(block.duration, rel=1e-9)
        assert by_grad[block.grads[0]].start == pytest.approx(block.start)


def test_plan_is_deterministic(profile):
    p1 = plan_schedule(profile, 1 * Gbps, TCP)
    p2 = plan_schedule(profile, 1 * Gbps, TCP)
    assert np.array_equal(p1.start_times, p2.start_times)


def test_invalid_args_raise(profile):
    with pytest.raises(ConfigurationError):
        plan_schedule(profile, 0.0, TCP)
    with pytest.raises(ConfigurationError):
        plan_schedule(profile, -1 * Gbps, TCP)


def test_plan_validates_double_scheduling():
    from repro.core.blocks import PlannedTransfer, GradientBlock

    with pytest.raises(SchedulingError):
        ProphetPlan(
            transfers=(
                PlannedTransfer(0, 0.0, 1.0),
                PlannedTransfer(0, 2.0, 1.0),
            ),
            blocks=(
                GradientBlock((0,), 0.0, 1.0, 1.0, "backward"),
                GradientBlock((0,), 2.0, 1.0, 1.0, "forward"),
            ),
        )
