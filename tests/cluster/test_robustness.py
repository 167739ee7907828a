"""Robustness and failure-injection tests.

The simulation must stay correct (complete, conserve bytes, keep event
ordering) under hostile conditions: bandwidth collapse mid-run, wrong
profiles, wrong monitor readings, degenerate configurations.
"""

from dataclasses import replace

import pytest

from repro.cluster.trainer import Trainer, run_training
from repro.config import TrainingConfig
from repro.core.profiler import JobProfile
from repro.net.link import BandwidthSchedule
from repro.quantities import Gbps, KB, Mbps
from repro.sched.prophet_sched import ProphetScheduler
from repro.workloads.presets import (
    STRATEGY_FACTORIES,
    p3_factory,
    prophet_factory,
)


def test_bandwidth_collapse_mid_run(tiny_config):
    """Available bandwidth drops 10x partway through training."""
    schedule = BandwidthSchedule([(0.0, 1 * Gbps), (1.0, 100 * Mbps)])
    config = replace(tiny_config, bandwidth=schedule, n_iterations=8)
    for name, factory in STRATEGY_FACTORIES.items():
        result = run_training(config, factory)
        spans = result.iteration_spans(0, skip=1)
        assert len(spans) == 6
        # Later iterations are slower than early ones.
        assert spans[-1] > spans[0]


def test_bandwidth_recovery_mid_run(tiny_config):
    schedule = BandwidthSchedule([(0.0, 100 * Mbps), (3.0, 1 * Gbps)])
    config = replace(tiny_config, bandwidth=schedule, n_iterations=8)
    result = run_training(config, prophet_factory())
    spans = result.iteration_spans(0, skip=1)
    assert spans[-1] < spans[0]


def test_prophet_with_badly_wrong_profile(tiny_config):
    """A profile off by 2x in time must degrade, never deadlock."""

    def bad_profile_factory(ctx):
        wrong = JobProfile(
            c=ctx.oracle_profile.c * 2.0,  # predicts everything late
            sizes=ctx.oracle_profile.sizes,
            iterations=0,
        )
        monitor = ctx.monitor
        return ProphetScheduler(
            bandwidth_provider=lambda: monitor.bandwidth,
            profile=wrong,
            tcp=ctx.tcp,
        )

    good = run_training(tiny_config, prophet_factory()).training_rate(skip=1)
    bad = run_training(tiny_config, bad_profile_factory).training_rate(skip=1)
    assert bad > 0
    assert bad <= good * 1.05


def test_prophet_with_early_profile(tiny_config):
    """A profile off by 0.5x (predicts everything early) still completes."""

    def early_profile_factory(ctx):
        wrong = JobProfile(
            c=ctx.oracle_profile.c * 0.5,
            sizes=ctx.oracle_profile.sizes,
            iterations=0,
        )
        monitor = ctx.monitor
        return ProphetScheduler(
            bandwidth_provider=lambda: monitor.bandwidth,
            profile=wrong,
            tcp=ctx.tcp,
        )

    result = run_training(tiny_config, early_profile_factory)
    assert result.training_rate(skip=1) > 0


@pytest.mark.parametrize("factor", [0.1, 10.0])
def test_prophet_with_wrong_bandwidth_estimate(tiny_config, factor):
    """A monitor that misreads bandwidth by 10x either way is survivable."""

    def wrong_bw_factory(ctx):
        monitor = ctx.monitor
        return ProphetScheduler(
            bandwidth_provider=lambda: monitor.bandwidth * factor,
            profile=ctx.oracle_profile,
            tcp=ctx.tcp,
        )

    result = run_training(tiny_config, wrong_bw_factory)
    assert result.training_rate(skip=1) > 0


#: Per-backend config overrides and worker 0's transmit link names.  A
#: link's name is its trace track (``net/<name>``), so a renamed link
#: moves every traced run's transfer spans.
LINK_NAMES = {
    "star": ({}, ["worker0-up"]),
    "sharded": ({"n_servers": 2}, ["worker0-s0-up", "worker0-s1-up"]),
    "ring": ({"backend": "allreduce"}, ["worker0-ring"]),
    "hierarchical": (
        {
            "backend": "allreduce",
            "collective": "hierarchical",
            "n_workers": 4,
            "collective_group_size": 2,
        },
        ["worker0-local", "worker0-global"],
    ),
}


def test_noisy_bandwidth_links(tiny_config):
    """Links draw no noise; what this guards is worker 0's link names."""
    for variant, (overrides, names) in LINK_NAMES.items():
        trainer = Trainer(replace(tiny_config, **overrides), prophet_factory())
        links = trainer.topology.worker_uplinks(0)
        assert [link.name for link in links] == names, variant


def test_absurdly_small_p3_partitions(tiny_config):
    config = replace(tiny_config, n_iterations=4)
    slow = run_training(config, p3_factory(partition_size=64 * KB))
    fast = run_training(config, p3_factory(partition_size=4 * 1024 * KB))
    assert slow.training_rate(skip=1) < fast.training_rate(skip=1)


def test_single_iteration_run(tiny_config):
    config = replace(tiny_config, n_iterations=1)
    trainer = Trainer(config, prophet_factory())
    result = trainer.run()
    assert len(result.recorder.worker_iterations(0)) == 1
    expected = result.gen_schedule.sizes.sum() * config.n_workers
    assert trainer.ps.total_push_bytes == pytest.approx(expected)


def test_single_bucket_aggregation(tiny_config):
    from repro.agg.policies import ExplicitGroupsPolicy

    config = replace(
        tiny_config, agg_policy=ExplicitGroupsPolicy((tuple(range(8)),))
    )
    result = run_training(config, prophet_factory())
    assert result.training_rate(skip=1) > 0


def test_zero_jitter_fully_deterministic(tiny_config):
    config = replace(tiny_config, jitter_std=0.0)
    r1 = run_training(config, prophet_factory())
    r2 = run_training(config, prophet_factory())
    s1 = [r.fwd_start for r in r1.recorder.worker_iterations(0)]
    s2 = [r.fwd_start for r in r2.recorder.worker_iterations(0)]
    assert s1 == s2


def test_large_tensor_model_completes():
    """VGG-19's 392 MB fc tensor traverses the pipeline correctly."""
    config = TrainingConfig(
        model="vgg19",
        batch_size=8,
        n_workers=2,
        n_iterations=3,
        bandwidth=10 * Gbps,
        record_gradients=False,
    )
    for factory in STRATEGY_FACTORIES.values():
        result = run_training(config, factory)
        assert result.training_rate(skip=1) > 0


def test_extreme_heterogeneity(tiny_config):
    config = replace(
        tiny_config,
        worker_bandwidth={0: 20 * Mbps},
        n_iterations=4,
    )
    result = run_training(config, prophet_factory())
    # Both workers forced to the slow worker's pace (BSP).
    r0 = result.per_worker_rate(0, skip=1)
    r1 = result.per_worker_rate(1, skip=1)
    assert r0 == pytest.approx(r1, rel=0.25)
