"""Unit tests for workload presets and scheduler factories."""

import pytest

from repro.config import WorkerContext
from repro.core.profiler import JobProfile
from repro.net.link import BandwidthSchedule, Link
from repro.net.monitor import BandwidthMonitor
from repro.net.tcp import TCPParams
from repro.quantities import Gbps, MB
from repro.sched.bytescheduler import ByteSchedulerScheduler
from repro.sched.fifo import FIFOScheduler
from repro.sched.p3 import P3Scheduler
from repro.sched.prophet_sched import ProphetScheduler
from repro.sim.engine import Engine
from repro.sim.rng import make_rng
from repro.workloads.presets import (
    MODEL_EFFICIENCY,
    PAPER_TCP,
    STRATEGY_FACTORIES,
    bytescheduler_factory,
    fifo_factory,
    p3_factory,
    paper_config,
    paper_device,
    prophet_factory,
)

import numpy as np


@pytest.fixture
def ctx():
    engine = Engine()
    link = Link(engine, BandwidthSchedule.constant(1 * Gbps), TCPParams())
    monitor = BandwidthMonitor(engine, link)
    profile = JobProfile(c=np.array([0.2, 0.1]), sizes=np.array([1e6, 2e6]),
                         iterations=0)
    return WorkerContext(
        worker_id=0, monitor=monitor, oracle_profile=profile,
        tcp=PAPER_TCP, rng=make_rng(0), engine=engine,
    )


def test_paper_device_uses_calibrated_efficiency():
    dev = paper_device("resnet50")
    assert dev.efficiency == MODEL_EFFICIENCY["resnet50"]
    assert paper_device("unknown-model").efficiency == 0.20


def test_paper_config_applies_calibration():
    cfg = paper_config("resnet18", 32, bandwidth=2 * Gbps, n_workers=5)
    assert cfg.model == "resnet18"
    assert cfg.device.efficiency == MODEL_EFFICIENCY["resnet18"]
    assert cfg.tcp == PAPER_TCP
    assert cfg.n_workers == 5


def test_paper_config_overrides():
    cfg = paper_config("resnet50", 64, duplex=True, jitter_std=0.0)
    assert cfg.duplex is True
    assert cfg.jitter_std == 0.0


def test_factories_build_expected_types(ctx):
    assert isinstance(fifo_factory()(ctx), FIFOScheduler)
    assert isinstance(p3_factory()(ctx), P3Scheduler)
    assert isinstance(bytescheduler_factory()(ctx), ByteSchedulerScheduler)
    assert isinstance(prophet_factory()(ctx), ProphetScheduler)


def test_bytescheduler_paper_defaults(ctx):
    s = bytescheduler_factory()(ctx)
    assert s.partition_size == 4 * MB
    assert s.credit == 12 * MB  # "3 times partition size" (paper Fig. 5)
    assert s.auto_tune is False


def test_prophet_factory_wires_monitor(ctx):
    s = prophet_factory()(ctx)
    assert s.active  # oracle profile injected
    assert s._bandwidth_provider() == ctx.monitor.bandwidth


def test_prophet_factory_online_mode(ctx):
    s = prophet_factory(oracle_profile=False, profile_iterations=7)(ctx)
    assert not s.active
    assert s.profile_iterations == 7


def test_strategy_factories_complete():
    assert set(STRATEGY_FACTORIES) == {
        "mxnet-fifo", "p3", "bytescheduler", "prophet",
    }


def test_factories_produce_fresh_instances(ctx):
    f = prophet_factory()
    assert f(ctx) is not f(ctx)
