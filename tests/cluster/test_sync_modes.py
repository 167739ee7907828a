"""Tests for ASP / SSP synchronization (the paper's future-work item 1)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.cluster.ps import ParameterServer
from repro.cluster.trainer import run_training
from repro.errors import ConfigurationError
from repro.sched.base import Segment, TransferUnit
from repro.sim.engine import Engine
from repro.workloads.presets import bytescheduler_factory, prophet_factory


class FakeWorker:
    def __init__(self):
        self.pulls = []

    def enqueue_pull(self, pull):
        self.pulls.append(pull)


def _unit(grad, offset, nbytes):
    return TransferUnit(segments=(Segment(grad=grad, offset=offset, nbytes=nbytes),))


def _ps(sync_mode, staleness=1):
    engine = Engine()
    ps = ParameterServer(
        engine,
        n_workers=2,
        sizes=np.array([100.0, 200.0]),
        sync_mode=sync_mode,
        staleness=staleness,
    )
    workers = [FakeWorker(), FakeWorker()]
    ps.attach_workers(workers)
    return engine, ps, workers


class TestASP:
    def test_pull_released_without_other_workers(self):
        engine, ps, workers = _ps("asp")
        ps.receive_push(0, 0, _unit(0, 0.0, 100.0))
        engine.run()
        assert len(workers[0].pulls) == 1
        assert workers[1].pulls == []

    def test_workers_can_drift_arbitrarily(self):
        engine, ps, workers = _ps("asp")
        for it in range(5):
            ps.receive_push(0, it, _unit(0, 0.0, 100.0))
        engine.run()
        assert len(workers[0].pulls) == 5
        assert ps.pending_pulls == 0


class TestSSP:
    def test_within_staleness_released_immediately(self):
        engine, ps, workers = _ps("ssp", staleness=1)
        ps.receive_push(0, 0, _unit(0, 0.0, 100.0))
        ps.receive_push(0, 1, _unit(0, 0.0, 100.0))
        engine.run()
        assert len(workers[0].pulls) == 2  # iterations 0,1 within bound

    def test_beyond_staleness_blocks_until_slow_worker_catches_up(self):
        engine, ps, workers = _ps("ssp", staleness=1)
        for it in range(4):
            ps.receive_push(0, it, _unit(0, 0.0, 100.0))
        engine.run()
        # Iterations 0,1 are within bound (worker 1's clock is 0);
        # iterations 2,3 need worker 1's clock >= 1 resp. 2.
        assert len(workers[0].pulls) == 2
        assert ps.pending_pulls == 2
        ps.receive_push(1, 0, _unit(0, 0.0, 100.0))
        engine.run()
        assert len(workers[0].pulls) == 3  # clock 1 releases iteration 2
        ps.receive_push(1, 1, _unit(0, 0.0, 100.0))
        engine.run()
        assert len(workers[0].pulls) == 4
        assert ps.pending_pulls == 0

    def test_staleness_zero_requires_previous_iteration_complete(self):
        engine, ps, workers = _ps("ssp", staleness=0)
        ps.receive_push(0, 1, _unit(0, 0.0, 100.0))
        engine.run()
        assert workers[0].pulls == []  # worker 1 has not completed iter 0
        ps.receive_push(1, 0, _unit(0, 0.0, 100.0))
        engine.run()
        assert len(workers[0].pulls) == 1


class TestValidation:
    def test_unknown_mode_rejected(self):
        engine = Engine()
        with pytest.raises(ConfigurationError):
            ParameterServer(engine, 1, np.ones(1), sync_mode="gossip")

    def test_negative_staleness_rejected(self):
        engine = Engine()
        with pytest.raises(ConfigurationError):
            ParameterServer(engine, 1, np.ones(1), sync_mode="ssp", staleness=-1)


class TestEndToEnd:
    @pytest.mark.parametrize("mode", ["asp", "ssp"])
    def test_training_completes(self, tiny_config, mode):
        config = replace(tiny_config, sync_mode=mode)
        result = run_training(config, prophet_factory())
        assert result.training_rate(skip=1) > 0

    def test_asp_at_least_as_fast_as_bsp_with_jitter(self, tiny_config):
        jittery = replace(tiny_config, jitter_std=0.05)
        bsp = run_training(jittery, bytescheduler_factory()).training_rate(skip=1)
        asp = run_training(
            replace(jittery, sync_mode="asp"), bytescheduler_factory()
        ).training_rate(skip=1)
        # Removing the barrier can only help (same everything else).
        assert asp >= bsp * 0.99

    def test_ssp_between_bsp_and_asp(self, tiny_config):
        jittery = replace(tiny_config, jitter_std=0.08, n_iterations=8)
        rates = {}
        for mode in ("bsp", "ssp", "asp"):
            cfg = replace(jittery, sync_mode=mode, ssp_staleness=1)
            rates[mode] = run_training(cfg, prophet_factory()).training_rate(skip=2)
        assert rates["asp"] >= rates["bsp"] * 0.99
        assert rates["ssp"] >= rates["bsp"] * 0.99
        assert rates["ssp"] <= rates["asp"] * 1.01
