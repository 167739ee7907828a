"""Targeted worker-level tests: arbitration, forward gating, stall timer."""

from dataclasses import replace

import numpy as np
import pytest

from repro.cluster.trainer import Trainer, run_training
from repro.errors import SimulationError
from repro.sched.fifo import FIFOScheduler
from repro.workloads.presets import (
    bytescheduler_factory,
    fifo_factory,
    mgwfbp_factory,
    p3_factory,
    paper_config,
    prophet_factory,
)

#: The star, the sharded tier and both collectives, on the tiny model.
TOPOLOGIES = {
    "star": {},
    "sharded": {"n_servers": 2},
    "ring": {"n_workers": 4, "backend": "allreduce", "collective": "ring"},
    "hierarchical": {
        "n_workers": 4,
        "backend": "allreduce",
        "collective": "hierarchical",
        "collective_group_size": 2,
    },
}


def tiny_credit_bytescheduler():
    return bytescheduler_factory(credit=1024 * 512, partition_size=1024 * 256)


def probe_count(result) -> int:
    return sum(event.name == "stall.probe" for event in result.trace.events)


class _BatchingFIFO(FIFOScheduler):
    """A FIFO-channel strategy that (wrongly) asks to batch pulls."""

    def pull_batch_limit(self, now: float) -> float | None:
        return 1e9


class _CountingFIFO(FIFOScheduler):
    """FIFO that counts the units it proposes and the units it commits."""

    def __init__(self) -> None:
        super().__init__()
        self.proposed = 0
        self.committed = 0

    def propose_unit(self, now):
        unit = super().propose_unit(now)
        self.proposed += unit is not None
        return unit

    def commit_unit(self, unit, now):
        self.committed += 1
        super().commit_unit(unit, now)


class TestChannelArbitration:
    def test_fifo_port_commits_every_proposal(self):
        """A FIFO port settles pull-vs-push on the oldest ready gradient
        before proposing, so it builds no unit it then drops for a pull."""
        config = paper_config("resnet18", 16, n_workers=4, n_iterations=4, seed=1)
        result = run_training(config, lambda ctx: _CountingFIFO())
        for scheduler in result.schedulers:
            assert scheduler.committed > 0
            assert scheduler.proposed == scheduler.committed

    def test_fifo_channel_pull_batching_is_rejected(self, tiny_config):
        """An arrival-ordered shared channel sends pulls one at a time."""
        with pytest.raises(SimulationError, match="fifo_channel"):
            run_training(tiny_config, lambda ctx: _BatchingFIFO())
        # A duplex downlink drains pulls by priority, so batching is fine.
        duplex = replace(tiny_config, duplex=True)
        assert run_training(duplex, lambda ctx: _BatchingFIFO()).training_rate() > 0

    def test_priority_mode_pulls_return_in_priority_order(self, tiny_config):
        """Under priority arbitration gradient 0's parameters return
        before every lower-priority gradient's (the forward pass needs
        them first)."""
        result = run_training(tiny_config, prophet_factory())
        recs = {r.grad: r for r in result.gradient_records(0, iteration=3)}
        assert recs[0].pull_end <= min(r.pull_end for r in recs.values()) + 1e-9

    def test_fifo_mode_interleaves_by_arrival(self, tiny_config):
        """The MXNet engine processes the queue in arrival order: pulls
        enqueued after later pushes complete after them."""
        result = run_training(tiny_config, fifo_factory())
        recs = {r.grad: r for r in result.gradient_records(0, iteration=3)}
        # Gradient 0 is generated last, so under FIFO its pull is the (or
        # nearly the) last communication event of the iteration.
        pulls = sorted(r.pull_end for r in recs.values())
        assert recs[0].pull_end >= pulls[-2]


class TestForwardGating:
    def test_forward_layers_wait_for_their_params(self, tiny_config):
        result = run_training(tiny_config, fifo_factory())
        for k in range(1, tiny_config.n_iterations - 1):
            prev = {r.grad: r for r in result.gradient_records(0, iteration=k - 1)}
            iters = {r.iteration: r for r in result.recorder.worker_iterations(0)}
            # Layer 0 owns gradients 0,1: forward k cannot *finish its
            # first chunk* before both are pulled.  Conservative check:
            # fwd_end(k) >= pull_end of every gradient of iteration k-1.
            last_pull = max(r.pull_end for r in prev.values())
            assert iters[k].fwd_end >= last_pull - 1e-9

    def test_gpu_intervals_do_not_overlap(self, tiny_config):
        result = run_training(tiny_config, prophet_factory())
        for w in range(tiny_config.n_workers):
            spans = result.recorder.gpu_busy_intervals(w)
            assert np.all(spans[1:, 0] >= spans[:-1, 1] - 1e-9)


class TestStallTimer:
    def test_stall_probe_unwedges_flow_control(self, tiny_config):
        """With a tiny credit, ByteScheduler relies on probes to finish on
        the PS tiers; a collective finishes without any, because every
        completed operation hands its credit back."""
        config = replace(tiny_config, jitter_std=0.05, n_iterations=4)
        for name, shape in TOPOLOGIES.items():
            result = run_training(replace(config, **shape), tiny_credit_bytescheduler())
            assert result.training_rate(skip=1) > 0, name

    def test_only_window_strategies_are_probed(self, tiny_config):
        """Only a scheduler that overrides ``grant_probe`` gets a stall
        timer, and only on a PS port."""
        config = replace(tiny_config, jitter_std=0.05, n_iterations=4, trace=True)
        strategies = {
            "fifo": fifo_factory(),
            "p3": p3_factory(),
            "mgwfbp": mgwfbp_factory(),
            "prophet": prophet_factory(),
        }
        for name, shape in TOPOLOGIES.items():
            shaped = replace(config, **shape)
            for strategy, factory in strategies.items():
                assert probe_count(run_training(shaped, factory)) == 0, (strategy, name)
            if shaped.backend == "allreduce":
                windowed = run_training(shaped, tiny_credit_bytescheduler())
                assert probe_count(windowed) == 0, name
        assert probe_count(run_training(config, tiny_credit_bytescheduler())) > 0


class TestWorkerAccessors:
    def test_done_and_fwd_start_times(self, tiny_config):
        trainer = Trainer(tiny_config, fifo_factory())
        trainer.run()
        for worker in trainer.workers:
            assert worker.done
            starts = worker.fwd_start_times
            assert len(starts) == tiny_config.n_iterations
            assert starts == sorted(starts)
