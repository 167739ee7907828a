"""End-to-end training over the allreduce collective backend.

The bar mirrors the sharded-tier tests: every scheduling strategy must
drive the collective backend *unchanged* (the topology/scheduler split),
runs must be deterministic under the seed, the degenerate one-worker ring
must be communication-free, and the config surface must reject the PS
knobs that have no collective meaning.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.cluster.trainer import run_training
from repro.errors import ConfigurationError
from repro.workloads.presets import EXTENDED_FACTORIES

STRATEGIES = tuple(EXTENDED_FACTORIES)


@pytest.fixture
def ring_config(tiny_config):
    return replace(tiny_config, backend="allreduce", collective="ring")


# ----------------------------------------------------------------------
# Every scheduler drives the collective backend unchanged
# ----------------------------------------------------------------------

@pytest.mark.parametrize("strategy", STRATEGIES)
def test_all_strategies_run_on_ring(ring_config, strategy):
    result = run_training(ring_config, EXTENDED_FACTORIES[strategy])
    assert result.training_rate(skip=1) > 0
    # All model bytes flowed as ring steps: each link carries
    # 2(N-1)/N · S per allreduced byte, and nothing else.
    n = ring_config.n_workers
    factor = 2.0 * (n - 1) / n
    model_bytes = float(result.gen_schedule.sizes.sum())
    per_iter = factor * model_bytes
    for link in result.topology.local_links:
        total = sum(r.nbytes for r in link.records)
        assert total == pytest.approx(per_iter * ring_config.n_iterations)


@pytest.mark.parametrize("strategy", ("prophet", "mxnet-fifo"))
def test_all_strategies_run_hierarchical(tiny_config, strategy):
    config = replace(
        tiny_config,
        n_workers=4,
        backend="allreduce",
        collective="hierarchical",
        collective_group_size=2,
    )
    result = run_training(config, EXTENDED_FACTORIES[strategy])
    assert result.training_rate(skip=1) > 0
    # Both levels saw traffic.
    assert all(link.records for link in result.topology.local_links)
    assert all(link.records for link in result.topology.global_links)


def test_collective_runs_are_deterministic(ring_config):
    factory = EXTENDED_FACTORIES["prophet"]
    a = run_training(ring_config, factory)
    b = run_training(ring_config, factory)
    for w in range(ring_config.n_workers):
        t_a = [r.fwd_start for r in a.recorder.worker_iterations(w)]
        t_b = [r.fwd_start for r in b.recorder.worker_iterations(w)]
        assert t_a == t_b
    assert a.end_time == b.end_time


def test_workers_stay_in_lockstep(ring_config):
    """Allreduce is inherently BSP: iteration starts are negotiated, so
    every worker begins iteration k at the same simulated time (up to the
    per-worker compute jitter that staggers *ends*, not starts of the
    barrier — the slowest worker gates everyone)."""
    result = run_training(ring_config, EXTENDED_FACTORIES["mxnet-fifo"])
    iters = [
        result.recorder.worker_iterations(w)
        for w in range(ring_config.n_workers)
    ]
    counts = {len(recs) for recs in iters}
    assert counts == {ring_config.n_iterations}


# ----------------------------------------------------------------------
# Ring of one == no-op
# ----------------------------------------------------------------------

def test_ring_size_one_is_communication_free(tiny_config):
    config = replace(
        tiny_config, n_workers=1, jitter_std=0.0,
        backend="allreduce", collective="ring",
    )
    spans_by_strategy = {}
    for strategy in STRATEGIES:
        result = run_training(config, EXTENDED_FACTORIES[strategy])
        # No bytes moved: the one-worker allreduce is the identity.
        assert all(link.records == [] for link in result.topology.local_links)
        spans = result.iteration_spans(0, skip=1)
        # Iterations are pure compute (+ the generation schedule's fixed
        # assembly tail) — no transfer or handshake time anywhere.
        compute = result.compute.fwd_times.sum() + result.compute.bwd_times.sum()
        assert np.all(spans >= compute)
        assert np.all(spans <= compute * 1.002)
        spans_by_strategy[strategy] = spans.tolist()
    # With communication free, the scheduler cannot matter: every
    # strategy produces the identical timeline.
    reference = spans_by_strategy["mxnet-fifo"]
    for strategy, spans in spans_by_strategy.items():
        assert spans == reference, strategy


# ----------------------------------------------------------------------
# Config surface
# ----------------------------------------------------------------------

def test_backend_validation_rejects_ps_knobs(tiny_config):
    with pytest.raises(ConfigurationError):
        replace(tiny_config, backend="allreduce", n_servers=2)
    with pytest.raises(ConfigurationError):
        replace(tiny_config, backend="allreduce", duplex=True)
    with pytest.raises(ConfigurationError):
        replace(tiny_config, backend="allreduce", ps_bandwidth=1e9)
    with pytest.raises(ConfigurationError):
        replace(tiny_config, backend="allreduce", sync_mode="asp")
    with pytest.raises(ConfigurationError):
        replace(tiny_config, backend="nccl")
    with pytest.raises(ConfigurationError):
        replace(tiny_config, backend="allreduce", collective="tree")


def test_hierarchical_group_size_must_divide_workers(tiny_config):
    with pytest.raises(ConfigurationError):
        replace(
            tiny_config,
            n_workers=4,
            backend="allreduce",
            collective="hierarchical",
            collective_group_size=3,
        )
