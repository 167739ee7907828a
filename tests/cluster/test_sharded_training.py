"""Integration tests for training over the PS tier, star and sharded.

The star is the one-port case of the same worker/port machinery that
drives the key-sharded tier.  The hard bar: at ``n_servers=1`` that
machinery must keep reproducing the results of the old dedicated
single-PS worker *exactly* — the literal values below were recorded from
it (and pinned equal to a one-shard sharded build under random fault
plans, duplex, and every sync mode) before the two paths were merged.
Beyond that, multi-shard runs must complete under every sync mode, honor
P3-style slicing, and label per-shard trace rows.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.cluster.trainer import run_training
from repro.errors import ConfigurationError
from repro.faults.plan import (
    FaultPlan,
    LinkFlap,
    MessageDrops,
    PSStall,
    ServerCrash,
    WorkerCrash,
)
from repro.quantities import Gbps
from repro.workloads.presets import EXTENDED_FACTORIES, paper_config

# ----------------------------------------------------------------------
# The star's pre-merge results, bit for bit
# ----------------------------------------------------------------------

#: strategy -> (end_time, each worker's last forward start) on tiny_config.
STAR_TIMELINES = {
    "prophet": (4.193145822090458, (3.2978546934773956, 3.3240880165104283)),
    "mxnet-fifo": (4.3067656769894835, (3.419861541143335, 3.421648223103915)),
    "p3": (3.991803835731658, (3.1642883492682325, 3.1573889286023062)),
    "bytescheduler": (4.290803189475674, (3.4092198828007936, 3.411006564761374)),
}


@pytest.mark.parametrize("strategy", sorted(STAR_TIMELINES))
def test_single_shard_bit_identical_to_star(tiny_config, strategy):
    result = run_training(tiny_config, EXTENDED_FACTORIES[strategy])
    end_time, last_starts = STAR_TIMELINES[strategy]
    # Bit-identical, not approximately equal.
    assert result.end_time == end_time
    assert tuple(
        result.recorder.worker_iterations(w)[-1].fwd_start
        for w in range(tiny_config.n_workers)
    ) == last_starts


@pytest.mark.parametrize("workload", [("resnet18", 32)])
def test_single_shard_matches_fig8_scalars(workload):
    """The fig8 rates of the old single-PS worker, reproduced bit-exactly."""
    model, batch = workload
    config = paper_config(
        model, batch, bandwidth=3 * Gbps, n_iterations=6, record_gradients=False
    )
    rates = {"prophet": 73.2388550947643, "bytescheduler": 74.13232460878686}
    for strategy, rate in rates.items():
        assert run_training(config, EXTENDED_FACTORIES[strategy]).training_rate() == rate


#: Every fault kind the star accepts, firing inside a tiny_config run.
ALL_FAULTS = FaultPlan(
    crashes=(WorkerCrash(worker=1, at=0.8, restart_after=0.3),),
    flaps=(LinkFlap(start=1.2, duration=0.3, factor=0.2, worker=0),),
    drops=(MessageDrops(push=0.1, pull=0.05, ack=0.05),),
    ps_stalls=(PSStall(at=1.8, duration=0.1),),
    server_crashes=(ServerCrash(server=0, at=2.4, failover_after=0.1),),
)
CRASH_AND_DROPS = FaultPlan(
    crashes=(WorkerCrash(worker=0, at=1.0, restart_after=0.2),),
    drops=(MessageDrops(push=0.1, pull=0.1, ack=0.1),),
)

#: Shapes ``benchmarks/baselines.json`` does not cover: name -> (strategy,
#: config overrides, end_time, non-zero fault_stats).
SHAPE_PINS = {
    "faulty": (
        "prophet",
        dict(seed=3, faults=ALL_FAULTS),
        5.2680135247405,
        {"push_drops": 9, "pull_drops": 7, "ack_drops": 1, "push_retries": 13,
         "pull_retries": 7, "duplicate_pushes": 1, "crashes": 1, "restarts": 1,
         "link_flaps": 1, "ps_stalls": 1, "server_crashes": 1, "failovers": 1,
         "lost_pushes": 3},
    ),
    "faulty-fifo": (
        "mxnet-fifo",
        dict(seed=4, faults=ALL_FAULTS),
        5.21609601137868,
        {"push_drops": 21, "pull_drops": 6, "ack_drops": 8, "push_retries": 32,
         "pull_retries": 6, "duplicate_pushes": 8, "crashes": 1, "restarts": 1,
         "link_flaps": 1, "ps_stalls": 1, "server_crashes": 1, "failovers": 1,
         "lost_pushes": 3},
    ),
    "duplex": ("bytescheduler", dict(seed=5, duplex=True), 3.8261088886528984, None),
    "duplex-faulty": (
        "p3",
        dict(seed=6, duplex=True, faults=CRASH_AND_DROPS),
        3.9407079019361064,
        {"push_drops": 16, "pull_drops": 4, "ack_drops": 8, "push_retries": 24,
         "pull_retries": 4, "duplicate_pushes": 8, "crashes": 1, "restarts": 1},
    ),
    "ssp": (
        "mxnet-fifo",
        dict(seed=8, sync_mode="ssp", jitter_std=0.05),
        4.333728823882814,
        None,
    ),
    "asp-faulty": (
        "mg-wfbp",
        dict(seed=9, sync_mode="asp", faults=ALL_FAULTS),
        4.880880622499389,
        {"push_drops": 7, "pull_drops": 1, "ack_drops": 2, "push_retries": 12,
         "pull_retries": 1, "duplicate_pushes": 2, "crashes": 1, "restarts": 1,
         "link_flaps": 1, "ps_stalls": 1, "server_crashes": 1, "failovers": 1,
         "lost_pushes": 3},
    ),
    "sharded-faulty": (
        "prophet",
        dict(seed=10, n_servers=2, duplex=True, faults=CRASH_AND_DROPS),
        4.5467924949252,
        {"push_drops": 11, "pull_drops": 11, "ack_drops": 10, "push_retries": 21,
         "pull_retries": 11, "duplicate_pushes": 10, "crashes": 1, "restarts": 1},
    ),
    # Recorded after the merge: a pull finishing on the duplex downlink
    # frees ByteScheduler credit, and the port must re-pump the uplink
    # to use it, or the lost push wedges the run at its event budget.
    "duplex-lost-push": (
        "bytescheduler",
        dict(
            seed=0,
            n_iterations=4,
            jitter_std=0.0,
            duplex=True,
            faults=FaultPlan(drops=(MessageDrops(push=0.05),)),
        ),
        2.6243265599999996,
        {"push_drops": 1, "push_retries": 1},
    ),
}


@pytest.mark.parametrize("shape", sorted(SHAPE_PINS))
def test_star_shapes_match_recorded_values(tiny_config, shape):
    strategy, overrides, end_time, stats = SHAPE_PINS[shape]
    result = run_training(
        replace(tiny_config, **overrides), EXTENDED_FACTORIES[strategy]
    )
    assert result.end_time == end_time
    if stats is None:
        assert result.fault_stats is None
    else:
        assert {k: v for k, v in result.fault_stats.items() if v} == stats


# ----------------------------------------------------------------------
# Multi-shard runs
# ----------------------------------------------------------------------

@pytest.mark.parametrize("sync_mode", ["bsp", "asp", "ssp"])
def test_multi_shard_completes_under_all_sync_modes(tiny_config, sync_mode):
    config = replace(tiny_config, n_servers=3, sync_mode=sync_mode)
    result = run_training(config, EXTENDED_FACTORIES["prophet"])
    for w in range(config.n_workers):
        assert len(result.recorder.worker_iterations(w)) == config.n_iterations
    assert result.training_rate() > 0


def test_multi_shard_gradient_records_complete(tiny_config):
    """Every gradient's push/pull marks fire exactly once per iteration
    even though its bytes cross several shard links."""
    config = replace(tiny_config, n_servers=3)
    result = run_training(config, EXTENDED_FACTORIES["prophet"])
    recs = [
        r for r in result.gradient_records(worker=0)
        if r.iteration >= 2
    ]
    n_grads = len(result.gen_schedule.sizes)
    assert len(recs) == n_grads * (config.n_iterations - 2)
    for r in recs:
        assert np.isfinite(r.ready)
        assert np.isfinite(r.push_start) and np.isfinite(r.push_end)
        assert r.push_start >= r.ready
        assert r.push_end > r.push_start


def test_multi_shard_duplex(tiny_config):
    config = replace(tiny_config, n_servers=2, duplex=True)
    result = run_training(config, EXTENDED_FACTORIES["prophet"])
    assert result.training_rate() > 0
    # pull traffic rides the per-shard downlinks
    down_bytes = sum(
        r.nbytes
        for link in result.topology.worker_downlinks(0)
        for r in link.records
    )
    assert down_bytes > 0


def test_slicing_spreads_large_tensors(tiny_config):
    config = replace(tiny_config, n_servers=2, shard_slice_bytes=1e6)
    result = run_training(config, EXTENDED_FACTORIES["prophet"])
    assert result.training_rate() > 0
    # the 8 MB tensor must land on both shards
    from repro.cluster.sharding import assign_shards

    assignment = assign_shards(
        result.gen_schedule.sizes, 2, config.shard_slice_bytes
    )
    big = int(np.argmax(result.gen_schedule.sizes))
    shards = {p.shard for p in assignment.pieces_of(big)}
    assert shards == {0, 1}


def test_sharding_relieves_ps_bottleneck(tiny_config):
    """Under a PS-side NIC cap, widening the tier speeds up iterations."""
    times = []
    for k in (1, 2):
        config = replace(
            tiny_config,
            bandwidth=4 * Gbps,
            ps_bandwidth=1 * Gbps,
            n_servers=k,
            n_iterations=8,
        )
        result = run_training(config, EXTENDED_FACTORIES["prophet"])
        times.append(float(result.iteration_spans(0).mean()))
    assert times[1] < times[0]


def test_per_shard_trace_tracks(tiny_config):
    config = replace(tiny_config, n_servers=2, trace=True)
    result = run_training(config, EXTENDED_FACTORIES["prophet"])
    tracks = {e.track for e in result.trace.events}
    assert "ps0" in tracks and "ps1" in tracks
    # per-shard worker comm rows
    assert any(t.startswith("worker0/s0") for t in tracks)
    assert any(t.startswith("worker0/s1") for t in tracks)


def test_sharded_monitors_one_per_worker_shard(tiny_config):
    from repro.cluster.trainer import Trainer

    config = replace(tiny_config, n_servers=3)
    trainer = Trainer(config, EXTENDED_FACTORIES["prophet"])
    assert len(trainer.monitors) == config.n_workers * 3
    assert len(trainer.servers) == 3
    assert len(trainer.schedulers) == config.n_workers * 3


# ----------------------------------------------------------------------
# Rejections
# ----------------------------------------------------------------------

def test_faults_with_sharded_tier_accepted(tiny_config):
    # The old blanket rejection is gone: drops on a sharded tier run.
    from repro.faults.plan import FaultPlan, MessageDrops

    plan = FaultPlan(drops=[MessageDrops(push=0.1)])
    config = replace(tiny_config, n_servers=2, faults=plan)
    result = run_training(config, EXTENDED_FACTORIES["prophet"])
    assert result.fault_stats is not None


def test_server_crash_beyond_tier_rejected(tiny_config):
    from repro.faults.plan import FaultPlan, ServerCrash

    plan = FaultPlan(server_crashes=[ServerCrash(server=2, at=1.0, failover_after=0.2)])
    with pytest.raises(ConfigurationError, match="server 2"):
        replace(tiny_config, n_servers=2, faults=plan)


def test_more_servers_than_keys_rejected(tiny_config):
    # the tiny model has 8 gradient tensors
    config = replace(tiny_config, n_servers=9)
    with pytest.raises(ConfigurationError, match="exceeds"):
        run_training(config, EXTENDED_FACTORIES["prophet"])


def test_invalid_n_servers_rejected(tiny_config):
    with pytest.raises(ConfigurationError):
        replace(tiny_config, n_servers=0)
    with pytest.raises(ConfigurationError):
        replace(tiny_config, shard_slice_bytes=-1.0)
