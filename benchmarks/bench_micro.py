"""Micro-benchmarks of the substrate itself (engine, TCP model, GP).

These are true pytest-benchmark timing targets (many rounds) guarding the
simulator's own performance: the experiment harnesses run thousands of
events per simulated second, so regressions here multiply into every
figure regeneration.
"""

import numpy as np

from repro.bayesopt.gp import GaussianProcess
from repro.net.tcp import TCPParams, transfer_time
from repro.quantities import Gbps
from repro.sim.engine import Engine


def test_engine_event_throughput(benchmark):
    """Schedule + fire 10k chained events."""

    def run():
        eng = Engine()
        count = 0

        def tick():
            nonlocal count
            count += 1
            if count < 10_000:
                eng.schedule_after(1e-6, tick)

        eng.schedule(0.0, tick)
        eng.run()
        return count

    assert benchmark(run) == 10_000


def test_tcp_transfer_time_vectorized(benchmark):
    """Vectorized f(s, B) over 10k sizes."""
    sizes = np.logspace(2, 9, 10_000)
    params = TCPParams()
    out = benchmark(lambda: transfer_time(sizes, 3 * Gbps, params))
    assert len(out) == 10_000


def test_tcp_transfer_time_scalar_cold(benchmark):
    """Scalar fast path, cold start — the per-message hot call.

    This is the call the simulator makes for every network message;
    it must stay a table lookup plus a handful of float ops, not a
    numpy broadcast.
    """
    params = TCPParams()
    bandwidth = 3 * Gbps
    transfer_time(1e6, bandwidth, params)  # prime the memo table

    def run():
        total = 0.0
        for size in (1e3, 32e3, 1e6, 64e6):
            total += transfer_time(size, bandwidth, params)
        return total

    assert benchmark(run) > 0


def test_tcp_transfer_time_scalar_warm(benchmark):
    """Scalar fast path, warm window (slow-start rounds skipped)."""
    params = TCPParams()
    bandwidth = 3 * Gbps
    transfer_time(1e6, bandwidth, params, warm=True)

    def run():
        total = 0.0
        for size in (1e3, 32e3, 1e6, 64e6):
            total += transfer_time(size, bandwidth, params, warm=True)
        return total

    assert benchmark(run) > 0


def test_link_transfer_pump(benchmark):
    """Engine-driven back-to-back sends on one Link (4k transfers).

    End-to-end per-message cost: schedule lookup, scalar TCP time,
    in-flight bookkeeping, completion record, idle callback.
    """
    from repro.net.link import BandwidthSchedule, Link

    n_transfers = 4_000

    def run():
        eng = Engine()
        link = Link(eng, BandwidthSchedule.constant(3 * Gbps), TCPParams())
        count = 0

        def pump():
            nonlocal count
            if count < n_transfers:
                count += 1
                link.send(64_000.0, tag=("push", count))

        link.on_idle = pump
        eng.schedule(0.0, pump)
        eng.run()
        return count

    assert benchmark(run) == n_transfers


def test_sharded_link_transfer_pump(benchmark):
    """Engine-driven sends over 4 concurrent shard links (4k transfers).

    The ShardedTopology data path: each (worker, shard) link pumps its own
    stream, all interleaved through one event loop — measures how the
    per-message cost composes when the tier multiplies the link count.
    """
    from repro.net.link import BandwidthSchedule, Link

    n_links = 4
    per_link = 1_000

    def run():
        eng = Engine()
        links = [
            Link(eng, BandwidthSchedule.constant(3 * Gbps), TCPParams())
            for _ in range(n_links)
        ]
        counts = [0] * n_links

        def make_pump(idx):
            def pump():
                if counts[idx] < per_link:
                    counts[idx] += 1
                    links[idx].send(64_000.0, tag=("push", idx, counts[idx]))

            return pump

        for idx, link in enumerate(links):
            link.on_idle = make_pump(idx)
            eng.schedule(0.0, link.on_idle)
        eng.run()
        return sum(counts)

    assert benchmark(run) == n_links * per_link


def test_fleet_star_transfer_pump(benchmark):
    """64-worker star pump: every uplink streams through one event loop.

    All links start at t=0 with identical timing, so every completion
    wave lands 64 events on one timestamp, a 64-deep heap whose
    ``(time, seq)`` sifts compare list events in C.
    """
    from repro.net.link import BandwidthSchedule, Link

    n_links = 64
    per_link = 50

    def run():
        eng = Engine()
        links = [
            Link(eng, BandwidthSchedule.constant(3 * Gbps), TCPParams())
            for _ in range(n_links)
        ]
        counts = [0] * n_links

        def make_pump(idx):
            def pump():
                if counts[idx] < per_link:
                    counts[idx] += 1
                    links[idx].send(64_000.0, tag=("push", idx, counts[idx]))

            return pump

        for idx, link in enumerate(links):
            link.on_idle = make_pump(idx)
            eng.schedule(0.0, link.on_idle)
        eng.run()
        return sum(counts)

    assert benchmark(run) == n_links * per_link


def test_engine_replan_churn_50pct(benchmark):
    """Replanning churn: half of each scheduled batch is cancelled.

    A Prophet per-block replan cadence — live and tombstoned events
    interleave 1:1, stressing lazy compaction at a milder ratio than
    the 10:1 cancellation churn in bench_engine.
    """
    n_ticks = 1_000
    batch = 8

    def run():
        eng = Engine()
        count = 0

        def noop():
            pass

        def tick():
            nonlocal count
            count += 1
            if count < n_ticks:
                evs = [eng.schedule_after(5e-6, noop) for _ in range(batch)]
                for ev in evs[::2]:
                    ev.cancel()
                eng.schedule_after(1e-5, tick)

        eng.schedule(0.0, tick)
        eng.run()
        return count

    assert benchmark(run) == n_ticks


def test_hierarchical_allreduce_fleet_pump(benchmark):
    """64-worker hierarchical allreduce (8 groups of 8), 10 operations.

    Each intra-group step launches 64 same-instant chunk sends — the
    barrier shape ``send_batch`` runs in lockstep: one transfer-time
    computation, one shared log row and one drain event that calls the
    step's barrier once.
    """
    from repro.net.collective import HierarchicalExecutor, HierarchicalTopology

    n_workers = 64
    group_size = 8
    n_ops = 10
    steps_per_op = 2 * (group_size - 1) + 2 * (n_workers // group_size - 1)

    def run():
        eng = Engine()
        topo = HierarchicalTopology(
            eng, n_workers=n_workers, group_size=group_size, bandwidth=3 * Gbps
        )
        executor = HierarchicalExecutor(topo)
        count = 0

        def pump():
            nonlocal count
            if count < n_ops:
                count += 1
                executor.send_unit(1e6, tag=("allreduce", count), on_complete=pump)

        eng.schedule(0.0, pump)
        eng.run()
        return executor.steps_completed

    assert benchmark(run) == n_ops * steps_per_op


def test_ring_allreduce_step_pump(benchmark):
    """Engine-driven back-to-back ring allreduce operations (100 ops).

    The collective backend's end-to-end per-step cost: N chunk sends per
    step through the event loop, step-barrier bookkeeping, and operation
    completion — 2(N-1) steps per operation on a 4-worker ring.
    """
    from repro.net.collective import HierarchicalExecutor, RingTopology

    n_workers = 4
    n_ops = 100
    steps_per_op = 2 * (n_workers - 1)

    def run():
        eng = Engine()
        topo = RingTopology(eng, n_workers=n_workers, bandwidth=3 * Gbps)
        executor = HierarchicalExecutor(topo)
        count = 0

        def pump():
            nonlocal count
            if count < n_ops:
                count += 1
                executor.send_unit(1e6, tag=("allreduce", count), on_complete=pump)

        eng.schedule(0.0, pump)
        eng.run()
        return executor.steps_completed

    assert benchmark(run) == n_ops * steps_per_op


def test_ps_receive_push(benchmark):
    """``ParameterServer.receive_push`` under BSP: 16 workers, sliced
    gradients, one straggler a gradient behind (``ci_smoke``'s
    ``ps.pushes_per_s`` workload) — per-key release with pulls waiting."""
    from ci_smoke import PS_PUSHES, ps_push_workload

    assert benchmark(ps_push_workload) == PS_PUSHES


def test_gp_fit_predict(benchmark):
    """GP fit + predict at ByteScheduler's tuning scale (30 points)."""
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, 30)
    y = np.sin(x * 6) + 0.1 * rng.standard_normal(30)
    grid = np.linspace(0, 1, 256)

    def run():
        gp = GaussianProcess().fit(x, y)
        return gp.predict(grid)

    mean, std = benchmark(run)
    assert len(mean) == 256 and len(std) == 256


def test_full_training_simulation_rate(benchmark):
    """End-to-end: one 6-iteration tiny-cluster simulation."""
    from repro.cluster.trainer import run_training
    from repro.config import TrainingConfig
    from repro.quantities import Gbps as _Gbps
    from repro.workloads.presets import prophet_factory

    config = TrainingConfig(
        model="resnet18",
        batch_size=16,
        n_workers=2,
        n_iterations=6,
        bandwidth=2 * _Gbps,
        record_gradients=False,
    )
    result = benchmark.pedantic(
        lambda: run_training(config, prophet_factory()), rounds=3, iterations=1
    )
    assert result.training_rate(skip=1) > 0
