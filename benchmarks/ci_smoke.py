"""CI benchmark smoke test — reduced-mode scalars vs committed baselines.

Runs a cut-down Fig. 8 comparison, a chaos resilience run (crash + flap +
drops + PS stall), a collective-backend comparison (ring + hierarchical
allreduce), the chaos-collective resilience runs (elastic shrink on both
allreduce topologies plus the sharded tier), and the substrate
micro-benchmarks, and compares a handful of key scalars against
``benchmarks/baselines.json``:

* **Deterministic scalars** (simulated training rates) must match the
  baseline within a tight relative tolerance — the simulator is a seeded
  discrete-event system, so any drift here is a real behavioural change.
* **Timing scalars** (engine events/second over a plain chain and a
  cancellation-heavy churn, scalar TCP-model calls/second, engine-driven
  link transfers/second, and parameter-server pushes/second) only
  enforce a loose floor — CI runners are noisy, so we only fail on
  order-of-magnitude regressions.

The fleet-shape timing scalars (64-worker star pump, 8-shard pump,
50%-cancel replan churn, 64-worker hierarchical collective) live in
their own ``--suite engine-perf`` so the engine-perf-smoke CI job can
gate them without re-running the simulation grid; ``--suite all``
includes them too, so ``--update`` regenerates every floor at once.

The multi-tenant fleet scalars live in ``--suite fleet`` (the
fleet-smoke CI job): a mixed-strategy 6-job fleet on an oversubscribed
shared core gates its goodput, p99 iteration time, Jain fairness, and
mean queueing delay deterministically, plus a ``fleet.jobs_per_s``
timing floor for end-to-end fleet throughput.  The same suite runs the
256-job mixed-strategy fleet at the scale the fleet simulator claims, on
``run_fleet``'s default event budget, and gates its makespan, goodput,
and Jain fairness (``fleet256.*``).

Timing floors can be loosened per-runner via the ``REPRO_TIMING_SLACK``
environment variable (default ``1.0``): the effective floor is
``baseline * TIMING_FLOOR_FRACTION / REPRO_TIMING_SLACK``, so ``2.0``
halves every floor.  Set it in the CI workflow for shared runners whose
steady-state throughput sits well below the machines that recorded the
baselines; it never tightens the deterministic tolerance.

The Fig. 8 runs go through :func:`repro.runner.run_grid` with the result
cache disabled — the smoke test must gate on *fresh* simulation, and the
grid doubles as an integration check of the parallel fan-out path (CI
sets ``REPRO_JOBS=2`` / ``--jobs 2``; parallel results are bit-identical
to serial, so the baselines don't depend on the job count).

Usage::

    PYTHONPATH=src python benchmarks/ci_smoke.py           # check
    PYTHONPATH=src python benchmarks/ci_smoke.py --jobs 2  # parallel grid
    PYTHONPATH=src python benchmarks/ci_smoke.py --update  # rewrite baselines
    PYTHONPATH=src python benchmarks/ci_smoke.py --suite collective
    PYTHONPATH=src python benchmarks/ci_smoke.py --suite engine-perf
    PYTHONPATH=src python benchmarks/ci_smoke.py --report /tmp/report.json

Regenerate baselines (and commit the diff) whenever an intentional change
shifts simulation results; see EXPERIMENTS.md for the workflow.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

BASELINE_PATH = Path(__file__).resolve().parent / "baselines.json"

#: Relative tolerance for deterministic simulation scalars.
DETERMINISTIC_RTOL = 0.02
#: Timing scalars may be this much slower than baseline before failing.
TIMING_FLOOR_FRACTION = 0.15

#: Reduced Fig. 8 workloads: one compute-bound and one comm-bound point.
SMOKE_WORKLOADS = (("resnet18", 32), ("resnet50", 64))
SMOKE_ITERATIONS = 8

#: Chaos smoke: a compressed fault cocktail on the fast workload.  The
#: resilience scalars (goodput retained, recovery time) are deterministic
#: under the seed, so they gate like any other simulation scalar.
CHAOS_MODEL = ("resnet18", 64)
CHAOS_ITERATIONS = 8

#: Sharded-PS smoke: the fast workload under a PS-side NIC cap, once on
#: the single-PS star and once over a 4-way key-sharded tier.  Gates both
#: the water-filled PS cap and the sharded routing end to end.
SHARDED_MODEL = ("resnet18", 32)
SHARDED_ITERATIONS = 8
SHARDED_SERVERS = 4

#: Collective smoke: the fast workload over the allreduce backend — one
#: ring run per strategy family plus one hierarchical Prophet run.  Gates
#: the topology/scheduler split end to end (controller negotiation, ring
#: step pipelining, effective-bandwidth planning, MG-WFBP fusion).
COLLECTIVE_MODEL = ("resnet18", 32)
COLLECTIVE_ITERATIONS = 8
COLLECTIVE_WORKERS = 4
COLLECTIVE_STRATEGIES = ("mxnet-fifo", "mg-wfbp", "prophet")

#: Chaos-collective smoke: the fault cocktail on the allreduce backend
#: (ring + hierarchical) plus the sharded PS tier.  Gates the elastic
#: shrink, the straggler watchdog, and per-shard fault delivery: goodput
#: retained, recovery time and stall amplification are all deterministic
#: under the seed.
CHAOS_COLLECTIVE_MODEL = ("resnet18", 32)
CHAOS_COLLECTIVE_ITERATIONS = 8
CHAOS_COLLECTIVE_WORKERS = 4

#: Fleet smoke: a mixed-strategy multi-tenant fleet on an oversubscribed
#: shared core under the fair-share policy.  The fleet scalars (goodput,
#: tail iteration time, Jain fairness, queueing delay) are deterministic
#: under the seed; the timing floor gates end-to-end fleet throughput
#: (placement ticks + water-filled fabric re-leveling + N concurrent
#: trainers on one engine).
FLEET_SMOKE_JOBS = 6
FLEET_SMOKE_ITERATIONS = 3

#: The 256-job mixed-strategy fleet (fair share, ``FleetSpec`` defaults
#: otherwise).  It runs past the first 200,000 events, so it only
#: completes while the event budget grows with the jobs spawned.
FLEET256_JOBS = 256
FLEET256_KEYS = ("makespan_s", "goodput_samples_per_s", "jain_fairness")

#: PS aggregation microbenchmark (``ps.pushes_per_s``): 16 workers push
#: every gradient in slices under BSP, with the last worker one gradient
#: behind the rest — each of its pushes releases one slice's 16 pulls
#: from a gradient with up to 60 pulls waiting.
PS_WORKERS = 16
PS_GRADS = 24
PS_SLICES = 4
PS_ITERATIONS = 3
PS_PUSHES = PS_WORKERS * PS_GRADS * PS_SLICES * PS_ITERATIONS


def ps_push_workload() -> int:
    """Drive one BSP :class:`ParameterServer` through ``PS_PUSHES``
    single-segment pushes; returns the pull count released."""
    import numpy as np

    from repro.cluster.ps import ParameterServer
    from repro.sched.base import Segment, TransferUnit
    from repro.sim.engine import Engine

    released = [0]

    class Sink:
        def enqueue_pull(self, pull) -> None:
            released[0] += 1

    size = 1e6
    piece = size / PS_SLICES
    engine = Engine()
    ps = ParameterServer(engine, PS_WORKERS, np.full(PS_GRADS, size))
    ps.attach_workers([Sink() for _ in range(PS_WORKERS)])
    straggler = PS_WORKERS - 1

    def push_grad(worker: int, iteration: int, grad: int) -> None:
        for s in range(PS_SLICES):
            segment = Segment(grad=grad, offset=s * piece, nbytes=piece)
            ps.receive_push(worker, iteration, TransferUnit(segments=(segment,)))

    for iteration in range(PS_ITERATIONS):
        for grad in range(PS_GRADS):
            for worker in range(straggler):
                push_grad(worker, iteration, grad)
            if grad:
                push_grad(straggler, iteration, grad - 1)
        push_grad(straggler, iteration, PS_GRADS - 1)
        engine.run()
    return released[0]


def _fleet_smoke_spec():
    from repro.fleet import FleetSpec
    from repro.quantities import Gbps

    return FleetSpec(
        n_jobs=FLEET_SMOKE_JOBS,
        policy="fair",
        n_hosts=4,
        slots_per_host=2,
        core_bandwidth=10 * Gbps,
        nic_bandwidth=3 * Gbps,
        model="resnet18",
        batch_size=32,
        n_workers=2,
        n_iterations=FLEET_SMOKE_ITERATIONS,
        strategies=("prophet", "mxnet-fifo", "mg-wfbp"),
        mean_interarrival_s=0.05,
        seed=0,
    )


def _measure_fleet() -> tuple[dict[str, float], dict[str, float]]:
    """Multi-tenant fleet scalars: deterministic metrics + fleet timing."""
    from repro.fleet import FleetSpec, run_fleet

    spec = _fleet_smoke_spec()
    durations = []
    for _ in range(3):
        start = time.perf_counter()
        result = run_fleet(spec)
        durations.append(time.perf_counter() - start)
    summary = result.summary()
    deterministic = {
        "fleet.goodput_samples_per_s": summary["goodput_samples_per_s"],
        "fleet.p99_iteration_s": summary["p99_iteration_s"],
        "fleet.jain_fairness": summary["jain_fairness"],
        "fleet.mean_queueing_delay_s": summary["mean_queueing_delay_s"],
    }
    timing = {"fleet.jobs_per_s": FLEET_SMOKE_JOBS / min(durations[1:])}
    big = run_fleet(
        FleetSpec(
            n_jobs=FLEET256_JOBS,
            policy="fair",
            strategies=("prophet", "mxnet-fifo", "mg-wfbp"),
        )
    ).summary()
    for key in FLEET256_KEYS:
        deterministic[f"fleet256.{key}"] = big[key]
    return deterministic, timing


def _measure_chaos_collective() -> tuple[dict[str, float], dict[str, float]]:
    """Resilience scalars beyond the single-PS star (no timing scalars)."""
    from repro.experiments import chaos
    from repro.workloads.presets import STRATEGY_FACTORIES

    deterministic: dict[str, float] = {}
    model, batch = CHAOS_COLLECTIVE_MODEL
    allreduce_plan = chaos.default_plan(
        crash_at=1.0,
        restart_after=0.3,
        flap_at=2.0,
        flap_duration=0.5,
        backend="allreduce",
    )
    for collective, strategies in (
        ("ring", ("prophet", "mxnet-fifo")),
        ("hierarchical", ("prophet",)),
    ):
        res = chaos.run(
            model=model,
            batch_size=batch,
            n_iterations=CHAOS_COLLECTIVE_ITERATIONS,
            seed=0,
            plan=allreduce_plan,
            strategies={s: STRATEGY_FACTORIES[s] for s in strategies},
            backend="allreduce",
            collective=collective,
            group_size=2,
            n_workers=CHAOS_COLLECTIVE_WORKERS,
        )
        for s in strategies:
            key = f"chaos.{collective}.{s}"
            deterministic[f"{key}.goodput_retained"] = res.goodput_retained[s]
            deterministic[f"{key}.recovery_s"] = res.recovery_time[s]
            deterministic[f"{key}.stall_amplification"] = (
                res.stall_amplification[s]
            )

    sharded_res = chaos.run(
        model=model,
        batch_size=batch,
        n_iterations=CHAOS_COLLECTIVE_ITERATIONS,
        seed=0,
        plan=chaos.default_plan(
            crash_at=1.0,
            restart_after=0.3,
            flap_at=2.0,
            flap_duration=0.5,
            stall_at=3.0,
            stall_duration=0.2,
        ),
        strategies={"prophet": STRATEGY_FACTORIES["prophet"]},
        n_servers=2,
    )
    deterministic["chaos.sharded.prophet.goodput_retained"] = (
        sharded_res.goodput_retained["prophet"]
    )
    deterministic["chaos.sharded.prophet.recovery_s"] = (
        sharded_res.recovery_time["prophet"]
    )
    return deterministic, {}


def _measure_collective() -> tuple[dict[str, float], dict[str, float]]:
    """Collective-backend scalars: deterministic rates + ring-step timing."""
    from repro.agg.fusion import MGWFBPFusionPolicy
    from repro.cluster.trainer import run_training
    from repro.net.collective import HierarchicalExecutor, RingTopology
    from repro.quantities import Gbps
    from repro.sim.engine import Engine
    from repro.workloads.presets import EXTENDED_FACTORIES, PAPER_TCP, paper_config

    deterministic: dict[str, float] = {}
    model, batch = COLLECTIVE_MODEL
    n = COLLECTIVE_WORKERS
    bandwidth = 3 * Gbps
    ring_factor = 2.0 * (n - 1) / n
    fusion = MGWFBPFusionPolicy(tcp=PAPER_TCP, bandwidth=bandwidth / ring_factor)

    for collective, strategies in (
        ("ring", COLLECTIVE_STRATEGIES),
        ("hierarchical", ("prophet",)),
    ):
        for strategy in strategies:
            overrides = {"agg_policy": fusion} if strategy == "mg-wfbp" else {}
            config = paper_config(
                model,
                batch,
                bandwidth=bandwidth,
                n_workers=n,
                n_iterations=COLLECTIVE_ITERATIONS,
                seed=0,
                record_gradients=False,
                backend="allreduce",
                collective=collective,
                collective_group_size=2,
                **overrides,
            )
            rate = run_training(
                config, EXTENDED_FACTORIES[strategy]
            ).training_rate()
            deterministic[
                f"collective.{model}.bs{batch}.{collective}.{strategy}_rate"
            ] = rate

    # Ring-step throughput: back-to-back allreduce operations through the
    # step executor — the collective backend's end-to-end per-step cost
    # (N chunk sends per step through the event loop, barrier bookkeeping,
    # op completion).  2(N-1) steps per operation.
    n_ops = 400
    steps_per_op = 2 * (n - 1)

    def ring_ops() -> int:
        eng = Engine()
        topo = RingTopology(eng, n_workers=n, bandwidth=bandwidth)
        executor = HierarchicalExecutor(topo)
        count = 0

        def pump() -> None:
            nonlocal count
            if count < n_ops:
                count += 1
                executor.send_unit(1e6, tag=("allreduce", count), on_complete=pump)

        eng.schedule(0.0, pump)
        eng.run()
        return executor.steps_completed

    total_steps = ring_ops()  # warmup (also validates the step count)
    assert total_steps == n_ops * steps_per_op, total_steps
    best = min(_timed(ring_ops) for _ in range(3))
    timing = {"collective.ring_steps_per_s": n_ops * steps_per_op / best}
    return deterministic, timing


#: Fleet-shape workloads for the engine-perf suite: sized so the whole
#: suite stays under ~10 s on a CI runner while each shape still runs
#: long enough for min-of-3 timing to be stable.
FLEET_STAR_LINKS = 64
FLEET_STAR_TRANSFERS = 6_400  # 100 per uplink
FLEET_SHARD_LINKS = 8
FLEET_SHARD_TRANSFERS = 10_000
CHURN50_TICKS = 4_000
CHURN50_BATCH = 8
FLEET_HIER_WORKERS = 64
FLEET_HIER_GROUP = 8
FLEET_HIER_OPS = 40


def _measure_engine_perf() -> tuple[dict[str, float], dict[str, float]]:
    """Fleet-shape timing scalars (no deterministic scalars).

    These are the shapes the list-event engine and the batched
    same-timestamp pumps were built for: many identical links landing
    their completion waves on the same instant, and replanning churn
    interleaving live and tombstoned events 1:1.
    """
    from repro.net.collective import HierarchicalExecutor, HierarchicalTopology
    from repro.net.link import BandwidthSchedule, Link
    from repro.net.tcp import TCPParams
    from repro.quantities import Gbps
    from repro.sim.engine import Engine

    params = TCPParams()
    bandwidth = 3 * Gbps
    timing: dict[str, float] = {}

    # 64-worker star pump: every uplink of a 64-worker star pumps
    # back-to-back sends through the shared event loop.  All links start
    # at t=0 with identical timing, so every completion wave lands 64
    # events on one timestamp, which the heap orders by sequence number.
    def fleet_star_transfers() -> None:
        eng = Engine()
        links = [
            Link(eng, BandwidthSchedule.constant(bandwidth), params)
            for _ in range(FLEET_STAR_LINKS)
        ]
        counts = [0] * FLEET_STAR_LINKS
        per_link = FLEET_STAR_TRANSFERS // FLEET_STAR_LINKS

        def make_pump(idx: int):
            def pump() -> None:
                if counts[idx] < per_link:
                    counts[idx] += 1
                    links[idx].send(64_000.0, tag=("push", idx, counts[idx]))

            return pump

        for idx, link in enumerate(links):
            link.on_idle = make_pump(idx)
            eng.schedule(0.0, link.on_idle)
        eng.run()

    fleet_star_transfers()  # warmup
    best = min(_timed(fleet_star_transfers) for _ in range(3))
    timing["sim.fleet_star_transfers_per_s"] = FLEET_STAR_TRANSFERS / best

    # 8-shard pump: the ShardedTopology data-path shape at fleet shard
    # count — per-(worker, shard) streams interleaved in one loop.
    def fleet_shard_transfers() -> None:
        eng = Engine()
        links = [
            Link(eng, BandwidthSchedule.constant(bandwidth), params)
            for _ in range(FLEET_SHARD_LINKS)
        ]
        counts = [0] * FLEET_SHARD_LINKS
        per_link = FLEET_SHARD_TRANSFERS // FLEET_SHARD_LINKS

        def make_pump(idx: int):
            def pump() -> None:
                if counts[idx] < per_link:
                    counts[idx] += 1
                    links[idx].send(64_000.0, tag=("push", idx, counts[idx]))

            return pump

        for idx, link in enumerate(links):
            link.on_idle = make_pump(idx)
            eng.schedule(0.0, link.on_idle)
        eng.run()

    fleet_shard_transfers()  # warmup
    best = min(_timed(fleet_shard_transfers) for _ in range(3))
    timing["sim.fleet_shard_transfers_per_s"] = FLEET_SHARD_TRANSFERS / best

    # Replanning churn: every tick schedules a batch of future events
    # and cancels exactly half before they fire (a Prophet per-block
    # replan cadence), so live and tombstoned events interleave 1:1 —
    # the lazy-compaction worst case short of the 10:1 churn suite.
    churn50_ops = CHURN50_TICKS * (CHURN50_BATCH + 1)

    def churn50() -> None:
        eng = Engine()
        count = 0

        def noop() -> None:
            pass

        def tick() -> None:
            nonlocal count
            count += 1
            if count < CHURN50_TICKS:
                evs = [
                    eng.schedule_after(5e-6, noop) for _ in range(CHURN50_BATCH)
                ]
                for ev in evs[::2]:
                    ev.cancel()
                eng.schedule_after(1e-5, tick)

        eng.schedule(0.0, tick)
        eng.run()

    churn50()  # warmup
    best = min(_timed(churn50) for _ in range(3))
    timing["engine.churn50_events_per_s"] = churn50_ops / best

    # Hierarchical ring at fleet scale: 64 workers in 8 groups of 8.
    # Each intra-group step launches 64 same-instant chunk sends — the
    # barrier shape send_batch runs in lockstep: one transfer-time
    # computation, one shared log row and one drain event that calls the
    # step's barrier once.
    hier_steps_per_op = 2 * (FLEET_HIER_GROUP - 1) + 2 * (
        FLEET_HIER_WORKERS // FLEET_HIER_GROUP - 1
    )

    def hier_ops() -> int:
        eng = Engine()
        topo = HierarchicalTopology(
            eng,
            n_workers=FLEET_HIER_WORKERS,
            group_size=FLEET_HIER_GROUP,
            bandwidth=bandwidth,
        )
        executor = HierarchicalExecutor(topo)
        count = 0

        def pump() -> None:
            nonlocal count
            if count < FLEET_HIER_OPS:
                count += 1
                executor.send_unit(1e6, tag=("allreduce", count), on_complete=pump)

        eng.schedule(0.0, pump)
        eng.run()
        return executor.steps_completed

    total_steps = hier_ops()  # warmup (also validates the step count)
    assert total_steps == FLEET_HIER_OPS * hier_steps_per_op, total_steps
    best = min(_timed(hier_ops) for _ in range(3))
    timing["collective.fleet_hier_steps_per_s"] = (
        FLEET_HIER_OPS * hier_steps_per_op / best
    )
    return {}, timing


def measure(
    jobs: int | None = None, suite: str = "all"
) -> tuple[dict[str, float], dict[str, float]]:
    """Return (deterministic scalars, timing scalars) for ``suite``."""
    if suite == "collective":
        return _measure_collective()
    if suite == "chaos-collective":
        return _measure_chaos_collective()
    if suite == "engine-perf":
        return _measure_engine_perf()
    if suite == "fleet":
        return _measure_fleet()

    from repro.experiments import fig8
    from repro.quantities import Gbps
    from repro.sim.engine import Engine

    deterministic: dict[str, float] = {}

    # cache=False: the smoke test gates on fresh simulation, never on a
    # stale cache entry from an earlier revision.
    rows = fig8.run(
        workloads=SMOKE_WORKLOADS,
        bandwidth=3 * Gbps,
        n_iterations=SMOKE_ITERATIONS,
        seed=0,
        jobs=jobs,
        cache=False,
    )
    for row in rows:
        key = f"fig8.{row.config.model}.bs{row.config.batch_size}"
        deterministic[f"{key}.prophet_rate"] = row.rates["prophet"]
        deterministic[f"{key}.bytescheduler_rate"] = row.rates["bytescheduler"]

    from repro.experiments import chaos

    model, batch = CHAOS_MODEL
    chaos_res = chaos.run(
        model=model,
        batch_size=batch,
        n_iterations=CHAOS_ITERATIONS,
        seed=0,
        plan=chaos.default_plan(
            crash_at=1.0,
            restart_after=0.3,
            flap_at=2.0,
            flap_duration=0.5,
            stall_at=3.0,
            stall_duration=0.2,
        ),
    )
    for name in sorted(chaos_res.goodput_retained):
        deterministic[f"chaos.{name}.goodput_retained"] = (
            chaos_res.goodput_retained[name]
        )
        deterministic[f"chaos.{name}.recovery_s"] = chaos_res.recovery_time[name]

    from repro.cluster.trainer import run_training
    from repro.workloads.presets import EXTENDED_FACTORIES, paper_config

    model, batch = SHARDED_MODEL
    for n_servers in (1, SHARDED_SERVERS):
        sharded_config = paper_config(
            model,
            batch,
            bandwidth=10 * Gbps,
            n_iterations=SHARDED_ITERATIONS,
            seed=0,
            record_gradients=False,
            ps_bandwidth=3 * Gbps,
            n_servers=n_servers,
        )
        rate = run_training(
            sharded_config, EXTENDED_FACTORIES["prophet"]
        ).training_rate()
        deterministic[
            f"scalability.{model}.bs{batch}.s{n_servers}.prophet_rate"
        ] = rate

    timing: dict[str, float] = {}
    n_events = 50_000

    def chain() -> None:
        eng = Engine()
        count = 0

        def tick() -> None:
            nonlocal count
            count += 1
            if count < n_events:
                eng.schedule_after(1e-6, tick)

        eng.schedule(0.0, tick)
        eng.run()

    chain()  # warmup
    best = min(_timed(chain) for _ in range(3))
    timing["engine.events_per_s"] = n_events / best

    # Cancellation-heavy churn: every tick cancels its predecessor batch,
    # so ~10/11 of all scheduled events die as tombstones.  Guards the
    # lazy-compaction path — without it this workload's heap (and its
    # per-pop cost) grows with the cancel count instead of staying flat.
    n_ticks = 4_000
    batch = 10
    churn_ops = n_ticks * (batch + 1)

    def churn() -> None:
        eng = Engine()
        count = 0
        pending: list = []

        def noop() -> None:
            pass

        def tick() -> None:
            nonlocal count
            count += 1
            for ev in pending:
                ev.cancel()
            pending.clear()
            if count < n_ticks:
                for _ in range(batch):
                    pending.append(eng.schedule_after(1.0, noop))
                eng.schedule_after(1e-6, tick)

        eng.schedule(0.0, tick)
        eng.run()

    churn()  # warmup
    best = min(_timed(churn) for _ in range(3))
    timing["engine.cancel_events_per_s"] = churn_ops / best

    # Scalar TCP-model throughput: the per-message hot call.  Guards the
    # memoized slow-start fast path — falling back to the numpy loop is
    # a >10x regression here.
    from repro.net.tcp import TCPParams, transfer_time
    from repro.quantities import Gbps as _Gbps

    params = TCPParams()
    bandwidth = 3 * _Gbps
    tcp_sizes = (1e3, 32e3, 1e6, 64e6)
    n_tcp_reps = 25_000
    n_tcp_calls = n_tcp_reps * len(tcp_sizes)

    def tcp_calls() -> None:
        for _ in range(n_tcp_reps):
            for size in tcp_sizes:
                transfer_time(size, bandwidth, params)

    tcp_calls()  # warmup (also primes the memo table)
    best = min(_timed(tcp_calls) for _ in range(3))
    timing["tcp.transfer_time_calls_per_s"] = n_tcp_calls / best

    # Engine-driven transfers: back-to-back sends on one Link, completing
    # through the event loop.  End-to-end per-message cost (schedule
    # lookup, scalar TCP time, in-flight bookkeeping, record, idle
    # callback) — the composite the simulator pays per network message.
    from repro.net.link import BandwidthSchedule, Link

    n_transfers = 10_000

    def transfers() -> None:
        eng = Engine()
        link = Link(eng, BandwidthSchedule.constant(bandwidth), params)
        count = 0

        def pump() -> None:
            nonlocal count
            if count < n_transfers:
                count += 1
                link.send(64_000.0, tag=("push", count))

        link.on_idle = pump
        eng.schedule(0.0, pump)
        eng.run()

    transfers()  # warmup
    best = min(_timed(transfers) for _ in range(3))
    timing["sim.transfers_per_s"] = n_transfers / best

    # PS aggregation: BSP receive_push with per-key pull release.
    released = ps_push_workload()  # warmup (also validates every release)
    assert released == PS_PUSHES, released
    best = min(_timed(ps_push_workload) for _ in range(3))
    timing["ps.pushes_per_s"] = PS_PUSHES / best

    # Multi-shard pump: the same end-to-end per-message cost over 4
    # concurrent shard links (the ShardedTopology data path) — each link
    # pumps its own stream through the shared event loop.
    n_shard_links = 4
    n_shard_transfers = 10_000  # total across the tier

    def sharded_transfers() -> None:
        eng = Engine()
        links = [
            Link(eng, BandwidthSchedule.constant(bandwidth), params)
            for _ in range(n_shard_links)
        ]
        counts = [0] * n_shard_links
        per_link = n_shard_transfers // n_shard_links

        def make_pump(idx: int):
            def pump() -> None:
                if counts[idx] < per_link:
                    counts[idx] += 1
                    links[idx].send(64_000.0, tag=("push", idx, counts[idx]))

            return pump

        for idx, link in enumerate(links):
            link.on_idle = make_pump(idx)
            eng.schedule(0.0, link.on_idle)
        eng.run()

    sharded_transfers()  # warmup
    best = min(_timed(sharded_transfers) for _ in range(3))
    timing["sim.sharded_transfers_per_s"] = n_shard_transfers / best

    collective_det, collective_timing = _measure_collective()
    deterministic.update(collective_det)
    timing.update(collective_timing)

    chaos_collective_det, _ = _measure_chaos_collective()
    deterministic.update(chaos_collective_det)

    perf_det, perf_timing = _measure_engine_perf()
    deterministic.update(perf_det)
    timing.update(perf_timing)

    fleet_det, fleet_timing = _measure_fleet()
    deterministic.update(fleet_det)
    timing.update(fleet_timing)

    return deterministic, timing


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def compare(
    baseline: dict[str, dict[str, float]],
    deterministic: dict[str, float],
    timing: dict[str, float],
    complete: bool = True,
) -> list[str]:
    """Return a list of human-readable failures (empty == pass).

    ``complete=False`` (a partial ``--suite``) skips the check that every
    baseline key was measured — only the measured subset gates.
    """
    failures: list[str] = []

    base_det = baseline.get("deterministic", {})
    for key, value in deterministic.items():
        if key not in base_det:
            failures.append(f"{key}: no baseline (run with --update)")
            continue
        ref = base_det[key]
        rel = abs(value - ref) / abs(ref) if ref else abs(value)
        status = "ok" if rel <= DETERMINISTIC_RTOL else "FAIL"
        print(f"  {status:4s} {key}: {value:.3f} vs baseline {ref:.3f} "
              f"({rel * 100:+.2f}%)")
        if rel > DETERMINISTIC_RTOL:
            failures.append(
                f"{key}: {value:.3f} deviates {rel * 100:.2f}% from "
                f"baseline {ref:.3f} (tolerance {DETERMINISTIC_RTOL * 100:.0f}%)"
            )
    if complete:
        for key in base_det:
            if key not in deterministic:
                failures.append(f"{key}: in baseline but not measured")

    base_timing = baseline.get("timing", {})
    slack = float(os.environ.get("REPRO_TIMING_SLACK", "1.0"))
    if slack <= 0:
        raise ValueError(f"REPRO_TIMING_SLACK must be positive, got {slack}")
    for key, value in timing.items():
        if key not in base_timing:
            failures.append(f"{key}: no baseline (run with --update)")
            continue
        ref = base_timing[key]
        floor = ref * TIMING_FLOOR_FRACTION / slack
        status = "ok" if value >= floor else "FAIL"
        print(f"  {status:4s} {key}: {value:,.0f} vs baseline {ref:,.0f} "
              f"(floor {floor:,.0f})")
        if value < floor:
            slack_note = f" (slack {slack:g})" if slack != 1.0 else ""
            failures.append(
                f"{key}: {value:,.0f} is below {TIMING_FLOOR_FRACTION:.0%} "
                f"of baseline {ref:,.0f}{slack_note}"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite baselines.json with freshly measured scalars",
    )
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="parallel processes for the fig8 grid (default: REPRO_JOBS "
        "or serial); results are identical either way",
    )
    parser.add_argument(
        "--suite", default="all",
        choices=("all", "collective", "chaos-collective", "engine-perf", "fleet"),
        help="'all' (default) measures everything; 'collective' gates "
        "only the allreduce-backend scalars (the allreduce-smoke CI "
        "job); 'chaos-collective' gates only the resilience scalars "
        "beyond the single-PS star (the chaos-collective-smoke CI job); "
        "'engine-perf' gates only the fleet-shape timing floors (the "
        "engine-perf-smoke CI job); 'fleet' gates only the multi-tenant "
        "fleet scalars (the fleet-smoke CI job)",
    )
    parser.add_argument(
        "--report",
        metavar="OUT.json",
        help="also write the measured scalars and failures as JSON here "
        "(uploaded as a CI artifact on failure)",
    )
    args = parser.parse_args(argv)

    if args.update and args.suite != "all":
        print("error: --update requires --suite all", file=sys.stderr)
        return 2

    jobs_note = args.jobs if args.jobs is not None else "REPRO_JOBS/serial"
    print(f"measuring smoke scalars (suite={args.suite}, jobs={jobs_note})...")
    deterministic, timing = measure(jobs=args.jobs, suite=args.suite)

    if args.update:
        payload = {
            "_comment": (
                "CI benchmark-smoke baselines. Regenerate with "
                "`PYTHONPATH=src python benchmarks/ci_smoke.py --update` "
                "and commit the diff when a change intentionally shifts "
                "simulation results."
            ),
            "deterministic": {k: round(v, 6) for k, v in sorted(deterministic.items())},
            "timing": {k: round(v, 1) for k, v in sorted(timing.items())},
        }
        BASELINE_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"baselines written to {BASELINE_PATH}")
        return 0

    if not BASELINE_PATH.exists():
        print(f"error: {BASELINE_PATH} missing; run with --update", file=sys.stderr)
        return 2
    baseline = json.loads(BASELINE_PATH.read_text())

    failures = compare(
        baseline, deterministic, timing, complete=args.suite == "all"
    )
    if args.report:
        report = {
            "suite": args.suite,
            "deterministic": {k: v for k, v in sorted(deterministic.items())},
            "timing": {k: v for k, v in sorted(timing.items())},
            "failures": failures,
        }
        Path(args.report).write_text(json.dumps(report, indent=2) + "\n")
        print(f"report written to {args.report}")
    if failures:
        print(f"\nbenchmark smoke FAILED ({len(failures)} regressions):",
              file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nbenchmark smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
