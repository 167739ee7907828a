"""Trainer: wires config + scheduler factory into a running simulation.

Build order mirrors the real deployment: model → compute profile → KV
store (generation schedule) → network topology → parameter server →
workers (each with its own scheduler instance and bandwidth monitor).  The
same :class:`~repro.agg.kvstore.GenerationSchedule` template is shared by
all workers (identical model/device), individualized per iteration by each
worker's jitter factor — so scheduler comparisons under the same seed are
paired.
"""

from __future__ import annotations

from typing import Callable

from repro.agg.kvstore import KVStore
from repro.cluster.collective import (
    CollectiveController,
    CollectiveWorker,
    EffectiveBandwidthView,
)
from repro.cluster.ps import ParameterServer
from repro.cluster.result import TrainingResult
from repro.cluster.sharding import (
    assign_shards,
    restrict_generation_schedule,
)
from repro.cluster.worker import Worker
from repro.config import SchedulerFactory, TrainingConfig, WorkerContext
from repro.core.profiler import JobProfile
from repro.errors import ConfigurationError, SimulationError
from repro.faults.injector import FaultInjector
from repro.metrics.timeline import Recorder
from repro.models.compute import build_compute_profile
from repro.models.registry import get_model
from repro.net.collective import (
    HierarchicalExecutor,
    HierarchicalTopology,
    RingExecutor,
    RingTopology,
)
from repro.net.monitor import BandwidthMonitor
from repro.net.topology import ShardedTopology, StarTopology
from repro.sim.engine import Engine
from repro.sim.fastforward import FastForwardDetector, fastforward_eligibility
from repro.sim.rng import spawn_rng
from repro.trace.recorder import NULL_RECORDER, NullRecorder, TraceRecorder

__all__ = ["Trainer", "run_training"]


class Trainer:
    """One simulated training run.

    ``engine`` attaches the trainer to an externally owned engine instead
    of creating its own — the fleet simulator places many jobs on one
    shared engine this way.  An attached trainer is *driven*, not run:
    the owner calls :meth:`start`, pumps the shared engine itself, and
    collects the job's :class:`TrainingResult` via :meth:`finalize` once
    ``on_finished`` fires (all workers done).  :meth:`run` remains the
    single-job path and refuses to pump an engine it does not own.
    """

    def __init__(
        self,
        config: TrainingConfig,
        scheduler_factory: SchedulerFactory,
        *,
        engine: Engine | None = None,
        name: str = "",
        on_finished: "Callable[[Trainer], None] | None" = None,
    ):
        self.config = config
        self.name = name
        self.on_finished = on_finished
        self.finished_time: float | None = None
        self._external_engine = engine is not None
        if engine is None:
            self.engine = Engine(time_quantum=config.time_quantum)
            if config.trace:
                self.trace: TraceRecorder | NullRecorder = TraceRecorder(
                    clock=lambda: self.engine.now
                )
            else:
                self.trace = NULL_RECORDER
            self.engine.trace = self.trace
        else:
            if (
                config.time_quantum is not None
                and engine.time_quantum != config.time_quantum
            ):
                raise ConfigurationError(
                    f"job time_quantum {config.time_quantum!r} does not match "
                    f"the shared engine's {engine.time_quantum!r}"
                )
            self.engine = engine
            self.trace = engine.trace
        self.recorder = Recorder(
            record_gradients=config.record_gradients, trace=self.trace
        )

        model = get_model(config.model)
        self.compute = build_compute_profile(model, config.device, config.batch_size)
        kvstore = KVStore(
            policy=config.effective_policy(),
            flush_fixed=config.kv_flush_fixed,
            flush_per_byte=config.kv_flush_per_byte,
        )
        self.gen_schedule = kvstore.generation_schedule(self.compute)
        self.oracle_profile = JobProfile.from_generation_schedule(self.gen_schedule)

        self.monitors: list[BandwidthMonitor] = []
        self.workers: list[Worker] = []
        self.schedulers = []
        self.injector: FaultInjector | None = None
        self._done_count = 0
        if config.backend == "allreduce":
            self._build_collective(scheduler_factory)
        else:
            self._build_ps(scheduler_factory)
        if config.time_quantum is not None:
            # Strategy-side durations (Prophet's flush offsets) join the
            # engine's delay grid, keeping iteration cycles exactly
            # translation-invariant in time.
            for scheduler in self.schedulers:
                scheduler.set_time_quantum(config.time_quantum)
        self._install_fastforward()

    # ------------------------------------------------------------------
    def _all_links(self) -> list:
        """Every link the built topology materialized, in construction
        order (the order doubles as the links' fast-forward identity)."""
        topology = self.topology
        links: list = []
        for attr in ("uplinks", "downlinks", "links", "local_links", "global_links"):
            group = getattr(topology, attr, None)
            if not group:
                continue
            for item in group:
                if isinstance(item, list):
                    links.extend(item)
                else:
                    links.append(item)
        return links

    def _install_fastforward(self) -> None:
        """Install the steady-state fast-forward detector on eligible runs.

        Ineligible runs (no time quantum, faults, jitter, noise, dynamic
        bandwidth, non-BSP sync, opted-out schedulers, or the
        ``REPRO_NO_FASTFORWARD`` kill-switch) get no detector and are
        bit-identical to builds that predate it.
        """
        links = self._all_links()
        eligible, reason = fastforward_eligibility(
            self.config, self.schedulers, links, self.injector, self.engine
        )
        self.fastforward_reason = reason
        self.fastforward: FastForwardDetector | None = None
        if not eligible:
            return
        self.fastforward = FastForwardDetector(
            self.engine,
            workers=self.workers,
            schedulers=self.schedulers,
            links=links,
            servers=self.servers,
            recorder=self.recorder,
            monitors=self.monitors,
            n_workers=self.config.n_workers,
            n_iterations=self.config.n_iterations,
            controller=getattr(self, "controller", None),
            executor=getattr(self, "executor", None),
        )

    # ------------------------------------------------------------------
    def _make_injector(self) -> None:
        """Instantiate the fault injector iff the plan injects anything.

        Only a non-empty plan creates any fault machinery — with
        ``self.injector`` left ``None`` every fault branch in the workers,
        ports, PSs, executors, and controller stays on the ``is None``
        fast path and the event sequence is bit-identical to a fault-free
        build, on every backend.
        """
        plan = self.config.faults
        if plan is not None and not plan.is_empty:
            self.injector = FaultInjector(
                self.engine,
                plan,
                n_workers=self.config.n_workers,
                rng=spawn_rng(self.config.seed, "faults"),
            )

    def _build_ps(self, scheduler_factory: SchedulerFactory) -> None:
        """The PS tier: the paper's star (``n_servers=1``) or the
        BytePS-style tier of ``n_servers`` key-sharded PSs.

        Per worker and server: a dedicated duplex link pair, a bandwidth
        monitor on the uplink, and an independent scheduler instance over
        the server's locally re-indexed generation schedule (its own RNG
        stream, ``("sched", worker, shard)``).  Each PS holds its shard's
        piece sizes and attaches the workers' ports.  The star is the
        one-port case with its own identity: PS ``ps``, RNG stream
        ``("sched", worker)``, the worker's undivided gradients (slicing
        only applies to a sharded tier), and worker-level trace tracks.
        """
        config = self.config
        n_shards = config.n_servers
        star = n_shards == 1
        links = dict(
            n_workers=config.n_workers,
            bandwidth=config.bandwidth,
            tcp=config.tcp,
            worker_bandwidth=config.worker_bandwidth,
            ps_bandwidth=config.ps_bandwidth,
            seed=config.seed,
            noise_std=config.bandwidth_noise_std,
        )
        if star:
            self.topology = StarTopology(self.engine, **links)
            self.assignment = assign_shards(self.gen_schedule.sizes, 1)
            templates = [self.gen_schedule]
            profiles = [self.oracle_profile]
        else:
            self.topology = ShardedTopology(self.engine, n_servers=n_shards, **links)
            self.assignment = assign_shards(
                self.gen_schedule.sizes, n_shards, config.shard_slice_bytes
            )
            templates = [
                restrict_generation_schedule(self.gen_schedule, self.assignment, s)
                for s in range(n_shards)
            ]
            profiles = [JobProfile.from_generation_schedule(t) for t in templates]
        self._make_injector()
        self.servers = [
            ParameterServer(
                self.engine,
                n_workers=config.n_workers,
                sizes=templates[s].sizes,
                update_fixed=config.ps_update_fixed,
                update_per_byte=config.ps_update_per_byte,
                sync_mode=config.sync_mode,
                staleness=config.ssp_staleness,
                faults=self.injector,
                name="ps" if star else f"ps{s}",
                server_index=None if star else s,
            )
            for s in range(n_shards)
        ]
        self.ps = self.servers[0]

        compute_scale = dict(config.worker_compute_scale or {})
        for w in range(config.n_workers):
            # Each worker's oracle profile reflects *its own* compute pace
            # (the real profiler runs per worker) — a compute straggler's
            # generation times are proportionally later.
            scale = compute_scale.get(w, 1.0)
            uplinks = self.topology.worker_uplinks(w)
            schedulers: list = []
            for s in range(n_shards):
                monitor = BandwidthMonitor(
                    self.engine, uplinks[s], interval=config.monitor_interval
                )
                self.monitors.append(monitor)
                profile = profiles[s]
                if scale != 1.0:
                    profile = JobProfile(
                        c=profile.c * scale, sizes=profile.sizes, iterations=0
                    )
                stream = ("sched", w) if star else ("sched", w, s)
                ctx = WorkerContext(
                    worker_id=w,
                    monitor=monitor,
                    oracle_profile=profile,
                    tcp=config.tcp,
                    rng=spawn_rng(config.seed, *stream),
                    engine=self.engine,
                )
                schedulers.append(scheduler_factory(ctx))
            self.schedulers.extend(schedulers)
            worker = Worker(
                engine=self.engine,
                worker_id=w,
                compute=self.compute,
                gen_schedule=self.gen_schedule,
                assignment=self.assignment,
                shard_schedules=templates,
                schedulers=schedulers,
                channels=uplinks,
                downlinks=(
                    self.topology.worker_downlinks(w) if config.duplex else None
                ),
                servers=self.servers,
                recorder=self.recorder,
                n_iterations=config.n_iterations,
                jitter_rng=spawn_rng(config.seed, "jitter", w),
                jitter_std=config.jitter_std,
                compute_scale=scale,
                on_done=self._worker_done,
                stall_timeout=config.sched.stall_timeout,
                faults=self.injector,
            )
            self.workers.append(worker)
        for s, ps in enumerate(self.servers):
            ps.attach_workers([worker.port(s) for worker in self.workers])
        if self.injector is not None:
            # A flapped worker degrades on every uplink at once (its NIC,
            # not one flow, is what the fault models).
            self.injector.install(
                self.workers,
                {
                    w: self.topology.worker_uplinks(w)
                    for w in range(config.n_workers)
                },
                servers=self.servers,
            )

    def _build_collective(self, scheduler_factory: SchedulerFactory) -> None:
        """The allreduce tier: a collective topology, one executor, and a
        single negotiated scheduler instance (see
        :mod:`repro.cluster.collective`).

        The scheduler factory gets worker 0's context with a bandwidth
        view scaled by the collective's per-byte cost, so strategies that
        plan from a bandwidth estimate (Prophet) predict operation times
        on the ring as accurately as they predict PS pushes.
        """
        config = self.config
        if config.collective == "hierarchical":
            self.topology = HierarchicalTopology(
                self.engine,
                n_workers=config.n_workers,
                group_size=config.collective_group_size,
                bandwidth=config.bandwidth,
                tcp=config.tcp,
                worker_bandwidth=config.worker_bandwidth,
                seed=config.seed,
                noise_std=config.bandwidth_noise_std,
            )
            self.executor = HierarchicalExecutor(self.topology)
            monitor_link = self.topology.local_links[0]
        else:
            self.topology = RingTopology(
                self.engine,
                n_workers=config.n_workers,
                bandwidth=config.bandwidth,
                tcp=config.tcp,
                worker_bandwidth=config.worker_bandwidth,
                seed=config.seed,
                noise_std=config.bandwidth_noise_std,
            )
            self.executor = RingExecutor(self.topology)
            monitor_link = self.topology.links[0]
        self.ps = None
        self.servers = []
        self._make_injector()
        if self.injector is not None:
            self.executor.set_faults(self.injector)

        monitor = BandwidthMonitor(
            self.engine, monitor_link, interval=config.monitor_interval
        )
        self.monitors.append(monitor)
        view = EffectiveBandwidthView(monitor, self.executor.efficiency_factor)
        ctx = WorkerContext(
            worker_id=0,
            monitor=view,
            oracle_profile=self.oracle_profile,
            tcp=config.tcp,
            rng=spawn_rng(config.seed, "sched", 0),
            engine=self.engine,
        )
        scheduler = scheduler_factory(ctx)
        self.schedulers.append(scheduler)
        self.controller = CollectiveController(
            self.engine,
            scheduler,
            self.executor,
            self.recorder,
            n_workers=config.n_workers,
            stall_timeout=config.sched.stall_timeout,
            faults=self.injector,
            view=view,
        )

        compute_scale = dict(config.worker_compute_scale or {})
        for w in range(config.n_workers):
            worker = CollectiveWorker(
                engine=self.engine,
                worker_id=w,
                compute=self.compute,
                gen_schedule=self.gen_schedule,
                controller=self.controller,
                recorder=self.recorder,
                n_iterations=config.n_iterations,
                jitter_rng=spawn_rng(config.seed, "jitter", w),
                jitter_std=config.jitter_std,
                compute_scale=compute_scale.get(w, 1.0),
                on_done=self._worker_done,
                faults=self.injector,
            )
            self.workers.append(worker)
        self.controller.attach_workers(self.workers)
        if self.injector is not None:
            # A flapped worker's whole NIC degrades: every transmit link it
            # owns (ring; local + global for a leader) flaps together.
            self.injector.install(
                self.workers,
                {
                    w: self.topology.worker_uplinks(w)
                    for w in range(config.n_workers)
                },
            )

    def _worker_done(self, worker_id: int) -> None:
        self._done_count += 1
        if self._done_count == self.config.n_workers:
            for monitor in self.monitors:
                monitor.stop()
            self.finished_time = self.engine.now
            if self.on_finished is not None:
                self.on_finished(self)

    @property
    def finished(self) -> bool:
        """Whether every worker completed its configured iterations."""
        return self._done_count == self.config.n_workers

    def event_budget(self) -> int:
        """Generous event budget for one full run of this job.

        Exceeding it means the run wedged or livelocked; the engine's
        error names the callbacks still queued.  The fleet simulator sums
        the budgets of all placed jobs to bound the shared engine's pump.
        """
        per_iter = 400 * (1 + self.gen_schedule.num_gradients // 4)
        return max(
            200_000, per_iter * self.config.n_iterations * self.config.n_workers
        )

    def start(self) -> None:
        """Schedule every worker's first compute; does not pump events."""
        for worker in self.workers:
            worker.start()

    def run(self, max_events: int | None = None) -> TrainingResult:
        """Execute the configured number of iterations on all workers."""
        if self._external_engine:
            raise SimulationError(
                "trainer is attached to a shared engine; its owner pumps "
                "events — use start()/finalize() instead of run()"
            )
        if max_events is None:
            max_events = self.event_budget()
        self.start()
        self.engine.run(max_events=max_events)
        if self._done_count != self.config.n_workers:
            raise SimulationError(
                f"training stalled: {self._done_count}/{self.config.n_workers} "
                f"workers finished (t={self.engine.now:.3f}s, "
                f"{self.engine.events_processed} events)"
            )
        return self.finalize()

    def finalize(self) -> TrainingResult:
        """Package the completed job's :class:`TrainingResult`.

        The result's ``end_time`` is the instant the last worker finished
        — on the owned-engine path that equals the drained ``engine.now``
        (the final worker's completion is the last event of the run), so
        results are identical whether the job ran alone or as one tenant
        of a fleet.
        """
        if self.finished_time is None:
            raise SimulationError(
                f"job {self.name or '<unnamed>'}: finalize() before all "
                f"workers finished ({self._done_count}/{self.config.n_workers})"
            )
        return TrainingResult(
            config=self.config,
            recorder=self.recorder,
            topology=self.topology,
            schedulers=self.schedulers,
            gen_schedule=self.gen_schedule,
            compute=self.compute,
            end_time=self.finished_time,
            trace=self.trace,
            fault_stats=dict(self.injector.stats) if self.injector else None,
            fault_log=list(self.injector.log) if self.injector else None,
            fastforward_stats=self._fastforward_stats(),
        )

    def _fastforward_stats(self) -> dict | None:
        ff = self.fastforward
        if ff is None:
            return None
        return {
            "engaged": ff.engaged,
            "period": ff.period,
            "cycles_skipped": ff.cycles_skipped,
            "iterations_skipped": ff.iterations_skipped,
            "fallbacks": ff.fallbacks,
            "boundaries_seen": ff.boundaries_seen,
            "disabled_reason": ff.disabled_reason,
        }


def run_training(
    config: TrainingConfig, scheduler_factory: SchedulerFactory
) -> TrainingResult:
    """Convenience one-shot: build a :class:`Trainer` and run it."""
    return Trainer(config, scheduler_factory).run()
