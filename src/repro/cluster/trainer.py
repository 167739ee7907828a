"""Trainer: wires config + scheduler factory into a running simulation.

Every backend builds through one path, in deployment order: model →
compute profile → KV store (generation schedule) → topology → fault
injector → communication tier (parameter servers, or the collective
executor and controller) → one loop building every rank's worker from the
same arguments.  :meth:`Trainer._scheduler` builds each scheduler with its
bandwidth monitor and oracle profile (paper Fig. 7).  All workers share
one :class:`~repro.agg.kvstore.GenerationSchedule` template, scaled per
iteration by each worker's jitter factor — so scheduler comparisons under
the same seed are paired.

Build order is part of determinism: a monitor schedules its first sample
when built, so same-instant ties follow it.  PS monitors are built
worker-major, server-minor; the collective's before its controller;
``FaultInjector.install`` runs last.
"""

from __future__ import annotations

from functools import partial
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
from repro.errors import SimulationError
from repro.faults.injector import FaultInjector
from repro.metrics.timeline import Recorder
from repro.models.compute import build_compute_profile
from repro.models.registry import get_model
from repro.net.collective import HierarchicalExecutor, HierarchicalTopology
from repro.net.link import Link
from repro.net.monitor import BandwidthMonitor
from repro.net.topology import ShardedTopology
from repro.sched.base import CommScheduler
from repro.sim.engine import Engine
from repro.sim.rng import spawn_rng

__all__ = ["Trainer", "run_training"]


# bench/tracer.py wraps this name; nothing in the package calls it.
def fastforward_eligibility(*_args: object) -> tuple[bool, str]:
    """Always ineligible: the simulator has no iteration-skipping mode."""
    return False, "removed"


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
            engine = Engine()
            engine.attach_trace(config.trace)
        self.engine = engine
        self.trace = engine.trace
        self.recorder = Recorder(
            record_gradients=config.record_gradients, trace=self.trace
        )

        model = get_model(config.model)
        self.compute = build_compute_profile(model, config.device, config.batch_size)
        kvstore = KVStore(policy=config.effective_policy())
        self.gen_schedule = kvstore.generation_schedule(self.compute)
        self.oracle_profile = JobProfile.from_generation_schedule(self.gen_schedule)

        self.monitors: list[BandwidthMonitor] = []
        self.workers: list[Worker] = []
        self.schedulers: list[CommScheduler] = []
        self._done_count = 0
        collective = config.backend == "allreduce"
        net = dict(
            n_workers=config.n_workers,
            bandwidth=config.bandwidth,
            tcp=config.tcp,
            worker_bandwidth=config.worker_bandwidth,
        )
        if not collective:
            self.topology = ShardedTopology(
                self.engine,
                ps_bandwidth=config.ps_bandwidth,
                n_servers=config.n_servers,
                **net,
            )
        else:
            # The flat ring is the one-group hierarchical allreduce.
            hierarchical = config.collective == "hierarchical"
            self.topology = HierarchicalTopology(
                self.engine,
                group_size=(
                    config.collective_group_size if hierarchical else config.n_workers
                ),
                **net,
            )
        # Only a non-empty plan creates fault machinery: with no injector
        # every fault branch stays on its ``is None`` fast path, and the
        # event sequence is bit-identical to a fault-free build.
        plan = config.faults
        self.injector: FaultInjector | None = None
        if plan is not None and not plan.is_empty:
            self.injector = FaultInjector(
                self.engine,
                plan,
                n_workers=config.n_workers,
                rng=spawn_rng(config.seed, "faults"),
            )

        # The communication tier.  Allreduce: one executor and one
        # negotiated scheduler, planning from worker 0's link through a
        # view scaled by the collective's per-byte cost (see
        # repro.cluster.collective).  PS: the paper's star
        # (``n_servers=1``) or a tier of key-sharded servers, each holding
        # its shard's piece sizes.  The star keeps its own identity: PS
        # ``ps``, no slicing and the undivided schedule.  Each shard's
        # oracle profile is its own schedule's.
        n_shards = config.n_servers
        star = n_shards == 1
        if collective:
            self.executor = HierarchicalExecutor(self.topology)
            if self.injector is not None:
                self.executor.set_faults(self.injector)
            scheduler, view = self._scheduler(
                scheduler_factory,
                0,
                self.topology.worker_uplinks(0)[0],
                self.oracle_profile,
                ("sched", 0),
                cost=self.executor.efficiency_factor,
            )
            self.controller = CollectiveController(
                self.engine,
                scheduler,
                self.executor,
                n_workers=config.n_workers,
                faults=self.injector,
                view=view,
            )
            self.ps = None
            self.servers = []
            worker_cls = partial(CollectiveWorker, controller=self.controller)
        else:
            self.assignment = assign_shards(
                self.gen_schedule.sizes,
                n_shards,
                None if star else config.shard_slice_bytes,
            )
            templates = [
                self.gen_schedule
                if star
                else restrict_generation_schedule(self.gen_schedule, self.assignment, s)
                for s in range(n_shards)
            ]
            profiles = [JobProfile.from_generation_schedule(t) for t in templates]
            self.servers = [
                ParameterServer(
                    self.engine,
                    n_workers=config.n_workers,
                    sizes=templates[s].sizes,
                    sync_mode=config.sync_mode,
                    staleness=config.ssp_staleness,
                    faults=self.injector,
                    name="ps" if star else f"ps{s}",
                    server_index=None if star else s,
                )
                for s in range(n_shards)
            ]
            self.ps = self.servers[0]
            worker_cls = Worker

        compute_scale = dict(config.worker_compute_scale or {})
        for w in range(config.n_workers):
            scale = compute_scale.get(w, 1.0)
            worker = worker_cls(
                self.engine,
                w,
                self.compute,
                self.gen_schedule,
                self.recorder,
                config.n_iterations,
                spawn_rng(config.seed, "jitter", w),
                config.jitter_std,
                scale,
                self._worker_done,
                self.injector,
            )
            if not collective:
                uplinks = self.topology.worker_uplinks(w)
                schedulers = [
                    self._scheduler(
                        scheduler_factory,
                        w,
                        uplinks[s],
                        profiles[s],
                        ("sched", w) if star else ("sched", w, s),
                        scale=scale,
                    )[0]
                    for s in range(n_shards)
                ]
                worker.attach_servers(
                    self.assignment,
                    templates,
                    schedulers,
                    uplinks,
                    self.topology.worker_downlinks(w) if config.duplex else None,
                    self.servers,
                )
            self.workers.append(worker)
        if collective:
            self.controller.attach_workers(
                self.workers, assign_shards(self.gen_schedule.sizes, 1).by_shard[0]
            )
        for s, ps in enumerate(self.servers):
            ps.attach_workers([worker.port(s) for worker in self.workers])
        if self.injector is not None:
            # A flapped worker's whole NIC degrades: every uplink it owns
            # (one per shard; ring, or local + global for a leader) flaps
            # together.
            self.injector.install(
                self.workers,
                {
                    w: self.topology.worker_uplinks(w)
                    for w in range(config.n_workers)
                },
                servers=self.servers,
            )

    def _scheduler(
        self,
        factory: SchedulerFactory,
        worker_id: int,
        link: Link,
        profile: JobProfile,
        stream: tuple,
        *,
        scale: float = 1.0,
        cost: float | None = None,
    ) -> tuple[CommScheduler, BandwidthMonitor | EffectiveBandwidthView]:
        """One scheduler instance and the bandwidth monitor it plans from
        (the per-worker components of the paper's prototype, Fig. 7).

        The monitor samples ``link``; with a collective ``cost`` the
        scheduler sees it through an :class:`EffectiveBandwidthView`.  A
        compute straggler's oracle profile is stretched by its ``scale``
        (the real profiler runs per worker).  ``stream`` names the
        scheduler's RNG stream.  Returns the scheduler and what it
        monitors.
        """
        monitor = BandwidthMonitor(
            self.engine, link, interval=self.config.monitor_interval
        )
        self.monitors.append(monitor)
        if scale != 1.0:
            profile = JobProfile(c=profile.c * scale, sizes=profile.sizes, iterations=0)
        ctx = WorkerContext(
            worker_id=worker_id,
            monitor=monitor if cost is None else EffectiveBandwidthView(monitor, cost),
            oracle_profile=profile,
            tcp=self.config.tcp,
            rng=spawn_rng(self.config.seed, *stream),
            engine=self.engine,
        )
        scheduler = factory(ctx)
        self.schedulers.append(scheduler)
        return scheduler, ctx.monitor

    def _worker_done(self, worker_id: int) -> None:
        self._done_count += 1
        if self._done_count == self.config.n_workers:
            for monitor in self.monitors:
                monitor.stop()
            if self.injector is not None:
                self.injector.job_finished()
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

        On the owned-engine path the run is over, so this also calls
        :meth:`detach`; a fleet detaches its trainers once the shared
        engine drains.
        """
        if self.finished_time is None:
            raise SimulationError(
                f"job {self.name or '<unnamed>'}: finalize() before all "
                f"workers finished ({self._done_count}/{self.config.n_workers})"
            )
        result = TrainingResult(
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
        )
        if not self._external_engine:
            self.detach()
        return result

    def detach(self) -> None:
        """Clear the back-edges of the finished job's object graph.

        While the job runs its components call each other: a link's idle
        callback is its port's pump, a port and its worker or server know
        each other, a collective worker reports to its controller, and a
        worker reports to the trainer (which may report to a fleet).  With
        those edges cleared the graph is acyclic, so dropping the trainer
        and its result frees it by reference counting.  Call it only once
        no event of the job is left to fire.
        """
        self.on_finished = None
        for worker in self.workers:
            worker.detach()


def run_training(
    config: TrainingConfig, scheduler_factory: SchedulerFactory
) -> TrainingResult:
    """Convenience one-shot: build a :class:`Trainer` and run it."""
    return Trainer(config, scheduler_factory).run()
