"""The fleet simulator: N training jobs on one shared engine and fabric.

:class:`FleetSimulator` owns the shared :class:`~repro.sim.engine.Engine`,
the :class:`~repro.fleet.cluster.HostPool`, and the
:class:`~repro.net.topology.ClusterFabric`, and wires the
:class:`~repro.fleet.scheduler.FleetScheduler` tick to real
:class:`~repro.cluster.trainer.Trainer` instances: when the scheduler
places a job, the simulator admits the job's NIC demand to the fabric,
rebinds the job config's bandwidth to the live per-tenant schedule, builds
the trainer in external-engine mode, and starts its workers.  When the
last worker of a job finishes, the trainer's ``on_finished`` callback
finalizes the result and hands the job back to the scheduler for
reclamation — all inside the one event-driven simulation.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from repro.cluster.trainer import Trainer
from repro.errors import ConfigurationError, EventBudgetExhausted, SimulationError
from repro.fleet.cluster import HostPool
from repro.fleet.job import FINISHED, FleetJob, JobHandle
from repro.fleet.scheduler import FleetScheduler
from repro.fleet.spec import FleetResult, FleetSpec
from repro.net.link import BandwidthSchedule
from repro.net.topology import ClusterFabric
from repro.runner.registry import build_factory
from repro.sim.engine import Engine
from repro.sim.rng import spawn_rng
from repro.workloads.presets import paper_config

__all__ = ["FleetSimulator", "build_fleet_jobs", "run_fleet"]


class FleetSimulator:
    """Places and runs a batch of :class:`FleetJob` on one shared engine."""

    def __init__(
        self,
        jobs: Sequence[FleetJob],
        *,
        core_bandwidth: float,
        n_hosts: int,
        slots_per_host: int,
        policy: str = "fifo",
        trace: bool = False,
        skip: int = 1,
    ):
        jobs = list(jobs)
        if not jobs:
            raise ConfigurationError("a fleet needs at least one job")
        names = set()
        for job in jobs:
            if job.name in names:
                raise ConfigurationError(f"duplicate fleet job name {job.name!r}")
            names.add(job.name)
        self.pool = HostPool(n_hosts, slots_per_host)
        for job in jobs:
            self._validate_job(job)
        self.skip = skip
        # Jobs share one engine but do not namespace their trace tracks or
        # transfer tags: in a traced fleet every job writes to the same
        # ``worker0/comm``, ``ps`` and link tracks.
        self.engine = Engine()
        self.trace = self.engine.attach_trace(trace)
        self.fabric = ClusterFabric(core_bandwidth)
        self.scheduler = FleetScheduler(
            self.engine, self.pool, self.fabric, policy, spawn=self._spawn
        )
        # Stable submission order: (arrival, name).  Same-instant arrivals
        # enqueue in name order, which same-timestamp event FIFO preserves.
        self.handles = [
            JobHandle(job) for job in sorted(jobs, key=lambda j: (j.arrival, j.name))
        ]
        self._by_name = {h.job.name: h for h in self.handles}
        #: Event-budget floor for the scheduler's own bookkeeping; each
        #: placed job adds its trainer's budget on top.
        self._budget = 200_000
        for handle in self.handles:
            self.engine.schedule(handle.job.arrival, self.scheduler.submit, handle)

    # ------------------------------------------------------------------
    def _validate_job(self, job: FleetJob) -> None:
        config = job.config
        if isinstance(config.bandwidth, BandwidthSchedule):
            raise ConfigurationError(
                f"job {job.name!r}: fleet jobs declare a flat NIC bandwidth; "
                f"the cluster fabric supplies the live schedule"
            )
        if config.worker_bandwidth is not None or config.ps_bandwidth is not None:
            raise ConfigurationError(
                f"job {job.name!r}: per-endpoint bandwidth overrides are not "
                f"supported in a fleet (the shared fabric levels every NIC)"
            )
        if config.faults is not None and not config.faults.is_empty:
            raise ConfigurationError(
                f"job {job.name!r}: fault injection inside a fleet run is "
                f"not supported"
            )
        if job.n_slots > self.pool.total_slots:
            raise ConfigurationError(
                f"job {job.name!r} needs {job.n_slots} slots but the cluster "
                f"has only {self.pool.total_slots}"
            )

    # ------------------------------------------------------------------
    # Scheduler callbacks
    # ------------------------------------------------------------------
    def _spawn(self, handle: JobHandle, now: float) -> None:
        """Admit the job to the fabric and start its trainer (placed → running)."""
        job = handle.job
        tenant_schedule = self.fabric.admit(
            job.name,
            n_links=job.config.n_workers,
            nic_bandwidth=float(job.config.bandwidth),
            now=now,
        )
        config = replace(job.config, bandwidth=tenant_schedule)
        trainer = Trainer(
            config,
            build_factory(job.strategy, dict(job.strategy_kwargs)),
            engine=self.engine,
            name=job.name,
            on_finished=self._job_finished,
        )
        handle.trainer = trainer
        self._budget += trainer.event_budget()
        trainer.start()

    def _job_finished(self, trainer: Trainer) -> None:
        handle = self._by_name[trainer.name]
        handle.result = trainer.finalize()
        self.scheduler.job_finished(handle)

    # ------------------------------------------------------------------
    def run(self, max_events: int | None = None) -> FleetResult:
        """Pump the shared engine until every job finishes.

        Without ``max_events`` the budget is the bookkeeping floor plus
        every placed job's :meth:`Trainer.event_budget`.  Jobs placed
        mid-pump raise it, so an exhausted pump re-reads the budget and
        resumes; only a budget that stopped growing is an error.
        """
        engine = self.engine
        n_jobs = len(self.handles)
        exhausted: EventBudgetExhausted | None = None
        while True:
            done = sum(h.state == FINISHED for h in self.handles)
            if done == n_jobs:
                break
            if not engine.pending():
                raise SimulationError(
                    f"fleet stalled at t={engine.now:.3f}s with {done}/{n_jobs} "
                    f"jobs finished (a queued job that can never be placed?)"
                )
            budget = max_events if max_events is not None else self._budget
            limit = budget - engine.events_processed
            if limit <= 0:
                detail = f": {exhausted}" if exhausted is not None else ""
                raise SimulationError(
                    f"fleet exceeded its event budget ({budget} events, "
                    f"{done}/{n_jobs} jobs finished){detail}"
                )
            try:
                engine.run(max_events=limit)
            except EventBudgetExhausted as exc:
                exhausted = exc
        # The shared engine has drained, so no job event is left to fire:
        # clear the back-edges to the trainers' components and to this
        # simulator, and the finished fleet is freed by reference counting.
        for handle in self.handles:
            handle.trainer.detach()
        self.scheduler.detach()
        records = tuple(
            handle.record(self.skip)
            for handle in sorted(self.handles, key=lambda h: h.job.name)
        )
        return FleetResult(
            policy=self.scheduler.policy.name,
            n_hosts=self.pool.n_hosts,
            slots_per_host=self.pool.slots_per_host,
            core_bandwidth=self.fabric.core_bandwidth,
            records=records,
            events_processed=engine.events_processed,
        )


# ----------------------------------------------------------------------
# Spec-driven entry points
# ----------------------------------------------------------------------
def build_fleet_jobs(spec: FleetSpec) -> list[FleetJob]:
    """Materialize the spec's deterministic synthetic job mix.

    Strategies rotate round-robin over ``spec.strategies`` and double as
    the submitting tenants, so fair-share arbitrates between strategy
    families.  Arrivals are a Poisson process drawn from a dedicated
    :func:`~repro.sim.rng.spawn_rng` stream of the spec seed.
    """
    rng = spawn_rng(spec.seed, "fleet", "arrivals")
    width = max(3, len(str(spec.n_jobs - 1)))
    jobs: list[FleetJob] = []
    arrival = 0.0
    for j in range(spec.n_jobs):
        if j > 0 and spec.mean_interarrival_s > 0:
            arrival += float(rng.exponential(spec.mean_interarrival_s))
        strategy = spec.strategies[j % len(spec.strategies)]
        config = paper_config(
            model=spec.model,
            batch_size=spec.batch_size,
            bandwidth=spec.nic_bandwidth,
            n_workers=spec.n_workers,
            n_iterations=spec.n_iterations,
            seed=spec.seed + j,
        )
        jobs.append(
            FleetJob(
                name=f"job{j:0{width}d}",
                config=config,
                strategy=strategy,
                arrival=arrival,
                user=strategy,
            )
        )
    return jobs


def run_fleet(spec: FleetSpec, *, trace: bool = False) -> FleetResult:
    """Convenience one-shot: build the spec's jobs and run the fleet."""
    simulator = FleetSimulator(
        build_fleet_jobs(spec),
        core_bandwidth=spec.core_bandwidth,
        n_hosts=spec.n_hosts,
        slots_per_host=spec.slots_per_host,
        policy=spec.policy,
        trace=trace,
        skip=spec.skip,
    )
    return simulator.run()
