"""Job-lifecycle scheduler: the fleet's housekeeping/evaluation/spawn tick.

The tick is event-driven, not polled: one fires at every job arrival and
after every job completion (at the same engine timestamp, so resources
freed by a finishing job are re-placeable immediately and deterministically).
Each tick runs three phases in a fixed order:

1. **Housekeeping** — reclaim finished jobs' host slots and fabric share,
   then refresh the trace counters.  Each step is independent, mirroring
   a housekeeping checklist that must run even when nothing spawns.
2. **Evaluation** — filter the queue down to the jobs eligible *now*
   (arrived, still queued) and order them by the placement policy.
3. **Spawn** — walk the ordered candidates and place whatever fits,
   per-policy: FIFO stops at the first job that does not fit (strict
   arrival order, head-of-line blocking), fair-share backfills past
   oversized jobs after ordering tenants by how many jobs they already
   have running, and gang scheduling is FIFO over exclusive whole-host
   allocations (all-or-nothing co-location).
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.errors import ConfigurationError
from repro.fleet.cluster import HostPool
from repro.fleet.job import FINISHED, PLACED, QUEUED, RUNNING, JobHandle
from repro.net.topology import ClusterFabric
from repro.sim.engine import Engine

__all__ = ["PlacementPolicy", "POLICIES", "FleetScheduler"]


class PlacementPolicy:
    """Ordering + fit rules one fleet scheduling policy contributes.

    ``head_of_line`` stops the spawn walk at the first non-fitting job;
    ``whole_hosts`` requests exclusive-host (gang) allocations.
    """

    name = "base"
    head_of_line = True
    whole_hosts = False

    def order(
        self, candidates: Sequence[JobHandle], running_per_tenant: dict[str, int]
    ) -> list[JobHandle]:
        """Arrival order (FIFO) — subclasses override."""
        return sorted(candidates, key=lambda h: (h.job.arrival, h.job.name))


class FIFOPolicy(PlacementPolicy):
    """Strict submission order; an oversized head blocks the queue."""

    name = "fifo"


class FairSharePolicy(PlacementPolicy):
    """Tenants with the fewest running jobs place first, with backfill.

    Ordering key: (tenant's running-job count, arrival, name).  Because
    ``head_of_line`` is off, a job that does not fit is skipped and later
    (smaller) candidates may backfill the remaining slots.
    """

    name = "fair"
    head_of_line = False

    def order(
        self, candidates: Sequence[JobHandle], running_per_tenant: dict[str, int]
    ) -> list[JobHandle]:
        return sorted(
            candidates,
            key=lambda h: (
                running_per_tenant.get(h.job.tenant, 0),
                h.job.arrival,
                h.job.name,
            ),
        )


class GangPolicy(PlacementPolicy):
    """FIFO over exclusive whole-host allocations (all-or-nothing)."""

    name = "gang"
    whole_hosts = True


#: Registry of placement policies by CLI/spec name.
POLICIES: dict[str, type[PlacementPolicy]] = {
    "fifo": FIFOPolicy,
    "fair": FairSharePolicy,
    "gang": GangPolicy,
}


class FleetScheduler:
    """Runs the three-phase tick over a queue of :class:`JobHandle`.

    The scheduler owns the lifecycle bookkeeping (states, host slots,
    fabric tenancy); actually building and starting a job's trainer is
    delegated to ``spawn`` (the fleet simulator's callback), keeping this
    class free of any trainer wiring.
    """

    def __init__(
        self,
        engine: Engine,
        pool: HostPool,
        fabric: ClusterFabric,
        policy: str | PlacementPolicy,
        spawn: Callable[[JobHandle, float], None],
    ):
        if isinstance(policy, str):
            if policy not in POLICIES:
                raise ConfigurationError(
                    f"unknown fleet policy {policy!r}; "
                    f"available: {', '.join(sorted(POLICIES))}"
                )
            policy = POLICIES[policy]()
        self.engine = engine
        self.pool = pool
        self.fabric = fabric
        self.policy = policy
        self._spawn_job = spawn
        self.queued: list[JobHandle] = []
        self.running: list[JobHandle] = []
        self.finished: list[JobHandle] = []
        #: Finished handles whose resources housekeeping has not reclaimed.
        self._reclaim: list[JobHandle] = []
        self._tick_pending = False

    # ------------------------------------------------------------------
    # Inputs (arrival events and completion callbacks)
    # ------------------------------------------------------------------
    def submit(self, handle: JobHandle) -> None:
        """Enqueue an arrived job (called by the arrival event)."""
        self.queued.append(handle)
        trace = self.engine.trace
        if trace.enabled:
            trace.instant(
                "job.queued", "fleet", self.engine.now,
                f"fleet/{handle.job.name}", {"tenant": handle.job.tenant},
            )
        self.request_tick()

    def job_finished(self, handle: JobHandle) -> None:
        """Mark a running job finished (called from ``on_finished``)."""
        handle.state = FINISHED
        handle.finished_at = self.engine.now
        self._reclaim.append(handle)
        trace = self.engine.trace
        if trace.enabled:
            trace.instant(
                "job.finished", "fleet", self.engine.now,
                f"fleet/{handle.job.name}", {},
            )
        self.request_tick()

    def detach(self) -> None:
        """Drop the spawn callback (a back-edge to the fleet simulator)
        once the fleet has finished."""
        self._spawn_job = None

    def request_tick(self) -> None:
        """Schedule one tick at the current instant (coalesced).

        A tick scheduled at ``now`` always fires before the clock can
        advance, so a pending flag cleared at tick entry is enough to
        coalesce same-instant requests without ever missing a later one.
        """
        if not self._tick_pending:
            self._tick_pending = True
            self.engine.schedule(self.engine.now, self.tick)

    # ------------------------------------------------------------------
    # The tick
    # ------------------------------------------------------------------
    def tick(self) -> None:
        self._tick_pending = False
        now = self.engine.now
        # Phase 1: housekeeping.  Reclaim first so the evaluation phase of
        # the same tick sees the freed capacity.
        self._reclaim_finished(now)
        self._refresh_counters(now)
        candidates = self._evaluate(now)  # Phase 2: evaluation
        self._spawn(candidates, now)  # Phase 3: spawn

    # Phase 1 ----------------------------------------------------------
    def _reclaim_finished(self, now: float) -> None:
        for handle in self._reclaim:
            self.running.remove(handle)
            self.finished.append(handle)
            if handle.allocation is not None:
                self.pool.release(handle.allocation)
                handle.allocation = None
            self.fabric.release(handle.job.name, now)
        self._reclaim.clear()

    def _refresh_counters(self, now: float) -> None:
        trace = self.engine.trace
        if trace.enabled:
            trace.counter(
                "fleet.jobs", "fleet", now, "fleet/sched",
                {
                    "queued": len(self.queued),
                    "running": len(self.running),
                    "finished": len(self.finished),
                    "free_slots": self.pool.free_slots,
                },
            )

    # Phase 2 ----------------------------------------------------------
    def _evaluate(self, now: float) -> list[JobHandle]:
        arrived = [
            h for h in self.queued if h.state == QUEUED and h.job.arrival <= now
        ]
        running_per_tenant: dict[str, int] = {}
        for handle in self.running:
            tenant = handle.job.tenant
            running_per_tenant[tenant] = running_per_tenant.get(tenant, 0) + 1
        return self.policy.order(arrived, running_per_tenant)

    # Phase 3 ----------------------------------------------------------
    def _spawn(self, candidates: list[JobHandle], now: float) -> None:
        for handle in candidates:
            n_slots = handle.job.n_slots
            allocation = self.pool.alloc(n_slots, self.policy.whole_hosts)
            if allocation is None:
                if self.policy.head_of_line:
                    return
                continue
            handle.allocation = allocation
            handle.state = PLACED
            handle.placed_at = now
            self.queued.remove(handle)
            self.running.append(handle)
            trace = self.engine.trace
            if trace.enabled:
                trace.instant(
                    "job.placed", "fleet", now, f"fleet/{handle.job.name}",
                    {"hosts": sorted(allocation), "slots": n_slots},
                )
            self._spawn_job(handle, now)
            handle.state = RUNNING
