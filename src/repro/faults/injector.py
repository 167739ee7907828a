"""Seed-driven fault injection for the cluster simulation.

The :class:`FaultInjector` turns a declarative
:class:`~repro.faults.plan.FaultPlan` into scheduled engine events (crash,
restart, flap and stall boundaries) and into per-message drop decisions
drawn from a dedicated RNG stream (``spawn_rng(seed, "faults")``).  All
fault occurrences are counted in :attr:`FaultInjector.stats` and recorded
as ``fault``-category trace instants when tracing is enabled, so a chaos
run's Perfetto view shows exactly when each failure fired and when the
cluster recovered.  Events still pending when the job's last worker
finishes are cancelled (:meth:`FaultInjector.job_finished`): a fault
after the end hits no work and is not counted.

Link flaps are layered onto the links' existing bandwidth schedules via
:class:`FlappedSchedule`, which multiplies the base schedule's value inside
each flap window — composing with, not replacing, the dynamic-bandwidth
experiments' square waves.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.faults.plan import FaultPlan, LinkFlap
from repro.sim.engine import Engine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.link import Link

__all__ = ["FaultInjector", "FlappedSchedule"]

#: Drop legs the delivery layer may roll for.  ``chunk`` is the collective
#: backend's alias for the plan's ``push`` probability: one roll per ring
#: chunk-step completion, a lost chunk forcing a same-link retransmit.
_LEGS = ("push", "pull", "ack", "chunk")


class FlappedSchedule:
    """A bandwidth schedule with flap windows layered multiplicatively.

    Duck-types :class:`~repro.net.link.BandwidthSchedule`'s ``value``, so
    links and monitors are oblivious to the wrapping.
    Overlapping windows compound (two 0.5x flaps yield 0.25x).
    """

    def __init__(self, base, flaps: tuple[LinkFlap, ...]):
        self._base = base
        self._flaps = tuple(flaps)

    def value(self, time: float) -> float:
        value = self._base.value(time)
        for flap in self._flaps:
            if flap.start <= time < flap.end:
                value *= flap.factor
        return value


class FaultInjector:
    """Schedules a plan's fault events and serves drop decisions."""

    def __init__(
        self,
        engine: Engine,
        plan: FaultPlan,
        n_workers: int,
        rng: np.random.Generator,
    ):
        plan.validate_workers(n_workers)
        self.engine = engine
        self.plan = plan
        self.n_workers = n_workers
        self._rng = rng
        self._installed = False
        #: Fault/recovery counters accumulated over the run.
        self.stats: dict[str, int] = {
            "push_drops": 0,
            "pull_drops": 0,
            "ack_drops": 0,
            "chunk_drops": 0,
            "push_retries": 0,
            "pull_retries": 0,
            "chunk_retries": 0,
            "ring_steps": 0,
            "stalled_steps": 0,
            "shrinks": 0,
            "duplicate_pushes": 0,
            "crashes": 0,
            "restarts": 0,
            "link_flaps": 0,
            "ps_stalls": 0,
            "server_crashes": 0,
            "failovers": 0,
            "lost_pushes": 0,
        }
        #: ``(time, kind, detail)`` log of every discrete fault event.
        self.log: list[tuple[float, str, dict]] = []
        self._stalls = tuple(sorted(plan.ps_stalls, key=lambda s: s.at))
        # Every scheduled fault event, cancelled by job_finished().
        self._events: list = []

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def install(
        self,
        workers: list,
        links: Mapping[int, "Link | Sequence[Link]"],
        servers: "Sequence | None" = None,
    ) -> None:
        """Wrap link schedules and schedule every discrete fault event.

        ``workers`` are the cluster's :class:`~repro.cluster.worker.Worker`
        objects (crash targets); ``links`` maps worker id → uplink or
        sequence of uplinks (flap targets — on the sharded tier every
        per-shard duplex uplink of a flapped worker degrades together; on
        the collective backend the worker's ring/local/global links do).
        ``servers`` lists the PS tier's
        :class:`~repro.cluster.ps.ParameterServer` objects, indexed by
        shard, when the plan contains :class:`ServerCrash` events.  Must be
        called exactly once, before the engine runs.
        """
        if self._installed:
            raise SimulationError("FaultInjector.install() called twice")
        self._installed = True
        for worker_id, worker_links in links.items():
            flaps = tuple(
                f
                for f in self.plan.flaps
                if f.worker is None or f.worker == worker_id
            )
            if not flaps:
                continue
            if not isinstance(worker_links, (list, tuple)):
                worker_links = (worker_links,)
            for link in worker_links:
                link.schedule = FlappedSchedule(link.schedule, flaps)
        seen_flap_windows = set()
        for flap in self.plan.flaps:
            window = (flap.start, flap.duration, flap.factor, flap.worker)
            if window in seen_flap_windows:
                continue
            seen_flap_windows.add(window)
            self._schedule(flap.start, self._flap_started, flap)
            self._schedule(flap.end, self._flap_ended, flap)
        for crash in self.plan.crashes:
            self._schedule(crash.at, self._crash, workers[crash.worker], crash)
        for stall in self._stalls:
            self._schedule(stall.at, self._stall_started, stall)
            self._schedule(stall.end, self._stall_ended, stall)
        if self.plan.server_crashes:
            if servers is None:
                raise SimulationError(
                    "the plan contains server crashes but install() got no "
                    "servers"
                )
            for sc in self.plan.server_crashes:
                self._schedule(sc.at, self._server_crash, servers[sc.server], sc)
                self._schedule(sc.end, self._server_failover, servers[sc.server], sc)

    def _schedule(self, time: float, fn, *args) -> None:
        self._events.append(self.engine.schedule(time, fn, *args))

    def job_finished(self) -> None:
        """The job's last worker finished: cancel every fault event still
        pending, so :attr:`stats` and :attr:`log` count only the faults
        that hit the run (on a shared fleet engine, too)."""
        for event in self._events:
            event.cancel()
        self._events.clear()

    # ------------------------------------------------------------------
    # Queries served to the delivery layer
    # ------------------------------------------------------------------
    def roll_drop(self, leg: str, worker: int) -> bool:
        """Decide whether a ``leg`` message of ``worker`` is lost now.

        Active drop specs combine as independent loss processes
        (``1 - prod(1 - p)``).  Every call draws exactly once so the drop
        sequence is a deterministic function of the delivery event order.
        """
        if leg not in _LEGS:
            raise SimulationError(f"unknown drop leg {leg!r}")
        attr = "push" if leg == "chunk" else leg
        now = self.engine.now
        keep = 1.0
        for spec in self.plan.drops:
            if spec.worker is not None and spec.worker != worker:
                continue
            if not spec.start <= now < spec.end:
                continue
            keep *= 1.0 - getattr(spec, attr)
        p = 1.0 - keep
        if p <= 0.0:
            return False
        dropped = bool(self._rng.random() < p)
        if dropped:
            self.stats[f"{leg}_drops"] += 1
            self._record(f"drop.{leg}", f"worker{worker}/faults", {"worker": worker})
        return dropped

    def ps_release_delay(self, now: float, server: int | None = None) -> float:
        """Extra delay a PS release scheduled at ``now`` must absorb
        because of an active stall window (0 outside every window).

        ``server`` is the releasing PS's shard index; stalls pinned to a
        different shard are ignored, tier-wide stalls (``server=None`` in
        the spec) always apply.
        """
        for stall in self._stalls:
            if stall.server is not None and server is not None:
                if stall.server != server:
                    continue
            if stall.at <= now < stall.end:
                return stall.end - now
        return 0.0

    def count(self, key: str, n: int = 1) -> None:
        """Increment a stats counter (retries, duplicates) from the
        delivery layer."""
        self.stats[key] = self.stats.get(key, 0) + n

    # ------------------------------------------------------------------
    # Scheduled fault events
    # ------------------------------------------------------------------
    def _crash(self, worker, crash) -> None:
        if worker.done:
            return  # training outran the plan; a crash after completion is moot
        self.stats["crashes"] += 1
        self._record(
            "fault.crash",
            f"worker{crash.worker}/faults",
            {"worker": crash.worker, "restart_after": crash.restart_after},
        )
        worker.crash()
        self._events.append(
            self.engine.schedule_after(crash.restart_after, self._restart, worker, crash)
        )

    def _restart(self, worker, crash) -> None:
        self.stats["restarts"] += 1
        self._record(
            "fault.restart", f"worker{crash.worker}/faults", {"worker": crash.worker}
        )
        worker.restart()

    def _flap_started(self, flap: LinkFlap) -> None:
        self.stats["link_flaps"] += 1
        track = "faults" if flap.worker is None else f"worker{flap.worker}/faults"
        self._record(
            "fault.flap",
            track,
            {"worker": flap.worker, "factor": flap.factor, "duration": flap.duration},
        )

    def _flap_ended(self, flap: LinkFlap) -> None:
        track = "faults" if flap.worker is None else f"worker{flap.worker}/faults"
        self._record("fault.flap_end", track, {"worker": flap.worker})

    def _stall_started(self, stall) -> None:
        self.stats["ps_stalls"] += 1
        track = "ps" if stall.server is None else f"ps{stall.server}"
        self._record(
            "fault.ps_stall",
            track,
            {"duration": stall.duration, "server": stall.server},
        )

    def _stall_ended(self, stall) -> None:
        track = "ps" if stall.server is None else f"ps{stall.server}"
        self._record("fault.ps_resume", track, {"server": stall.server})

    def _server_crash(self, ps, sc) -> None:
        self.stats["server_crashes"] += 1
        self._record(
            "fault.server_crash",
            ps.name,
            {"server": sc.server, "failover_after": sc.failover_after},
        )
        ps.fail()

    def _server_failover(self, ps, sc) -> None:
        self.stats["failovers"] += 1
        self._record("fault.failover", ps.name, {"server": sc.server})
        ps.recover()

    # ------------------------------------------------------------------
    def record(self, kind: str, track: str, detail: dict) -> None:
        """Public log/trace hook for recovery events originated *outside*
        the injector — the collective controller's elastic shrink, the
        executors' straggler timeouts — so one timeline holds every fault
        and every recovery action."""
        self._record(kind, track, detail)

    def _record(self, kind: str, track: str, detail: dict) -> None:
        self.log.append((self.engine.now, kind, detail))
        trace = self.engine.trace
        if trace.enabled:
            trace.instant(kind, "fault", self.engine.now, track, detail)
