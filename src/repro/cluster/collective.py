"""Collective worker tier: one negotiated scheduler drives the ring.

In the PS backend every worker owns a scheduler instance and its private
uplink — decisions are local.  A collective operation is inherently
global: one allreduce occupies *every* worker's link for the same span,
and it can only start once **all** workers have produced the gradients it
carries.  Real collective engines solve this with a coordinator
negotiation (Horovod's controller, ByteScheduler's rank-0 Core): workers
announce readiness, the coordinator decides the launch order, everybody
executes the same sequence.

This module mirrors that shape.  A :class:`CollectiveController` owns the
single :class:`~repro.sched.base.CommScheduler` instance for the job and
the collective step executor of :mod:`repro.net.collective`.
:class:`CollectiveWorker` is a :class:`~repro.cluster.worker.Worker`
built by the same trainer loop with the same arguments, plus its
controller: it keeps the entire compute path (forward gating, bucket
flushes, iteration bookkeeping), is never given PS ports, and overrides
the scheduler fan-out hooks to *report* to the controller instead of
driving a private scheduler:

* ``begin_iteration(k)`` fires on the scheduler when the **last** worker
  enters backward ``k`` (the negotiated backward start);
* ``gradient_ready(g)`` fires when the **last** worker flushes ``g``
  (the negotiated generation time — the max over workers, which is what
  the allreduce must wait for anyway);
* a completed operation credits push **and** pull bytes on every worker
  simultaneously (each worker both contributed its chunk and received
  the reduced result), unblocking their next forward passes together.

Because the scheduler still speaks propose/commit, and the executor's
``send_unit`` takes a committed unit the way a PS port's ``Link.send``
does, the scheduler cannot tell the backends apart — FIFO, P3,
ByteScheduler, MG-WFBP and Prophet all run unchanged, which is the point
of the topology/scheduler split.  A scheduler that overrides
``pull_completed`` hears it per segment at operation completion, so
credit-based flow control (ByteScheduler) replenishes exactly as on the
PS path, where the PS mirrors every pushed byte back as a pull.  The
workers' per-gradient marks, credit and forward gates go through the same
:class:`~repro.cluster.worker.Worker` helpers a PS port calls, on the
star's piece map, so a traced run shows the collective's per-gradient
``assembly`` and ``wait`` spans on ``collective/assembly`` and
``collective/wait``.

**Fault mode.**  With a :class:`~repro.faults.injector.FaultInjector`
wired, a worker crash triggers an *elastic shrink* — the collective
analogue of Horovod Elastic: the in-flight operation is aborted, the
executor rebuilds its ring over the survivors
(:meth:`~repro.net.collective._StepExecutor.remove_worker`), the
scheduler's effective-bandwidth view rescales to the shrunk ring's
``2(k-1)/k`` cost, and the aborted operation resends over the new ring.
Negotiation is by report *sets* over the active membership, so a rank
that dies mid-negotiation cannot wedge the barrier — its removal
recounts every pending negotiation and fires any that the dead rank was
the last holdout of.  A crashed rank never rejoins (ring rebuild is a
one-way door; the restart event logs ``collective.rejoin_refused``), mirroring
how elastic collectives fold a recovered host back in only at the next
job-level rendezvous.  Sustained bandwidth collapse needs no new
machinery: the monitor-fed view sinks, and Prophet's own degradation
ladder (``prophet.fallback`` trace instants) drops the plan back to
PS-star-style FIFO ordering.  Without an injector every rank stays
active, so each barrier fires at its last report and the event sequence
is bit-identical to a build without the fault layer.
"""

from __future__ import annotations

from functools import partial

from repro.agg.kvstore import GenerationSchedule
from repro.cluster.sharding import ShardPiece
from repro.cluster.worker import Worker
from repro.errors import SimulationError
from repro.net.collective import HierarchicalExecutor
from repro.sched.base import CommScheduler, TransferUnit
from repro.sim.engine import Engine

__all__ = ["CollectiveController", "CollectiveWorker", "EffectiveBandwidthView"]

class EffectiveBandwidthView:
    """Monitor proxy scaling samples by the collective's per-byte cost.

    A flat ring serializes ``2(N-1)/N`` bytes on each link per payload
    byte, so a scheduler that predicts transfer times as ``S / B``
    (Prophet's planner) must see ``B / factor`` — the rate at which
    *payload* actually clears the collective.  Duck-types the one
    :class:`~repro.net.monitor.BandwidthMonitor` attribute scheduler
    factories read, :attr:`bandwidth`.
    """

    def __init__(self, monitor, factor: float):
        self._monitor = monitor
        self._factor = factor if factor > 0 else 1.0

    def set_factor(self, factor: float) -> None:
        """Rescale after an elastic shrink changed the collective's
        per-byte cost (``2(k-1)/k`` over ``k`` survivors)."""
        self._factor = factor if factor > 0 else 1.0

    @property
    def bandwidth(self) -> float:
        return self._monitor.bandwidth / self._factor


class CollectiveController:
    """Coordinator: negotiates worker readiness, drives the one scheduler.

    The controller is the collective analogue of the worker's channel
    pump: whenever the executor goes idle (or new gradients become ready
    cluster-wide) it asks the scheduler for the next unit and launches it
    as one allreduce operation.
    """

    def __init__(
        self,
        engine: Engine,
        scheduler: CommScheduler,
        executor: HierarchicalExecutor,
        n_workers: int,
        faults=None,
        view: "EffectiveBandwidthView | None" = None,
    ):
        self.engine = engine
        self.scheduler = scheduler
        self.executor = executor
        self.n_workers = n_workers
        self.workers: list[CollectiveWorker] = []
        self._pieces: tuple[ShardPiece, ...] = ()
        self._comm_track = "collective/comm"
        self._iteration = -1
        self._end_span = 0.0
        # Negotiation by report *sets* over the active membership (a dead
        # rank's removal recounts pending barriers), plus the in-flight
        # operation for abort-and-resend.
        self._faults = faults
        self._view = view
        self._active: set[int] = set(range(n_workers))
        self._begin_reports: set[int] = set()
        self._pending_begin: tuple[int, GenerationSchedule] | None = None
        self._end_reports: set[int] = set()
        self._pending_end: int | None = None
        self._ready_sets: dict[int, set[int]] = {}
        self._inflight: tuple[int, TransferUnit, dict | None] | None = None
        # Only a scheduler that acts on pull feedback hears of each range.
        cls = type(scheduler)
        self._pull_feedback = cls.pull_completed is not CommScheduler.pull_completed

    def attach_workers(
        self, workers: list["CollectiveWorker"], pieces: tuple[ShardPiece, ...]
    ) -> None:
        """Wire the ranks and the piece map their credit runs on (the
        star's: one whole piece per gradient, local index == gradient)."""
        if len(workers) != self.n_workers:
            raise SimulationError(
                f"controller wired for {self.n_workers} workers, "
                f"got {len(workers)}"
            )
        self.workers = list(workers)
        self._pieces = pieces

    # ------------------------------------------------------------------
    # Negotiation: worker reports → scheduler hooks at the Nth report
    # ------------------------------------------------------------------
    def worker_begin_iteration(
        self, worker_id: int, iteration: int, sched: GenerationSchedule, now: float
    ) -> None:
        """A worker entered backward ``iteration``.

        BSP guarantees report order: every worker's iteration-``k`` report
        precedes any iteration-``k+1`` report (forward ``k+1`` gates on
        the last ``k`` operation completing), so one pending barrier per
        hook suffices.  The scheduler sees the *last* reporter's scaled
        schedule — the negotiated backward start, which is when
        cluster-wide generation actually begins.
        """
        if iteration != self._iteration + 1:
            raise SimulationError(
                f"worker {worker_id} reported backward {iteration} while the "
                f"collective is negotiating iteration {self._iteration + 1}"
            )
        self._begin_reports.add(worker_id)
        self._pending_begin = (iteration, sched)
        self._maybe_fire_begin(now)

    def _maybe_fire_begin(self, now: float) -> None:
        if self._pending_begin is None or not self._begin_reports >= self._active:
            return
        iteration, sched = self._pending_begin
        self._pending_begin = None
        self._begin_reports.clear()
        self._iteration = iteration
        self.scheduler.begin_iteration(iteration, sched, now)

    def worker_end_iteration(
        self, worker_id: int, iteration: int, span: float, now: float
    ) -> None:
        """A worker crossed its iteration boundary; the scheduler hears the
        slowest span once all have (the BSP-binding iteration time)."""
        self._end_reports.add(worker_id)
        self._end_span = max(self._end_span, span)
        self._pending_end = iteration
        self._maybe_fire_end(now)

    def _maybe_fire_end(self, now: float) -> None:
        if self._pending_end is None or not self._end_reports >= self._active:
            return
        iteration = self._pending_end
        self._pending_end = None
        span, self._end_span = self._end_span, 0.0
        self._end_reports.clear()
        self.scheduler.end_iteration(iteration, span, now)

    def worker_gradient_ready(self, worker_id: int, grad: int, now: float) -> None:
        """A worker flushed ``grad``; it is collectively ready (and hence
        schedulable) once every worker has."""
        self._ready_sets.setdefault(grad, set()).add(worker_id)
        self._maybe_fire_ready(grad, now)

    def _maybe_fire_ready(self, grad: int, now: float) -> None:
        ready = self._ready_sets.get(grad)
        if ready is None or not ready >= self._active:
            return
        del self._ready_sets[grad]
        self.scheduler.gradient_ready(grad, now)
        for worker in self.workers:
            if worker.worker_id in self._active:
                worker._ready_log[grad] = now
        self.pump()

    # ------------------------------------------------------------------
    # Elastic shrink (fault mode): a rank crashed and leaves for good
    # ------------------------------------------------------------------
    def worker_crashed(self, worker_id: int) -> None:
        """Remove a crashed rank from the collective.

        Aborts the in-flight operation (its chunks are lost), rebuilds
        the executor's ring over the survivors, rescales the scheduler's
        effective-bandwidth view, recounts every pending negotiation
        barrier the dead rank may have been the last holdout of, and
        resends the aborted operation on the shrunk ring.
        """
        faults = self._faults
        assert faults is not None
        if worker_id not in self._active:
            raise SimulationError(
                f"worker {worker_id} crashed but is not an active member"
            )
        resume: tuple[int, TransferUnit, dict | None] | None = None
        if self.executor.busy and self._inflight is not None:
            resume = self._inflight
            self._inflight = None
            self.executor.abort()
        self.executor.remove_worker(worker_id)
        self._active.discard(worker_id)
        if self._view is not None:
            self._view.set_factor(self.executor.efficiency_factor)
        faults.count("shrinks")
        faults.record(
            "collective.shrink",
            "collective/faults",
            {
                "worker": worker_id,
                "active": sorted(self._active),
                "factor": self.executor.efficiency_factor,
            },
        )
        now = self.engine.now
        # Resend the aborted (already-committed) operation over the shrunk
        # ring *before* recounting barriers — a recount may pump, and the
        # committed unit owns the executor's next slot.
        if resume is not None:
            iteration, unit, desc = resume
            self._launch_unit(iteration, unit, desc, now)
            faults.record(
                "collective.resumed",
                "collective/faults",
                {"iteration": iteration, "nbytes": unit.total_bytes},
            )
        self._maybe_fire_begin(now)
        for grad in sorted(self._ready_sets):
            self._maybe_fire_ready(grad, now)
        self._maybe_fire_end(now)
        self.pump()

    # ------------------------------------------------------------------
    # Driving the executor
    # ------------------------------------------------------------------
    def pump(self) -> None:
        """Launch the scheduler's next unit if the executor is idle.

        No stall timer: a completed operation credits every byte it
        carried back to the scheduler (:meth:`_op_done`), so a
        window-based strategy never holds while the executor is idle.
        """
        if self.executor.busy:
            return
        now = self.engine.now
        unit = self.scheduler.propose_unit(now)
        if unit is not None:
            self._send_unit(unit, now)

    def _send_unit(self, unit: TransferUnit, now: float) -> None:
        scheduler = self.scheduler
        scheduler.commit_unit(unit, now)
        desc: dict[str, object] | None = None
        track: str | None = None
        if self.engine.trace.enabled:
            desc = scheduler.describe_unit(unit)
            track = "collective"
        for worker in self.workers:
            if worker.worker_id in self._active:
                worker._push_started(self._pieces, unit, now, desc, track)
                # Every active rank shares the negotiated ready times, so
                # the first one traces the collective's spans.
                track = None
        self._launch_unit(self._iteration, unit, desc, now)

    def _launch_unit(
        self,
        iteration: int,
        unit: TransferUnit,
        desc: dict[str, object] | None,
        now: float,
    ) -> None:
        self._inflight = (iteration, unit, desc)
        self.executor.send_unit(
            unit.total_bytes,
            tag=("allreduce", iteration),
            on_complete=partial(self._op_done, iteration, unit, now, desc),
            extra_time=self.scheduler.unit_sync_rtts * self.executor.tcp.rtt,
        )

    def _op_done(
        self,
        iteration: int,
        unit: TransferUnit,
        start: float,
        desc: dict[str, object] | None,
    ) -> None:
        now = self.engine.now
        self._inflight = None
        trace = self.engine.trace
        if trace.enabled:
            trace.complete(
                f"allreduce i{iteration}",
                "comm",
                start,
                now,
                self._comm_track,
                desc if desc is not None else {},
            )
        # The reduced result is now resident on every worker: the unit's
        # bytes count as both pushed and pulled, and credit-based flow
        # control replenishes as if the PS had mirrored the bytes back.
        if self._pull_feedback:
            for seg in unit.segments:
                self.scheduler.pull_completed(seg.grad, seg.nbytes, now)
        pieces = self._pieces
        for worker in self.workers:
            if worker.worker_id in self._active:
                worker._credit_pushed(pieces, unit, iteration, now)
                worker._credit_pulled(pieces, unit.segments, now)
        self.pump()


class CollectiveWorker(Worker):
    """Worker whose communication is a negotiated collective (no PS)."""

    def __init__(self, *args, controller: CollectiveController, **kwargs):
        super().__init__(*args, **kwargs)
        self.controller = controller

    # ------------------------------------------------------------------
    # Scheduler fan-out hooks (see Worker): report to the controller
    # ------------------------------------------------------------------
    def _sched_begin_iteration(self, iteration: int, sched, now: float) -> None:
        self.controller.worker_begin_iteration(self.worker_id, iteration, sched, now)

    def _sched_end_iteration(self, iteration: int, span: float, now: float) -> None:
        self.controller.worker_end_iteration(self.worker_id, iteration, span, now)

    def _sched_gradient_ready(self, grad: int, now: float) -> None:
        self.controller.worker_gradient_ready(self.worker_id, grad, now)

    def _pump_all(self) -> None:
        self.controller.pump()

    def detach(self) -> None:
        super().detach()
        self.controller = None

    # ------------------------------------------------------------------
    # Fault handling: a crashed rank leaves the ring for good
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """A crashed rank leaves the collective permanently.

        Ring membership is a one-way door here (rejoin would need a
        job-level rendezvous — re-splitting chunks, re-warming every
        link): the controller shrinks the ring over the survivors, this
        rank's pending compute events are dropped, and the rank counts as
        done so the surviving BSP group can finish without it.
        """
        if self._faults is None:  # pragma: no cover - wiring guard
            raise SimulationError(
                "CollectiveWorker.crash() without a fault injector"
            )
        if self._done:
            return
        self._suspended = True
        self._deferred.clear()
        self._done = True
        self.controller.worker_crashed(self.worker_id)
        if self._on_done is not None:
            self._on_done(self.worker_id)

    def restart(self) -> None:
        """Rejoin is refused: the ring already rebuilt without this rank
        (see :meth:`crash`); the restart event is logged and ignored."""
        if self._faults is not None:
            self._faults.record(
                "collective.rejoin_refused",
                f"worker{self.worker_id}/faults",
                {"worker": self.worker_id},
            )
