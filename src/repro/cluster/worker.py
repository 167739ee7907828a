"""Worker node: one compute pipeline plus one communication port per PS.

The worker is where the paper's dataflow comes together.  Per iteration:

1. **Forward** — layers run in order; layer ``l`` may only start once all
   of its parameter tensors were updated by the previous iteration's pull
   (this gating is the source of all GPU wait time — Eq. (2)).
2. **Backward** — runs uninterrupted (it depends on nothing remote); the
   KV store flushes gradient buckets at the stepwise times of the
   iteration's :class:`~repro.agg.kvstore.GenerationSchedule`.
3. **Push/pull** — the scheduler under test proposes push units; the PS
   mirrors each one back as a pull once BSP aggregation completes.  In the
   default shared-channel mode both directions serialize on one link
   (Constraint (8); ``u = t + 2E``), and the port arbitrates pending pulls
   against the scheduler's proposed push: by gradient priority for
   priority schedulers, by arrival order for the MXNet FIFO engine.  In
   the full-duplex ablation pulls use a separate downlink.

Per-iteration compute jitter is a log-normal factor applied to both passes
(and to the generation schedule), independent per worker — this is what
desynchronizes workers and exercises BSP straggler effects.

**Ports.**  The :class:`Worker` constructor builds the compute pipeline
alone, which :class:`~repro.cluster.collective.CollectiveWorker` inherits
unchanged; :meth:`Worker.attach_servers` then gives a PS worker its
:class:`PSPort` agents, one per parameter server, through which all of
its communication runs.  The paper's star is the one-port case; the BytePS-style
key-sharded tier (``n_servers > 1``) gives every worker one port per
shard, each with its own scheduler instance, uplink, optional downlink
and pull queue — so a head-of-line block on one shard (e.g. a large
low-priority tensor in flight) never delays another shard's urgent
gradients.  Only a port whose scheduler has a credit window (overrides
:meth:`~repro.sched.base.CommScheduler.grant_probe`: ByteScheduler) keeps
a stall timer.  The compute path and the recorder run on **global**
gradient indices; each port's scheduler, PS, and messages run on the shard's
**local** piece indices (dense, priority-ordered — see
:mod:`repro.cluster.sharding`; on the star local == global).  Ports
translate at the boundary through the worker's per-unit helpers, which
the collective controller calls too: a committed unit marks ``t(i)``
(:meth:`Worker._push_started`), a delivered push credits global
``_pushed`` bytes (:meth:`Worker._credit_pushed`), a completed pull
credits global ``_pulled`` bytes and the layer-gating counters
(:meth:`Worker._credit_pulled`), and the recorder marks fire on global
indices exactly once per gradient per iteration.  Each shard PS applies
BSP/ASP/SSP per piece and forward ``k+1`` gates on *all* global updates of
iteration ``k``, so global BSP is the conjunction of the per-shard BSP
conditions.

**Push delivery.**  Every committed push becomes a sequence-numbered
:class:`~repro.cluster.messages.PushMessage` that the PS applies at most
once, in order (:meth:`~repro.cluster.ps.ParameterServer.deliver_push`).
Its first delivery credits the push, then hands it to the PS.  Without a
:class:`~repro.faults.injector.FaultInjector` that is the first
transmission: no drop is rolled and no acknowledgement scheduled, and
every fault branch sits behind a single ``is None`` check.  **Fault
mode** adds the rest of the protocol: delivery and acknowledgement legs
can each be dropped, and unacknowledged messages retransmit under the
exponential backoff of :func:`~repro.faults.plan.retry_timeout` (the PS
recognises a retransmitted sequence number, so retries never
double-credit bytes).  Crashes suspend the worker: compute completions
occurring during the outage are deferred and replayed at restart, every
port's in-flight transfer is aborted (its bytes lost and later
retransmitted), and queued pulls survive.  A
:class:`~repro.faults.plan.ServerCrash` takes one PS down and that PS's
unacked pushes replay against the warm standby.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from functools import partial
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.agg.kvstore import GenerationSchedule
from repro.cluster.messages import PullUnit, PushMessage
from repro.cluster.sharding import ShardAssignment, ShardPiece
from repro.errors import SimulationError
from repro.faults.plan import MAX_RETRIES, retry_timeout
from repro.metrics.timeline import Recorder
from repro.models.compute import ComputeProfile
from repro.net.link import Link
from repro.sched.base import CommScheduler, TransferUnit
from repro.sim.engine import Engine

if TYPE_CHECKING:
    from repro.cluster.ps import ParameterServer

__all__ = ["Worker", "PSPort", "deliver_pulls"]

_TOL = 1e-9
#: Idle time after which a port probes a window-based scheduler.
_STALL_TIMEOUT = 5e-3


def deliver_pulls(ports: list, pulls: list[PullUnit]) -> None:
    """One PS release event: each pull to its port, in release order."""
    for pull in pulls:
        ports[pull.worker].enqueue_pull(pull)


class PSPort:
    """Communication agent of one worker towards one parameter server.

    Owns the channel logic: shared-channel arbitration between the
    scheduler's proposed push and pending pulls, priority-prefix pull
    batching, the stall probe of a credit-window scheduler, and the
    reliable-delivery endpoint — its own sequence numbers and, in fault
    mode, its retry queue and drop rolls — sharing the worker's crash
    state.  The PS's release
    events call :meth:`enqueue_pull` on the port directly (ports are what
    ``attach_workers`` receives).

    ``shard`` is ``None`` on the star: the port then traces on the
    worker's own tracks (``worker{w}/comm``); a shard port traces on
    ``worker{w}/s{shard}/...``.
    """

    def __init__(
        self,
        worker: "Worker",
        shard: int | None,
        pieces: tuple[ShardPiece, ...],
        scheduler: CommScheduler,
        channel: Link,
        downlink: Link | None,
        ps: ParameterServer,
    ):
        self.worker = worker
        self.engine = worker.engine
        self.worker_id = worker.worker_id
        self._faults = worker._faults
        self.shard = shard
        self.scheduler = scheduler
        self.channel = channel
        self.downlink = downlink
        self.ps = ps
        #: Local index -> :class:`~repro.cluster.sharding.ShardPiece`.
        self.pieces = pieces
        self._grad_of = [p.grad for p in pieces]
        prefix = f"worker{worker.worker_id}"
        self._track = prefix if shard is None else f"{prefix}/s{shard}"
        self._comm_track = f"{self._track}/comm"
        # Heap of (key, pull, arrival).  The key replicates a linear
        # ``min``/stable-``sorted`` selection exactly: priority order with
        # arrival and an insertion counter as tie-breakers, except in the
        # shared-channel FIFO mode where arrival order rules.  (A duplex
        # downlink always drains by priority, whatever the scheduler.)
        self._pull_heap: list[tuple[tuple, PullUnit, float]] = []
        self._pull_seq = itertools.count()
        self._pull_by_priority = (downlink is not None) or not scheduler.fifo_channel
        # Strategy-level blocking sync per message (see CommScheduler).
        self._sync_time = scheduler.unit_sync_rtts * channel.tcp.rtt
        # Only a scheduler that acts on a probe gets a stall timer, and
        # only one that acts on pull feedback hears of each pulled range.
        cls = type(scheduler)
        self._probes = cls.grant_probe is not CommScheduler.grant_probe
        self._pull_feedback = cls.pull_completed is not CommScheduler.pull_completed
        self._stall_timer = None
        # Push delivery state; the retry and pull-retry state stays empty
        # without a fault plan.
        self._push_seq = itertools.count()
        self._inflight_push: PushMessage | None = None
        self._retry_queue: deque[PushMessage] = deque()
        self._retry_timers: dict[int, object] = {}
        self._inflight_pulls: dict[Link, list[PullUnit]] = {}
        # Keyed by identity: a retried pull is the same object.
        self._pull_attempts: dict[PullUnit, int] = {}
        # Channel pumps re-enter via engine callbacks; wire link idleness.
        channel.on_idle = self._pump
        if downlink is not None:
            downlink.on_idle = self._pump_downlink

    # ------------------------------------------------------------------
    # Pull arrival
    # ------------------------------------------------------------------
    def enqueue_pull(self, pull: PullUnit) -> None:
        """The PS released updated parameters for this worker."""
        self._enqueue_pull_item(pull, self.engine._now)
        if self.downlink is not None:
            self._pump_downlink()
        else:
            self._pump()

    def _enqueue_pull_item(self, pull: PullUnit, arrival: float) -> None:
        if self._pull_by_priority:
            key = (pull.priority, arrival, next(self._pull_seq))
        else:
            key = (arrival, next(self._pull_seq))
        heappush(self._pull_heap, (key, pull, arrival))

    # ------------------------------------------------------------------
    # Channel pumps
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        """Drive the (shared) channel: arbitrate pulls vs the proposed push."""
        if self.worker._done or self.channel._inflight is not None:
            return
        if self._faults is not None:
            if self.worker._suspended:
                return
            # Retransmissions go first: they carry the oldest committed
            # bytes, which every BSP peer is already gated on.
            if self._transmit_next_retry():
                return
        scheduler = self.scheduler
        head = self._pull_heap[0] if self._pull_heap and self.downlink is None else None
        if head is not None:
            if scheduler.fifo_channel:
                # An arrival-order proposal starts with the oldest ready
                # gradient, so a pull that arrived no later wins without
                # proposing.
                oldest = scheduler.oldest_ready
                if oldest is None:
                    pull_first = True
                else:
                    ready = self.worker._ready_log[self._grad_of[oldest]]
                    pull_first = ready != ready or head[2] <= ready  # NaN: now
            else:
                # Every proposal carries a ready gradient, so a pull at
                # least as urgent as the most urgent one wins without
                # proposing.
                bound = scheduler.most_urgent_ready
                pull_first = bound is None or head[1].priority <= bound
            if pull_first:
                self._send_pull_batch(self.channel)
                return
        push = scheduler.propose_unit(self.engine._now)

        # A pull that lost the check above loses to an arrival-order push.
        choose_pull = head is not None and (
            push is None
            or (not scheduler.fifo_channel and head[1].priority <= push.priority)
        )

        if choose_pull:
            self._send_pull_batch(self.channel)
        elif push is not None:
            self._send_push(push)
        elif self._probes and self._stall_timer is None and scheduler.pending_bytes > 0:
            # Idle with unsent gradients and nothing to receive: arm the
            # stall timer so window-based flow control cannot wedge the
            # whole BSP ring (see CommScheduler.grant_probe).
            self._stall_timer = self.engine.schedule_after(
                _STALL_TIMEOUT, self._stall_check
            )

    def _stall_check(self) -> None:
        """Still idle a stall timeout later: grant a probe and re-pump."""
        self._stall_timer = None
        scheduler = self.scheduler
        if (
            self.worker._done
            or self.worker._suspended
            or self.channel._inflight is not None
            or self._pull_heap
            or scheduler.pending_bytes <= 0
        ):
            return
        now = self.engine._now
        trace = self.engine.trace
        if trace.enabled:
            trace.instant(
                "stall.probe",
                "sched",
                now,
                self._comm_track,
                {"pending_bytes": scheduler.pending_bytes},
            )
        scheduler.grant_probe(now)
        self._pump()

    def _pump_downlink(self) -> None:
        """Duplex ablation: pulls on their own link, by priority."""
        if (
            self.worker._done
            or self.worker._suspended
            or self.downlink._inflight is not None
            or not self._pull_heap
        ):
            return
        self._send_pull_batch(self.downlink)

    # ------------------------------------------------------------------
    # Pulls
    # ------------------------------------------------------------------
    def _send_pull_batch(self, link: Link) -> None:
        """Send the head pull (the heap front), coalescing more pending
        pulls if the strategy batches responses (``pull_batch_limit``)."""
        _, head_pull, _ = heappop(self._pull_heap)
        batch = [head_pull]
        total = head_pull.total_bytes
        now = self.engine._now
        limit = self.scheduler.pull_batch_limit(now)
        if limit is not None:
            if not self._pull_by_priority:
                raise SimulationError(
                    f"scheduler {self.scheduler.name!r} has a fifo_channel but "
                    "returned a pull batch limit; an arrival-ordered shared "
                    "channel sends pulls one at a time"
                )
            # Strict priority prefix: stop at the first unit that does not
            # fit, so no lower-priority parameter overtakes a pending one.
            heap = self._pull_heap
            while heap:
                pull = heap[0][1]
                if total + pull.total_bytes > limit:
                    break
                heappop(heap)
                batch.append(pull)
                total += pull.total_bytes
        if self._faults is not None:
            self._inflight_pulls[link] = batch
        link.send(
            total,
            tag=("pull", batch[0].iteration),
            on_complete=partial(self._pulls_done, link, batch, now),
            extra_time=self._sync_time,
        )

    def _pulls_done(self, link: Link, batch: list[PullUnit], start: float) -> None:
        now = self.engine._now
        if self._faults is not None:
            self._inflight_pulls.pop(link, None)
            if self._faults.roll_drop("pull", self.worker_id):
                self._schedule_pull_retry(batch)
                return
        worker = self.worker
        comm_iter = worker._comm_iter
        for pull in batch:
            if pull.iteration != comm_iter:
                raise SimulationError(
                    f"worker {self.worker_id} pulled iteration {pull.iteration} "
                    f"while communicating iteration {comm_iter}"
                )
            if self._pull_feedback:
                seg = pull.segment
                self.scheduler.pull_completed(seg.grad, seg.nbytes, now)
        trace = self.engine.trace
        if trace.enabled:
            grad_of = self._grad_of
            args = {
                "grads": [grad_of[p.segment.grad] for p in batch],
                "nbytes": sum(p.total_bytes for p in batch),
                "unblocked_forward": worker._forward_blocked(),
            }
            if self.shard is not None:
                args["shard"] = self.shard
            trace.complete(
                f"pull i{batch[0].iteration}",
                "comm",
                start,
                now,
                self._comm_track,
                args,
            )
        worker._credit_pulled(self.pieces, [pull.segment for pull in batch], now)
        # The link's on_idle re-pumps that link only.  A duplex downlink
        # pull may have freed scheduler credit the uplink is waiting on.
        if link is self.downlink:
            self._pump()

    # ------------------------------------------------------------------
    # Pushes
    # ------------------------------------------------------------------
    def _send_push(self, unit: TransferUnit) -> None:
        now = self.engine._now
        scheduler = self.scheduler
        scheduler.commit_unit(unit, now)
        desc: dict[str, object] | None = None
        track: str | None = None
        if self.engine.trace.enabled:
            desc = scheduler.describe_unit(unit)
            track = self._track
        worker = self.worker
        worker._push_started(self.pieces, unit, now, desc, track, self.shard)
        self._transmit_push(
            PushMessage(next(self._push_seq), worker._comm_iter, unit, desc)
        )

    # ------------------------------------------------------------------
    # Push delivery: at most once at the PS, retried under a fault plan
    # ------------------------------------------------------------------
    def _transmit_next_retry(self) -> bool:
        """Pop and retransmit the oldest pending retry.  Returns whether a
        transmission was started (the channel is now busy)."""
        while self._retry_queue:
            msg = self._retry_queue.popleft()
            if msg.acked:
                continue
            self._transmit_push(msg)
            return True
        return False

    def _transmit_push(self, msg: PushMessage) -> None:
        msg.attempts += 1
        self._inflight_push = msg
        self.channel.send(
            msg.unit.total_bytes,
            tag=("push", msg.iteration),
            on_complete=partial(self._push_attempt_done, msg, self.engine._now),
            extra_time=self._sync_time,
        )

    def _push_attempt_done(self, msg: PushMessage, start: float) -> None:
        """One transmission of ``msg`` finished occupying the link.

        The first delivery credits the push and traces its span; every
        delivery then goes through the PS's at-most-once filter.  Under a
        fault plan the delivery and acknowledgement legs may each drop,
        and an unacknowledged message retries.  BSP/ASP/SSP all gate
        forward ``k+1`` on iteration-``k`` pulls, which need this
        delivery, so the first one always lands while ``_comm_iter ==
        msg.iteration``.
        """
        self._inflight_push = None
        faults = self._faults
        if faults is not None:
            if self.ps.down:
                # ServerCrash outage: the message reaches a dead endpoint
                # and is lost wholesale; the retransmit finds the standby.
                faults.count("lost_pushes")
                self._arm_retry(msg)
                return
            if faults.roll_drop("push", self.worker_id):
                self._arm_retry(msg)
                return
        if not msg.delivered:
            msg.delivered = True
            now = self.engine._now
            self.worker._credit_pushed(self.pieces, msg.unit, msg.iteration, now)
            trace = self.engine.trace
            if trace.enabled:
                trace.complete(
                    f"push i{msg.iteration}",
                    "comm",
                    start,
                    now,
                    self._comm_track,
                    msg.desc,
                )
        if not self.ps.deliver_push(self.worker_id, msg.iteration, msg.unit, msg.seq):
            # Only a retransmission can be a duplicate, so a plan is set.
            faults.count("duplicate_pushes")
        if faults is None:
            return
        if faults.roll_drop("ack", self.worker_id):
            # Delivered but unacknowledged: the retransmission will reach
            # the PS as a duplicate and exercise the at-most-once filter.
            self._arm_retry(msg)
        else:
            self.worker._schedule_after(self.channel.tcp.rtt, self._push_acked, msg)

    def _push_acked(self, msg: PushMessage) -> None:
        if msg.acked:
            return
        msg.acked = True
        timer = self._retry_timers.pop(msg.seq, None)
        if timer is not None:
            timer.cancel()

    def _arm_retry(self, msg: PushMessage) -> None:
        if msg.attempts > MAX_RETRIES:
            raise SimulationError(
                f"worker {self.worker_id} push seq {msg.seq} exhausted "
                f"{MAX_RETRIES} retries (iteration {msg.iteration})"
            )
        delay = retry_timeout(msg.attempts - 1)
        self._retry_timers[msg.seq] = self.engine.schedule_after(
            delay, self._retry_timeout, msg
        )

    def _retry_timeout(self, msg: PushMessage) -> None:
        self._retry_timers.pop(msg.seq, None)
        if msg.acked or self.worker._done:
            return
        self._faults.count("push_retries")
        self._retry_queue.append(msg)
        self._pump()

    # ------------------------------------------------------------------
    # Reliable pull delivery (fault mode)
    # ------------------------------------------------------------------
    def _schedule_pull_retry(self, batch: list[PullUnit]) -> None:
        """A pull response was lost: re-request the whole batch after the
        retry backoff (the PS already released it; nothing re-credits)."""
        self._faults.count("pull_retries")
        attempt = 1
        for pull in batch:
            n = self._pull_attempts.get(pull, 0) + 1
            if n > MAX_RETRIES:
                raise SimulationError(
                    f"worker {self.worker_id} pull for gradient "
                    f"{pull.segment.grad} (iteration {pull.iteration}) "
                    f"exhausted {MAX_RETRIES} retries"
                )
            self._pull_attempts[pull] = n
            attempt = max(attempt, n)
        delay = retry_timeout(attempt - 1)
        self.engine.schedule_after(delay, self._requeue_pulls, batch)

    def _requeue_pulls(self, batch: list[PullUnit]) -> None:
        if self.worker._done:
            return
        now = self.engine._now
        for pull in batch:
            self._enqueue_pull_item(pull, now)
        if self.downlink is not None:
            self._pump_downlink()
        self._pump()

    def abort(self) -> None:
        """The worker crashed: abort this port's in-flight traffic.

        The in-flight push's bytes are lost (the PS never credits a
        partial message) and the message re-enters the retry queue; an
        in-flight pull batch is re-queued for redelivery.
        """
        if self._stall_timer is not None:
            self._stall_timer.cancel()
            self._stall_timer = None
        for link in (self.channel, self.downlink):
            if link is None:
                continue
            tag = link.abort()
            if tag is None:
                continue
            kind = tag[0] if isinstance(tag, tuple) else None
            if kind == "push" and self._inflight_push is not None:
                self._retry_queue.append(self._inflight_push)
                self._inflight_push = None
            elif kind == "pull":
                batch = self._inflight_pulls.pop(link, None)
                if batch:
                    now = self.engine._now
                    for pull in batch:
                        self._enqueue_pull_item(pull, now)

    def detach(self) -> None:
        """Drop the back-edges of a finished port: its links' idle
        callbacks (this port's pumps) and its worker and server."""
        self.channel.on_idle = None
        if self.downlink is not None:
            self.downlink.on_idle = None
        self.worker = None
        self.ps = None


class Worker:
    """One worker node: a compute pipeline plus one :class:`PSPort` per
    PS (one on the star, one per key shard on the sharded tier), built by
    :meth:`attach_servers`."""

    #: Communication ports (a collective worker has none).
    _ports: "list[PSPort] | tuple[()]" = ()

    def __init__(
        self,
        engine: Engine,
        worker_id: int,
        compute: ComputeProfile,
        gen_schedule: GenerationSchedule,
        recorder: Recorder,
        n_iterations: int,
        jitter_rng: np.random.Generator,
        jitter_std: float = 0.0,
        compute_scale: float = 1.0,
        on_done: Callable[[int], None] | None = None,
        faults=None,
    ):
        self.engine = engine
        self.worker_id = worker_id
        self.compute = compute
        self.gen_schedule = gen_schedule
        self.recorder = recorder
        self.n_iterations = n_iterations
        self._jitter_rng = jitter_rng
        self._jitter_std = jitter_std
        self._compute_scale = compute_scale
        self._on_done = on_done

        # Each gradient's layer, in gradient_table's forward order.
        layers = compute.model.layers
        self._layer_of = [i for i, layer in enumerate(layers) for _ in layer.params]
        self._n_grads = len(self._layer_of)
        self._layer_tensor_counts = [len(layer.params) for layer in layers]
        self._sizes = [float(s) for s in gen_schedule.sizes]

        # Per-iteration state (set in _begin_forward/_begin_backward).
        self._iter = -1
        self._comm_iter = -1
        self._factor = 1.0
        self._fwd_layer = 0
        self._fwd_chunk_pending = False
        self._fwd_start_times: list[float] = []
        self._layer_pending = [0] * len(self._layer_tensor_counts)
        self._pending_updates = 0
        self._pulled = [0.0] * self._n_grads
        self._pushed = [0.0] * self._n_grads
        self._iter_rec = None
        self._compute_done = False
        self._done = False

        # Crash/suspension state is worker-wide (one compute pipeline).
        # ``None`` keeps ``_schedule_after`` on the fault-free fast path.
        self._faults = faults
        self._suspended = False
        self._deferred: list[tuple[Callable, tuple]] = []

    def attach_servers(
        self,
        assignment: ShardAssignment,
        shard_schedules: list[GenerationSchedule],
        schedulers: list[CommScheduler],
        channels: list[Link],
        downlinks: list[Link] | None,
        servers: list[ParameterServer],
    ) -> None:
        """Build one :class:`PSPort` per server of ``assignment``'s tier,
        each with its shard's schedule template, scheduler, uplink and
        (duplex) downlink."""
        n_shards = assignment.n_servers
        if not (
            len(shard_schedules) == len(schedulers) == len(channels)
            == len(servers) == n_shards
        ) or (downlinks is not None and len(downlinks) != n_shards):
            raise SimulationError(
                f"worker {self.worker_id}: PS wiring mismatch ({n_shards} servers)"
            )
        #: Per-port generation schedule templates (scaled per iteration by
        #: the jitter factor); the star's one template is ``gen_schedule``.
        self._shard_schedules = list(shard_schedules)
        self._ports = [
            PSPort(
                self,
                shard=None if n_shards == 1 else s,
                pieces=assignment.by_shard[s],
                scheduler=schedulers[s],
                channel=channels[s],
                downlink=downlinks[s] if downlinks is not None else None,
                ps=servers[s],
            )
            for s in range(n_shards)
        ]
        #: Global gradient -> its pieces (shared by every worker).
        self._grad_pieces = assignment.by_grad

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        """All iterations computed and the final parameters pulled."""
        return self._done

    @property
    def fwd_start_times(self) -> list[float]:
        """Forward-start timestamps (iteration boundaries)."""
        return list(self._fwd_start_times)

    def detach(self) -> None:
        """Drop the back-edges of a finished worker (its done callback and
        its ports'), so the run's object graph is acyclic.  Only once no
        event of the run is left to fire."""
        self._on_done = None
        for port in self._ports:
            port.detach()

    def port(self, shard: int) -> PSPort:
        """The comm agent towards PS ``shard`` (what that PS attaches to)."""
        return self._ports[shard]

    def start(self) -> None:
        """Kick off iteration 0 at the current simulation time."""
        self.engine.schedule(self.engine.now, self._begin_forward, 0)

    # ------------------------------------------------------------------
    # Scheduler fan-out hooks: every compute-side event reaches each
    # port's scheduler on the port's local indices.  The collective worker
    # overrides these to report to its controller instead.
    # ------------------------------------------------------------------
    def _sched_begin_iteration(self, iteration: int, sched, now: float) -> None:
        # ``sched`` is the globally scaled schedule; a shard's restricted
        # template is scaled by the same jitter factor.
        for port, template in zip(self._ports, self._shard_schedules):
            scaled = (
                sched if template is self.gen_schedule
                else template.scaled(self._factor)
            )
            port.scheduler.begin_iteration(iteration, scaled, now)

    def _sched_end_iteration(self, iteration: int, span: float, now: float) -> None:
        for port in self._ports:
            port.scheduler.end_iteration(iteration, span, now)

    def _sched_gradient_ready(self, grad: int, now: float) -> None:
        for piece in self._grad_pieces[grad]:
            self._ports[piece.shard].scheduler.gradient_ready(piece.local, now)

    def _pump_all(self) -> None:
        for port in self._ports:
            port._pump()

    # ------------------------------------------------------------------
    # Fault handling: crash/restart and deferred-event plumbing
    # ------------------------------------------------------------------
    def _schedule_after(self, delay: float, fn: Callable[..., None], *args):
        """Engine schedule that respects crash suspension in fault mode."""
        if self._faults is None:
            return self.engine.schedule_after(delay, fn, *args)
        return self.engine.schedule_after(delay, self._guarded, fn, *args)

    def _guarded(self, fn: Callable[..., None], *args) -> None:
        """During an outage, completions queue up and replay at restart."""
        if self._suspended:
            self._deferred.append((fn, args))
        else:
            fn(*args)

    def crash(self) -> None:
        """Crash the worker: abort every port's in-flight traffic, freeze
        compute.  Compute events that complete during the outage are
        deferred by :meth:`_guarded` and replayed, in order, at
        :meth:`restart`."""
        self._suspended = True
        for port in self._ports:
            port.abort()

    def restart(self) -> None:
        """Return from an outage: replay deferred completions, resume
        communication (retransmits first)."""
        self._suspended = False
        deferred, self._deferred = self._deferred, []
        for fn, args in deferred:
            fn(*args)
        for port in self._ports:
            if port.downlink is not None:
                port._pump_downlink()
            port._pump()

    # ------------------------------------------------------------------
    # Forward propagation
    # ------------------------------------------------------------------
    def _begin_forward(self, iteration: int) -> None:
        now = self.engine.now
        if iteration > 0:
            span = now - self._fwd_start_times[-1]
            self._sched_end_iteration(iteration - 1, span, now)
        self._iter = iteration
        self._fwd_start_times.append(now)
        self._factor = self._compute_scale * math.exp(
            self._jitter_std * float(self._jitter_rng.standard_normal())
        )
        self._iter_rec = self.recorder.iteration_record(self.worker_id, iteration)
        self.recorder.iter_field(self._iter_rec, "fwd_start", now)
        self._fwd_layer = 0
        self._advance_forward()

    def _advance_forward(self) -> None:
        """Run consecutive layers whose parameters are ready; else wait."""
        if self._fwd_chunk_pending:
            return
        n_layers = len(self.compute.fwd_times)
        start = self._fwd_layer
        if start >= n_layers:
            return
        end = start
        while end < n_layers and self._layer_pending[end] == 0:
            end += 1
        if end == start:
            return  # GPU idles until the gating pull completes
        duration = float(self.compute.fwd_times[start:end].sum()) * self._factor
        now = self.engine.now
        self.recorder.gpu_busy(self.worker_id, self._iter, "fwd", now, now + duration)
        self._fwd_chunk_pending = True
        self._schedule_after(duration, self._forward_chunk_done, end)

    def _forward_chunk_done(self, next_layer: int) -> None:
        self._fwd_chunk_pending = False
        self._fwd_layer = next_layer
        if next_layer >= len(self.compute.fwd_times):
            self._begin_backward()
        else:
            self._advance_forward()

    # ------------------------------------------------------------------
    # Backward propagation
    # ------------------------------------------------------------------
    def _begin_backward(self) -> None:
        now = self.engine.now
        iteration = self._iter
        assert self._iter_rec is not None
        self.recorder.iter_field(self._iter_rec, "fwd_end", now)

        sched = self.gen_schedule.scaled(self._factor)
        self._comm_iter = iteration
        # Reset pull gating for the *next* forward pass.
        self._layer_pending = list(self._layer_tensor_counts)
        self._pending_updates = self._n_grads
        self._pulled = [0.0] * self._n_grads
        self._pushed = [0.0] * self._n_grads
        # This pass's mark columns; its ports and the controller write them too.
        log = self.recorder.gradient_log(self.worker_id, iteration, self._n_grads)
        self._ready_log, self._push_start_log = log[0], log[1]
        self._push_end_log, self._pull_end_log = log[2], log[3]

        self._sched_begin_iteration(iteration, sched, now)
        backward_time = sched.backward_time
        self.recorder.gpu_busy(
            self.worker_id, iteration, "bwd", now, now + backward_time
        )
        if self._faults is not None:
            # The previous iteration is fully applied: reset per-pull
            # retry counters.
            for port in self._ports:
                port._pull_attempts.clear()
        for bucket in sched.buckets:
            flush_time = float(sched.c[bucket[0]])
            self._schedule_after(flush_time, self._bucket_ready, iteration, bucket)
        self._schedule_after(backward_time, self._backward_done, iteration)

    def _bucket_ready(self, iteration: int, bucket: tuple[int, ...]) -> None:
        now = self.engine.now
        trace = self.engine.trace
        if trace.enabled:
            trace.instant(
                f"flush g{bucket[0]}" if len(bucket) == 1 else f"flush g{bucket[0]}+",
                "kv",
                now,
                f"worker{self.worker_id}/assembly",
                {"iteration": iteration, "grads": list(bucket)},
            )
        for grad in bucket:
            self._sched_gradient_ready(grad, now)
            self._ready_log[grad] = now
        self._pump_all()

    def _backward_done(self, iteration: int) -> None:
        assert self._iter_rec is not None
        self.recorder.iter_field(self._iter_rec, "bwd_end", self.engine.now)
        if iteration + 1 < self.n_iterations:
            self._begin_forward(iteration + 1)
        else:
            span = self.engine.now - self._fwd_start_times[-1]
            self._sched_end_iteration(iteration, span, self.engine.now)
            self._compute_done = True
            self._check_done()

    # ------------------------------------------------------------------
    # Unit bookkeeping.  A port or the collective controller calls each
    # helper once per unit; ``pieces`` maps the caller's local indices to
    # global gradients (the star's identity map on the collective).
    # ------------------------------------------------------------------
    def _forward_blocked(self) -> bool:
        """Forward is waiting on a gating pull (not mid-chunk, not done)."""
        return (
            self._fwd_layer < len(self.compute.fwd_times)
            and not self._fwd_chunk_pending
        )

    def _push_started(
        self,
        pieces: tuple[ShardPiece, ...],
        unit: TransferUnit,
        now: float,
        desc: dict[str, object] | None,
        track: str | None,
        shard: int | None = None,
    ) -> None:
        """``unit`` was committed: mark ``t(i)`` of every gradient whose
        true first byte (global offset 0, on exactly one shard) it carries.

        With a ``track`` (only while tracing) also trace the unit's
        assembly span, from the first flush of any gradient in the unit to
        the send — the window the scheduler spent packing (or deliberately
        idling, for Prophet) — and a wait span (the paper's ``t(i) −
        c(i)``, Fig. 11's wait time) for each gradient entering the
        channel for the first time.
        """
        log = self._push_start_log
        for seg in unit.segments:
            if seg.offset <= _TOL:
                piece = pieces[seg.grad]
                if piece.offset <= _TOL:
                    log[piece.grad] = now
        if track is None:
            return
        trace = self.engine.trace
        ready_log = self._ready_log
        readies = [ready_log[pieces[seg.grad].grad] for seg in unit.segments]
        readies = [r for r in readies if r == r]  # NaN: not ready yet
        trace.complete(
            f"assemble p{unit.priority}",
            "assembly",
            min(readies) if readies else now,
            now,
            f"{track}/assembly",
            desc,
        )
        for seg in unit.segments:
            if seg.offset > _TOL:
                continue
            piece = pieces[seg.grad]
            ready = ready_log[piece.grad]
            if now > ready:
                args = {"grad": piece.grad, "iteration": self._comm_iter}
                if shard is not None:
                    args["part"] = piece.part
                    args["shard"] = shard
                trace.complete(
                    f"wait g{piece.grad}", "wait", ready, now, f"{track}/wait", args
                )

    def _credit_pushed(
        self,
        pieces: tuple[ShardPiece, ...],
        unit: TransferUnit,
        iteration: int,
        now: float,
    ) -> None:
        """Every byte of ``unit`` left this worker: credit pushed bytes and
        mark the last push byte of each gradient it completes."""
        if iteration != self._comm_iter:
            raise SimulationError(
                f"worker {self.worker_id} credited iteration {iteration} "
                f"while communicating iteration {self._comm_iter}"
            )
        pushed = self._pushed
        sizes = self._sizes
        log = self._push_end_log
        for seg in unit.segments:
            grad = pieces[seg.grad].grad
            pushed[grad] += seg.nbytes
            if pushed[grad] >= sizes[grad] - _TOL:
                log[grad] = now

    def _credit_pulled(
        self, pieces: tuple[ShardPiece, ...], segments, now: float
    ) -> None:
        """Updated parameters for ``segments`` arrived: credit pulled
        bytes; a gradient whose every byte arrived marks ``u(i)`` and
        releases its share of its layer's forward gate.  A forward pass
        blocked on the gate resumes."""
        forward_was_blocked = self._forward_blocked()
        pulled = self._pulled
        sizes = self._sizes
        for seg in segments:
            grad = pieces[seg.grad].grad
            pulled[grad] += seg.nbytes
            if pulled[grad] >= sizes[grad] - _TOL:
                self._pull_end_log[grad] = now
                layer = self._layer_of[grad]
                self._layer_pending[layer] -= 1
                self._pending_updates -= 1
                if self._layer_pending[layer] < 0:
                    raise SimulationError(
                        f"worker {self.worker_id}: layer {layer} over-updated"
                    )
        if forward_was_blocked and self._iter == self._comm_iter + 1:
            self._advance_forward()
        self._check_done()

    def _check_done(self) -> None:
        if self._done or not self._compute_done:
            return
        if self._pending_updates == 0:
            self._done = True
            if self._on_done is not None:
                self._on_done(self.worker_id)
