"""Parameter server: gradient aggregation under BSP, ASP, or SSP.

The PS keeps, per ``(iteration, gradient)``, the cumulative bytes received
from each worker, and releases each worker's pull (the mirrored response
for a pushed segment, after the update cost) according to the
synchronization model:

* **BSP** (the paper's setting): a byte range is released once *every*
  worker has delivered it — the slowest worker gates every update, at the
  finest granularity the strategy produced.  (Workers push a gradient's
  bytes strictly in order, so cumulative counts describe ranges exactly.)
* **ASP** (the paper's future-work item 1): the server applies each
  worker's gradient as it arrives and responds immediately — a worker's
  pull waits only for its *own* push.  Workers drift freely.
* **SSP** (bounded staleness, cf. the paper's Sec. 6.2 discussion of
  R2SP/DSSP): like ASP, but worker ``w``'s pull for iteration ``k``
  waits until every worker has *completed pushing that gradient* for
  iteration ``k - staleness - 1`` — i.e. the fastest worker's clock
  (completed iterations) may exceed the slowest by at most ``staleness``.

Both waiting rules have the form ``watermark >= need``: under BSP the
watermark is ``min(received)`` of the pull's ``(iteration, grad)`` key and
``need`` the pull's end offset; under SSP it is ``min(progress)`` of the
gradient and ``need`` the oldest iteration every worker must have
completed.  Waiting pulls therefore sit in one min-heap per watermark key
ordered by ``(need, arrival seq)``: a push computes each touched key's
watermark once and pops exactly the pulls it releases, so its cost scales
with the releases, not with the pulls still waiting.

A push's releases reach the workers as one release event per push
(:func:`~repro.cluster.worker.deliver_pulls`, DESIGN §2).
BSP aggregation state is grouped by iteration; settled ones drop whole.
"""

from __future__ import annotations

import heapq
import itertools
from operator import itemgetter

import numpy as np

from repro.cluster.messages import PullUnit
from repro.cluster.worker import deliver_pulls
from repro.errors import ConfigurationError, SimulationError
from repro.sched.base import TransferUnit
from repro.sim.engine import Engine

__all__ = ["ParameterServer", "SYNC_MODES"]

_TOL = 1e-9

SYNC_MODES = ("bsp", "asp", "ssp")

#: Sort key of a waiting-heap entry ``(need, seq, pull)`` by arrival.
_SEQ = itemgetter(1)

#: Seconds between a pull's release and its response: the server-side
#: update (calibration: one CPU optimizer step, whatever the key's size).
UPDATE_DELAY = 100e-6


class ParameterServer:
    """Aggregates pushes from ``n_workers`` and releases per-key pulls."""

    def __init__(
        self,
        engine: Engine,
        n_workers: int,
        sizes: np.ndarray,
        sync_mode: str = "bsp",
        staleness: int = 2,
        faults=None,
        name: str = "ps",
        server_index: int | None = None,
    ):
        if sync_mode not in SYNC_MODES:
            raise ConfigurationError(
                f"sync_mode must be one of {SYNC_MODES}, got {sync_mode!r}"
            )
        if staleness < 0:
            raise ConfigurationError(f"staleness must be >= 0, got {staleness}")
        self.engine = engine
        self.n_workers = n_workers
        #: Trace-track label; shard ``s`` of a sharded tier is ``"ps{s}"``.
        self.name = name
        self.sizes = np.asarray(sizes, dtype=float)
        # Scalar-indexed copy for the per-segment hot loop (indexing a
        # numpy array boxes a fresh np.float64 per lookup).
        self._sizes_list: list[float] = self.sizes.tolist()
        self.sync_mode = sync_mode
        self.staleness = staleness
        #: Optional :class:`~repro.faults.injector.FaultInjector`; when set,
        #: pull releases absorb PS-stall windows.
        self._faults = faults
        #: Shard index in a sharded tier (scopes per-server PS stalls);
        #: ``None`` on the single-PS star.
        self.server_index = server_index
        # ServerCrash outage state: while down, the delivery layer treats
        # in-flight pushes as lost (workers retry them against the warm
        # standby once it answers).  Durable (acked) aggregation state
        # survives the hand-off untouched.
        self._down = False
        # Reliable-delivery receiver state: next sequence number to apply
        # per worker, plus per-worker reorder buffers for messages that
        # arrived ahead of a dropped predecessor (empty without faults).
        self._next_seq: list[int] = [0] * n_workers
        self._reorder: list[dict[int, tuple[int, TransferUnit]]] = [
            {} for _ in range(n_workers)
        ]
        # iteration -> grad -> per-worker cumulative bytes received.
        # Plain lists: the hot loop only ever does scalar reads/writes and
        # min() reductions, where numpy's per-element boxing dominates.
        self._received: dict[int, dict[int, list[float]]] = {}
        # grad -> per-worker latest iteration fully pushed (-1 = none);
        # kept under ASP/SSP only, the modes whose releases read it.
        self._progress: dict[int, list[int]] = {}
        # Watermark key -> min-heap of waiting ``(need, seq, pull)``; the
        # key is ``(iteration, grad)`` under BSP and ``grad`` under SSP
        # (ASP pulls never wait).  Empty heaps are deleted, so ``len``
        # counts the keys with waiting pulls.
        self._waiting: dict = {}
        # Arrival order of waiting pulls: releases within a key go out in
        # it, exactly as a per-gradient list scan would.
        self._pull_seq = itertools.count()
        # Count of units across _waiting — O(1) pending_pulls.
        self._n_waiting = 0
        self._workers: list = []
        #: Total gradient bytes pushed to the PS (all workers, all iters).
        self.total_push_bytes = 0.0
        #: Observed gradient staleness (iterations) at each pull release
        #: under ASP/SSP: how far the slowest contributor lagged the
        #: pulling worker.  Always 0 under BSP (not recorded).  Feeds the
        #: convergence analysis (:mod:`repro.convergence`).
        self.staleness_samples: list[int] = []

    @property
    def down(self) -> bool:
        """True inside a :class:`~repro.faults.plan.ServerCrash` outage."""
        return self._down

    def fail(self) -> None:
        """Enter a ServerCrash outage: stop answering pushes."""
        self._down = True

    def recover(self) -> None:
        """Warm standby takes over with the durable (acked) state."""
        self._down = False

    def attach_workers(self, workers: list) -> None:
        """Late-bind each worker's port towards this PS (ports need the PS
        at construction)."""
        if len(workers) != self.n_workers:
            raise SimulationError(
                f"expected {self.n_workers} workers, got {len(workers)}"
            )
        self._workers = list(workers)

    # ------------------------------------------------------------------
    def deliver_push(
        self, worker: int, iteration: int, unit: TransferUnit, seq: int
    ) -> bool:
        """Every push's entry point: receive ``unit`` at most once, apply
        strictly in per-worker sequence order.

        A retransmission whose original was already received (its ack was
        lost) is recognised by ``seq`` and **not** re-credited — the
        conservation laws hold across arbitrary retries.  A message that
        overtook a dropped predecessor (the worker slices gradients, so a
        later partition may carry a higher offset) is parked in a reorder
        buffer and applied once the gap fills, preserving the cumulative
        per-gradient offset invariant of :meth:`receive_push`.  Returns
        ``True`` when the push was newly received (applied or buffered),
        ``False`` for a duplicate.
        """
        pending = self._reorder[worker]
        if seq == self._next_seq[worker] and not pending:
            # In order with no gap behind it: every fault-free push.
            self._next_seq[worker] = seq + 1
            self.receive_push(worker, iteration, unit)
            return True
        trace = self.engine.trace
        if seq < self._next_seq[worker] or seq in pending:
            if trace.enabled:
                trace.instant(
                    "push.duplicate",
                    "fault",
                    self.engine.now,
                    self.name,
                    {"worker": worker, "seq": seq, "iteration": iteration},
                )
            return False
        pending[seq] = (iteration, unit)
        if seq != self._next_seq[worker]:
            if trace.enabled:
                trace.instant(
                    "push.reordered",
                    "fault",
                    self.engine.now,
                    self.name,
                    {"worker": worker, "seq": seq, "expected": self._next_seq[worker]},
                )
            return True
        while self._next_seq[worker] in pending:
            queued_iter, queued_unit = pending.pop(self._next_seq[worker])
            self._next_seq[worker] += 1
            self.receive_push(worker, queued_iter, queued_unit)
        return True

    def receive_push(self, worker: int, iteration: int, unit: TransferUnit) -> None:
        """A push message from ``worker`` arrived: credit bytes, respond
        per key.

        Release order: the pusher's own pulls first, in segment order,
        each as soon as its segment is credited; then, per touched
        gradient in ``touched`` set order, the waiting pulls the new
        watermark covers, in arrival order.
        """
        bsp = self.sync_mode == "bsp"
        all_received = self._received
        iter_received = all_received.get(iteration)
        if iter_received is None:
            iter_received = all_received[iteration] = {}
            if bsp:
                # Under BSP the first push for iteration k implies every
                # worker fully pushed (and was released for) iteration
                # k-1: the pusher's forward pass gated on its k-1 pulls,
                # which gate on full coverage by all workers.  Iterations
                # at or below k-2 can never be written or queried again —
                # drop them, so the state stays bounded by two iterations.
                for stale in [i for i in all_received if i <= iteration - 2]:
                    del all_received[stale]
        # ASP/SSP: the pusher's own bytes are in, so only the staleness bound
        # holds a pull back: iteration k needs the slowest worker to have
        # completed k - s - 1 (clock k - s).  ASP's -1 bound is always met.
        ssp_need = -1 if self.sync_mode == "asp" else iteration - self.staleness - 1
        waiting = self._waiting
        touched: set[int] = set()
        # BSP: grad -> the (iteration, grad) watermark after this push's
        # last segment of it — what the release sweep below compares to.
        marks: dict[int, float] = {}
        released: list[PullUnit] = []
        for seg in unit.segments:
            grad = seg.grad
            offset = seg.offset
            nbytes = seg.nbytes
            received = iter_received.get(grad)
            if received is None:
                received = iter_received[grad] = [0.0] * self.n_workers
            size = self._sizes_list[grad]
            got = received[worker]
            if abs(got - offset) > max(_TOL, 1e-6 * nbytes):
                raise SimulationError(
                    f"worker {worker} pushed gradient {grad} (iter {iteration}) "
                    f"at offset {offset}, expected {got}"
                )
            got += nbytes
            received[worker] = got
            if got > size * (1 + 1e-9) + _TOL:
                raise SimulationError(
                    f"worker {worker} over-pushed gradient {grad}: "
                    f"{got} of {size} bytes"
                )
            self.total_push_bytes += nbytes
            touched.add(grad)

            pull = PullUnit(worker, iteration, seg)
            if bsp:
                mark = marks[grad] = min(received)
                need = offset + nbytes - _TOL
            else:
                if got >= size - _TOL:
                    progress = self._progress.get(grad)
                    if progress is None:
                        progress = self._progress[grad] = [-1] * self.n_workers
                    if iteration > progress[worker]:
                        progress[worker] = iteration
                mark = self._slowest(grad)
                need = ssp_need
            if mark >= need:
                if not bsp:
                    self.staleness_samples.append(max(0, iteration - 1 - mark))
                released.append(pull)
            else:
                key = (iteration, grad) if bsp else grad
                heap = waiting.get(key)
                if heap is None:
                    heap = waiting[key] = []
                heapq.heappush(heap, (need, next(self._pull_seq), pull))
                self._n_waiting += 1

        # Newly credited bytes may unblock waiting pulls for these keys
        # (other workers under BSP; stale followers under SSP).  Under
        # BSP only this push's (iteration, grad) keys changed; every other
        # key's pulls were already tested against its final watermark.
        for grad in touched:
            key = (iteration, grad) if bsp else grad
            heap = waiting.get(key)
            if heap is None:
                continue
            mark = marks[grad] if bsp else self._slowest(grad)
            if heap[0][0] > mark:
                continue
            ready = [heapq.heappop(heap)]
            while heap and heap[0][0] <= mark:
                ready.append(heapq.heappop(heap))
            if not heap:
                del waiting[key]
            self._n_waiting -= len(ready)
            ready.sort(key=_SEQ)
            for _, _, pull in ready:
                if not bsp:
                    self.staleness_samples.append(max(0, pull.iteration - 1 - mark))
                released.append(pull)
        if released:
            self._release(released)

        trace = self.engine.trace
        if trace.enabled:
            trace.counter(
                "ps.pending_pulls",
                "ps",
                self.engine.now,
                self.name,
                {"pending": self.pending_pulls},
            )

    # ------------------------------------------------------------------
    def _slowest(self, grad: int) -> int:
        """Latest iteration of ``grad`` every worker fully pushed (-1 = none)."""
        progress = self._progress.get(grad)
        return min(progress) if progress is not None else -1

    def _release(self, pulls: list[PullUnit]) -> None:
        """Respond to one push's released pulls, in release order: one
        :func:`deliver_pulls` event per push, after the update delay (and
        any PS stall)."""
        engine = self.engine
        now = engine._now
        trace = engine.trace
        if trace.enabled:
            for pull in pulls:
                trace.instant(
                    f"release g{pull.segment.grad}",
                    "ps",
                    now,
                    self.name,
                    {
                        "worker": pull.worker,
                        "iteration": pull.iteration,
                        "grad": pull.segment.grad,
                        "nbytes": pull.segment.nbytes,
                    },
                )
        stall = 0.0
        if self._faults is not None:
            stall = self._faults.ps_release_delay(now, self.server_index)
        engine.schedule_after(UPDATE_DELAY + stall, deliver_pulls, self._workers, pulls)

    # ------------------------------------------------------------------
    def aggregated_bytes(self, iteration: int, grad: int) -> float:
        """Bytes of ``grad`` aggregated from all workers in ``iteration``."""
        received = self._received.get(iteration, {}).get(grad)
        return min(received) if received is not None else 0.0

    @property
    def pending_pulls(self) -> int:
        """Pull units still waiting on aggregation/staleness.  O(1)."""
        return self._n_waiting
