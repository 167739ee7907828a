"""Scheduler interface: the one owner of per-iteration gradient state.

The worker's communication agent (a PS port, or the collective controller)
drives its scheduler through these hooks:

* :meth:`CommScheduler.begin_iteration` — backward propagation is starting;
  the per-iteration push state resets (all of the previous iteration's
  traffic is necessarily finished by then, because the next backward pass
  can only start after the next forward pass, which needs every parameter).
* :meth:`CommScheduler.gradient_ready` — the KV store flushed gradient
  ``i``; it may now be pushed.
* :meth:`CommScheduler.propose_unit` — the uplink is idle; return the next
  :class:`TransferUnit` to send, or ``None`` to deliberately leave the link
  idle (Prophet does this to protect an imminent higher-priority gradient).
  The agent calls :meth:`CommScheduler.commit_unit` if it sends the unit,
  then (only while tracing) :meth:`CommScheduler.describe_unit`.
* :meth:`CommScheduler.pull_batch_limit` — a PS port is about to send
  pull responses and asks how many bytes one message may carry.
* :meth:`CommScheduler.pull_completed` — updated bytes came back: a PS
  port calls it only for a scheduler whose class overrides it, the
  collective controller for every segment of every finished operation.
* :meth:`CommScheduler.grant_probe` — a PS port's channel stalled; called
  only for a scheduler whose class overrides it.
* :meth:`CommScheduler.end_iteration` — the iteration finished.

:meth:`CommScheduler.unit_sent` is called by nothing in the package.

A :class:`TransferUnit` is one serialized network message: it pays one TCP
setup (handshake + slow start) regardless of how many gradient segments it
carries.  This is the cost model that separates the four strategies — P3
pays setup per small partition, ByteScheduler per credit batch, Prophet per
stepwise block, FIFO per whole tensor.

The base class keeps every signalled gradient's un-pushed bytes, in both
orders a strategy selects from: priority order (:attr:`ready_grads`,
most urgent first — P3, ByteScheduler, Prophet's plan) and generation
order (:meth:`ready_by_arrival`, the order the KV store flushed them,
headed by :attr:`oldest_ready` — FIFO, MG-WFBP and Prophet's warm-up).  Segments and units are plain
records; :meth:`CommScheduler.commit_unit` checks each committed segment
once (the unit is not empty, the gradient is ready, the segment has
bytes, continues exactly where the last one ended and does not overrun
the gradient), so concrete strategies contain only policy.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from typing import Iterator

from repro.agg.kvstore import GenerationSchedule
from repro.errors import SchedulingError

__all__ = ["Segment", "TransferUnit", "CommScheduler"]


@dataclass(slots=True)
class Segment:
    """A contiguous byte range of one gradient inside a transfer unit."""

    grad: int
    offset: float
    nbytes: float


class TransferUnit:
    """One network message: an ordered tuple of gradient segments.

    ``total_bytes`` and ``priority`` (the most urgent gradient carried,
    i.e. the min index; -1 for an empty unit, which no commit accepts)
    are fixed when the unit is built.
    """

    __slots__ = ("segments", "total_bytes", "priority")

    def __init__(self, segments: tuple[Segment, ...]) -> None:
        self.segments = segments
        self.total_bytes = sum([s.nbytes for s in segments])
        self.priority = min([s.grad for s in segments], default=-1)

    @property
    def grads(self) -> tuple[int, ...]:
        return tuple(s.grad for s in self.segments)


class CommScheduler:
    """Base class: per-iteration gradient state plus the strategy hook.

    Subclasses implement :meth:`_select`, which reads the ready gradients
    (those with un-pushed bytes) in either order and returns the next unit.

    The worker uses a propose/commit protocol: :meth:`propose_unit` returns
    the unit the scheduler *would* send without consuming it; if the worker
    picks the push over a pending pull it calls :meth:`commit_unit`, which
    validates the unit and debits its bytes.  (Push and pull share one
    serialized channel — the paper's Constraint (8) and the ``2E`` in
    Eq. (4) — so the worker must arbitrate between them.)
    """

    #: Human-readable strategy name (used in reports and legends).
    name: str = "base"

    #: True for strategies whose channel is a pure arrival-order queue
    #: (default MXNet).  The worker then interleaves pushes and pulls
    #: FIFO instead of by priority, one pull per message: on a shared
    #: channel such a strategy must return ``None`` from
    #: :meth:`pull_batch_limit`.
    fifo_channel: bool = False

    #: Extra RTTs of blocking synchronization charged per message in each
    #: direction.  0 for pipelined engines (MXNet streams sends; BytePS's
    #: credit keeps the window full); P3/TicTac "rely on the blocking call
    #: of TCP protocol" (paper Sec. 6.1) and pay a stop-and-wait
    #: round trip per partition — the mechanism behind Fig. 3(a).
    unit_sync_rtts: float = 0.0

    def __init__(self) -> None:
        self._sizes_list: list[float] | None = None
        self._remaining: dict[int, float] = {}
        #: Per gradient: signalled ready this iteration (sent or not).
        self._signalled: list[bool] = []
        #: ``sorted(self._remaining)`` maintained incrementally (insort on
        #: ready, bisect-removal on full send) so the per-decision
        #: ``ready_grads`` walk needs no per-call sort.
        self._ready_order: list[int] = []
        #: Signalled gradients in generation order; a fully sent head is
        #: popped at commit, so arrival-order strategies see live entries.
        self._arrivals: deque[int] = deque()
        #: Running total of ``self._remaining.values()`` — only its sign is
        #: load-bearing (idle/stall detection), so incremental float drift
        #: is fine; it snaps to exactly 0.0 whenever the dict empties.
        self._pending_acc = 0.0
        self._iteration = -1

    # ------------------------------------------------------------------
    # Lifecycle hooks (called by the worker)
    # ------------------------------------------------------------------
    def begin_iteration(
        self, iteration: int, schedule: GenerationSchedule, now: float
    ) -> None:
        """Reset push state for a new iteration's gradient set."""
        if self._remaining:
            raise SchedulingError(
                f"iteration {self._iteration} still has unsent gradients "
                f"{sorted(self._remaining)[:5]}... when iteration {iteration} begins"
            )
        self._iteration = iteration
        self._sizes_list = schedule.sizes.tolist()
        self._signalled = [False] * len(self._sizes_list)
        self._ready_order = []
        self._arrivals.clear()
        self._pending_acc = 0.0

    def gradient_ready(self, grad: int, now: float) -> None:
        """Gradient ``grad`` flushed from the KV store and can be pushed."""
        if self._sizes_list is None:
            raise SchedulingError("gradient_ready before begin_iteration")
        if self._signalled[grad]:
            raise SchedulingError(f"gradient {grad} signalled ready twice")
        self._signalled[grad] = True
        size = self._sizes_list[grad]
        self._remaining[grad] = size
        insort(self._ready_order, grad)
        self._arrivals.append(grad)
        self._pending_acc += size

    def propose_unit(self, now: float) -> TransferUnit | None:
        """The unit the scheduler would push now (``None`` = idle the link).

        Does **not** consume state; the worker must call
        :meth:`commit_unit` if it actually sends the proposal.
        """
        if not self._remaining:
            return None
        return self._select(now)

    def commit_unit(self, unit: TransferUnit, now: float) -> None:
        """Accept a previously proposed unit: validate and debit its bytes."""
        self._consume(unit)
        self._committed(unit, now)

    # bench/tracer.py wraps this name; nothing in the package calls it.
    def unit_sent(self, unit: TransferUnit, now: float) -> None:
        """Never called: a unit's completion reaches no scheduler."""

    def pull_completed(self, grad: int, nbytes: float, now: float) -> None:
        """Notification that ``nbytes`` of ``grad``'s updated parameters
        arrived back from the PS (optional hook — ByteScheduler's credit
        flow control replenishes on this signal)."""

    def grant_probe(self, now: float) -> None:
        """The channel has been idle with no feedback for a while; a
        flow-controlled scheduler may extend its window by one unit.

        Credit-style flow control across BSP workers can deadlock when
        workers' send orders diverge (each worker's outstanding window
        missing segments another worker is withholding).  Real engines
        break such stalls with asynchronous timeouts.  Here a PS port
        (:class:`~repro.cluster.worker.PSPort`) calls this hook, then
        re-pumps, once its channel has sat idle for 5 ms with unsent
        gradients and no pending pull.  A port arms that timer only for
        a scheduler whose class overrides this method.  The collective
        controller never calls it: every finished operation returns its
        credit at once."""

    def end_iteration(self, iteration: int, iteration_time: float, now: float) -> None:
        """Notification of a completed iteration (for auto-tuners)."""

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    def describe_unit(self, unit: TransferUnit) -> dict[str, object]:
        """Strategy metadata attached to the unit's trace spans.

        The worker calls this (only while tracing) when it commits a push,
        and stores the result in the block-assembly and transfer spans.
        Subclasses extend the base payload with the knobs that explain
        *why* this unit looks the way it does — partition size, credit,
        predicted interval phase — so a Perfetto view of two strategies is
        directly comparable.
        """
        return {
            "strategy": self.name,
            "grads": list(unit.grads),
            "nbytes": unit.total_bytes,
            "priority": unit.priority,
            "segments": len(unit.segments),
        }

    # ------------------------------------------------------------------
    # State helpers available to strategies
    # ------------------------------------------------------------------
    @property
    def ready_grads(self) -> list[int]:
        """Ready gradients with un-pushed bytes, most urgent first."""
        return list(self._ready_order)

    def ready_by_arrival(self) -> Iterator[int]:
        """Ready gradients with un-pushed bytes, in generation order."""
        remaining = self._remaining
        return (grad for grad in self._arrivals if grad in remaining)

    @property
    def most_urgent_ready(self) -> int | None:
        """The most urgent ready gradient: a lower bound on any proposal's priority."""
        return self._ready_order[0] if self._ready_order else None

    @property
    def oldest_ready(self) -> int | None:
        """The earliest-flushed ready gradient: the head of any
        arrival-order proposal (:meth:`_consume` keeps the queue's head live)."""
        return self._arrivals[0] if self._arrivals else None

    def remaining_bytes(self, grad: int) -> float:
        """Un-pushed bytes of ``grad`` (0 when fully sent or not ready)."""
        return self._remaining.get(grad, 0.0)

    @property
    def pending_bytes(self) -> float:
        """Total un-pushed bytes across ready gradients."""
        if not self._remaining:
            return 0.0
        return self._pending_acc

    def size_of(self, grad: int) -> float:
        """Full size of gradient ``grad`` in bytes."""
        if self._sizes_list is None:
            raise SchedulingError("size_of before begin_iteration")
        return self._sizes_list[grad]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def pull_batch_limit(self, now: float) -> float | None:
        """Max bytes of pending pull responses coalesced into one message.

        ``None`` means per-key pulls (one segment per message — the MXNet
        and P3 behaviour).  Credit/block strategies return their unit size
        so pull-direction message overhead matches the push direction;
        Prophet additionally bounds the batch by the time remaining before
        the next predicted generation burst (a long pull response would
        delay the burst's push just like a long push would).
        """
        return None

    def _select(self, now: float) -> TransferUnit | None:
        raise NotImplementedError

    def _committed(self, unit: TransferUnit, now: float) -> None:
        """Subclass hook fired when a proposal is committed (e.g. to pop
        strategy-internal queues).  Default: nothing."""

    def _consume(self, unit: TransferUnit) -> None:
        """Validate the unit against ready state and debit its bytes."""
        if not unit.segments:
            raise SchedulingError("empty transfer unit")
        for seg in unit.segments:
            remaining = self._remaining.get(seg.grad)
            if remaining is None:
                raise SchedulingError(
                    f"unit pushes gradient {seg.grad} which is not ready "
                    f"(or already fully sent)"
                )
            if seg.nbytes <= 0:
                raise SchedulingError(f"segment of gradient {seg.grad} has no bytes")
            # Continuity also rejects a negative offset: sent bytes are >= 0.
            sent_so_far = self._sizes_list[seg.grad] - remaining
            if abs(seg.offset - sent_so_far) > 1e-9:
                raise SchedulingError(
                    f"gradient {seg.grad}: segment offset {seg.offset} does not "
                    f"continue from {sent_so_far} (out-of-order or double send)"
                )
            if seg.nbytes > remaining + 1e-9:
                raise SchedulingError(
                    f"gradient {seg.grad}: segment of {seg.nbytes} B exceeds "
                    f"remaining {remaining} B"
                )
            new_remaining = remaining - seg.nbytes
            if new_remaining <= 1e-9:
                del self._remaining[seg.grad]
                self._remove_ready(seg.grad)
                # Drop the full leftover (incl. the sub-tolerance residual)
                # so the accumulator tracks the dict, not the raw debits.
                self._pending_acc -= remaining
            else:
                self._remaining[seg.grad] = new_remaining
                self._pending_acc -= seg.nbytes
        arrivals = self._arrivals
        while arrivals and arrivals[0] not in self._remaining:
            arrivals.popleft()

    def _remove_ready(self, grad: int) -> None:
        """Remove ``grad`` from the maintained sorted ready order."""
        order = self._ready_order
        idx = bisect_left(order, grad)
        if idx < len(order) and order[idx] == grad:
            order.pop(idx)

    # ------------------------------------------------------------------
    # Segment-construction helpers shared by partitioned strategies
    # ------------------------------------------------------------------
    def _segment_for(self, grad: int, nbytes: float) -> Segment:
        """Next contiguous segment of ``grad`` of at most ``nbytes``."""
        remaining = self._remaining[grad]
        offset = self._sizes_list[grad] - remaining
        return Segment(grad=grad, offset=offset, nbytes=min(nbytes, remaining))
