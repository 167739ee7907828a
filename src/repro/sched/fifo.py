"""Default-MXNet FIFO scheduling.

The baseline every DDNN framework ships: tensors are pushed whole, one
message per tensor, in the order the KV store flushed them (generation
order).  Because backward propagation generates low-priority (large,
early-layer... rather, *late-layer*) gradients first, a large tensor at the
head of the queue blocks the critical gradient 0 even after it is
generated — the failure mode of Fig. 5's first row.
"""

from __future__ import annotations

from collections import deque

from repro.agg.kvstore import GenerationSchedule
from repro.sched.base import CommScheduler, Segment, TransferUnit

__all__ = ["FIFOScheduler"]


class FIFOScheduler(CommScheduler):
    """Whole-tensor, first-in-first-out transmission (default MXNet)."""

    name = "mxnet-fifo"
    fifo_channel = True

    def __init__(self) -> None:
        super().__init__()
        self._queue: deque[int] = deque()

    def begin_iteration(
        self, iteration: int, schedule: GenerationSchedule, now: float
    ) -> None:
        super().begin_iteration(iteration, schedule, now)
        self._queue.clear()

    def gradient_ready(self, grad: int, now: float) -> None:
        super().gradient_ready(grad, now)
        self._queue.append(grad)

    def _select(self, now: float) -> TransferUnit | None:
        if not self._queue:
            return None
        grad = self._queue[0]
        return TransferUnit(
            segments=(Segment(grad=grad, offset=0.0, nbytes=self.size_of(grad)),)
        )

    def _committed(self, unit: TransferUnit, now: float) -> None:
        head = self._queue.popleft()
        if head != unit.segments[0].grad:  # pragma: no cover - defensive
            raise AssertionError("FIFO commit does not match proposal")

    def describe_unit(self, unit: TransferUnit) -> dict[str, object]:
        desc = super().describe_unit(unit)
        # Depth of the arrival-order queue behind this tensor: the blocked
        # work a priority scheduler would have reordered past it.
        desc["queue_depth"] = len(self._queue)
        return desc
