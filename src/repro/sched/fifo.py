"""Default-MXNet FIFO scheduling.

The baseline every DDNN framework ships: tensors are pushed whole, one
message per tensor, in the order the KV store flushed them (generation
order).  Because backward propagation generates low-priority (large,
early-layer... rather, *late-layer*) gradients first, a large tensor at the
head of the queue blocks the critical gradient 0 even after it is
generated — the failure mode of Fig. 5's first row.
"""

from __future__ import annotations

import math

from repro.sched.base import CommScheduler, TransferUnit

__all__ = ["FIFOScheduler"]


class FIFOScheduler(CommScheduler):
    """Whole-tensor, first-in-first-out transmission (default MXNet)."""

    name = "mxnet-fifo"
    fifo_channel = True

    def _select(self, now: float) -> TransferUnit | None:
        # propose_unit calls this only with bytes left, so a gradient is ready.
        return TransferUnit(segments=(self._segment_for(self.oldest_ready, math.inf),))

    def describe_unit(self, unit: TransferUnit) -> dict[str, object]:
        desc = super().describe_unit(unit)
        # Depth of the arrival-order queue behind this tensor: the blocked
        # work a priority scheduler would have reordered past it.
        desc["queue_depth"] = sum(1 for _ in self.ready_by_arrival())
        return desc
