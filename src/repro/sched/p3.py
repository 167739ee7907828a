"""P3: Priority-based Parameter Propagation (Jayarajan et al., MLSys 2019).

P3 slices every gradient into fixed-size partitions and transmits them
strictly by priority, one partition per message.  Small partitions give
fine-grained preemption — a freshly generated gradient 0 waits at most one
partition — but every partition pays the full TCP setup and slow-start
cost, so small partition sizes collapse the achieved bandwidth (the paper's
Fig. 3(a), and the Table 2 low-bandwidth regime where P3 falls behind).

The paper's evaluation sets P3's partition size to 4 MB.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.quantities import MB
from repro.sched.base import CommScheduler, TransferUnit

__all__ = ["P3Scheduler"]


class P3Scheduler(CommScheduler):
    """Fixed-size partitions, strict priority, one partition per message."""

    name = "p3"

    #: P3 serializes a blocking request/response per partition (paper
    #: Sec. 6.1): two RTTs of stop-and-wait per message.
    unit_sync_rtts = 2.0

    def __init__(self, partition_size: float = 4 * MB):
        if partition_size <= 0:
            raise ConfigurationError(
                f"partition_size must be positive, got {partition_size}"
            )
        super().__init__()
        self.partition_size = float(partition_size)

    def _select(self, now: float) -> TransferUnit | None:
        ready = self.ready_grads
        if not ready:
            return None
        grad = ready[0]  # most urgent
        seg = self._segment_for(grad, self.partition_size)
        return TransferUnit(segments=(seg,))

    def describe_unit(self, unit: TransferUnit) -> dict[str, object]:
        desc = super().describe_unit(unit)
        seg = unit.segments[0]
        desc["partition_bytes"] = self.partition_size
        desc["partition_index"] = int(seg.offset // self.partition_size)
        return desc
