"""MG-WFBP: Merged-Gradient Wait-Free Backpropagation (Shi et al.,
INFOCOM 2019) — a related-work baseline (paper Sec. 6.2).

MG-WFBP starts from wait-free backpropagation (FIFO order, fully
overlapped) and *merges* consecutive gradient transfers whenever the
per-message startup cost makes separate sends slower than one combined
send.  Unlike Prophet it is priority-blind: merging happens in generation
order, so a merged message can still block the critical gradient 0 — it
optimizes network efficiency, not preemption.

The merge rule follows the MG-WFBP insight: sending two tensors
separately costs ``2·a + (s1+s2)/B`` while merged costs ``a + (s1+s2)/B``
(``a`` = per-message startup), so merging is always bandwidth-profitable;
what bounds the merge is *timeliness* — waiting for the next gradient to
be generated delays the bytes already in hand.  We merge the pending
window and dispatch when either (a) the accumulated bytes exceed
``merge_bytes`` (so each message amortizes its startup well below 1 %) or
(b) dispatching is free because the channel just became idle anyway.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.quantities import MB
from repro.sched.base import CommScheduler, Segment, TransferUnit

__all__ = ["MGWFBPScheduler"]


class MGWFBPScheduler(CommScheduler):
    """Generation-order transmission with merged-gradient messages."""

    name = "mg-wfbp"

    def __init__(self, merge_bytes: float = 16 * MB):
        if merge_bytes <= 0:
            raise ConfigurationError(f"merge_bytes must be positive, got {merge_bytes}")
        super().__init__()
        self.merge_bytes = float(merge_bytes)

    def pull_batch_limit(self, now: float) -> float | None:
        return self.merge_bytes

    def _select(self, now: float) -> TransferUnit | None:
        # Merge the generation-order window up to merge_bytes.  The channel
        # only asks when idle, so dispatching whatever is in hand never
        # delays earlier bytes (the wait-free property); the cap just
        # bounds how long one message can occupy the channel.
        segments: list[Segment] = []
        total = 0.0
        for grad in self.ready_by_arrival():
            size = self.size_of(grad)
            if segments and total + size > self.merge_bytes:
                break
            segments.append(Segment(grad=grad, offset=0.0, nbytes=size))
            total += size
        return TransferUnit(segments=tuple(segments))

    def describe_unit(self, unit: TransferUnit) -> dict[str, object]:
        desc = super().describe_unit(unit)
        desc["merge_bytes"] = self.merge_bytes
        desc["merged_tensors"] = len(unit.segments)
        return desc
