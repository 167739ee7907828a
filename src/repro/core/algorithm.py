"""Algorithm 1: Prophet's communication-scheduling strategy.

Given the profiled generation times ``c(i)``, the gradient sizes ``s(i)``
and the monitored available bandwidth ``B``, compute the start time of each
gradient transfer such that

* every gradient is pushed after it is generated (Constraint 7),
* transfers never overlap on the link (Constraint 8),
* backward-phase transfers complete before any higher-priority gradient is
  generated (Constraint 11 — the block time interval ``A(i)`` budget),
* forward-phase transfers run in strict priority order (Constraint 9),
* gradient 0 starts the instant it is generated (line 17).

The planner walks the generation staircase block by block.  At each step it
greedily assembles the highest-priority ready gradients into one *gradient
block* as long as the block — including its single TCP setup cost —
still fits before the next generation event; packing stops at the first
gradient that does not fit (skipping it for a smaller, lower-priority one
would invert priorities).  After gradient 0 is generated the remaining
gradients drain in priority order, batched into blocks of at most
:data:`FORWARD_BLOCK_BYTES` (the Scheduled Queue transmits blocks in both
phases; gradient 0 always travels alone, immediately).

Transfer-time estimates use the same analytic TCP model as the network
substrate (:func:`repro.net.tcp.transfer_time`) — in the prototype these
estimates come from the profiling run; here they share the model, with the
*monitored* (possibly stale or noisy) bandwidth as input.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.agg.stepwise import detect_blocks
from repro.core.blocks import GradientBlock, PlannedTransfer, ProphetPlan
from repro.core.profiler import JobProfile
from repro.errors import ConfigurationError
from repro.net.tcp import TCPParams, transfer_time
from repro.quantities import MB

__all__ = ["FORWARD_BLOCK_BYTES", "plan_schedule"]

_FIT_TOL = 1e-12

#: Forward-phase block cap (Constraint 9), shared with the online
#: scheduler: BytePS's 4 MB partition size, the baselines' message size.
FORWARD_BLOCK_BYTES = 4 * MB


def _emit_block(
    grads: list[int],
    sizes: np.ndarray,
    start: float,
    bandwidth: float,
    tcp: TCPParams,
    phase: str,
    transfers: list[PlannedTransfer],
    blocks: list[GradientBlock],
) -> float:
    """Record one block and its per-gradient transfers; return its end time.

    Per-gradient start/duration inside a block come from the cumulative
    transfer-time curve: gradient ``j``'s bytes go out between
    ``T(prefix_j)`` and ``T(prefix_{j+1})``; the first gradient absorbs the
    block's setup cost.
    """
    prefix = np.concatenate([[0.0], np.cumsum([sizes[g] for g in grads])])
    times = np.asarray(
        transfer_time(prefix[1:], bandwidth, tcp, warm=True), dtype=float
    )
    times = np.concatenate([[0.0], np.atleast_1d(times)])
    for j, g in enumerate(grads):
        transfers.append(
            PlannedTransfer(
                grad=g, start=start + times[j], duration=times[j + 1] - times[j]
            )
        )
    total = float(times[-1])
    blocks.append(
        GradientBlock(
            grads=tuple(grads),
            start=start,
            duration=total,
            nbytes=float(prefix[-1]),
            phase=phase,
        )
    )
    return start + total


def plan_schedule(
    profile: JobProfile,
    bandwidth: float,
    tcp: TCPParams | None = None,
    eps: float = 1e-6,
) -> ProphetPlan:
    """Run Algorithm 1 on a job profile; returns the transfer plan.

    Times in the plan are relative to the start of backward propagation
    (the reference frame of ``profile.c``).
    """
    if bandwidth <= 0:
        raise ConfigurationError(f"bandwidth must be positive, got {bandwidth}")
    tcp = tcp if tcp is not None else TCPParams()
    c = profile.c
    sizes = profile.sizes

    gen_blocks = detect_blocks(c, eps)
    gen_times = [float(c[b[0]]) for b in gen_blocks]

    transfers: list[PlannedTransfer] = []
    blocks: list[GradientBlock] = []
    ready: list[int] = []
    cursor = 0.0

    # --- backward phase: one interval-constrained block per staircase step.
    for k, gblock in enumerate(gen_blocks[:-1]):
        for g in gblock:
            heapq.heappush(ready, g)
        cursor = max(cursor, gen_times[k])
        boundary = gen_times[k + 1]
        members: list[int] = []
        block_bytes = 0.0
        while ready:
            q = ready[0]
            candidate = block_bytes + float(sizes[q])
            duration = float(transfer_time(candidate, bandwidth, tcp, warm=True))
            if cursor + duration <= boundary + _FIT_TOL:
                heapq.heappop(ready)
                members.append(q)
                block_bytes = candidate
            else:
                break  # next-priority gradient must not jump the queue
        if members:
            cursor = _emit_block(
                members, sizes, cursor, bandwidth, tcp, "backward", transfers, blocks
            )

    # --- gradient 0's burst: everything still unsent drains now.
    for g in gen_blocks[-1]:
        heapq.heappush(ready, g)
    cursor = max(cursor, float(c[0]))

    if ready and ready[0] == 0:
        heapq.heappop(ready)
        cursor = _emit_block(
            [0], sizes, cursor, bandwidth, tcp, "critical", transfers, blocks
        )

    # --- forward phase: strict priority order, bounded block size.
    members = []
    block_bytes = 0.0
    while ready:
        q = heapq.heappop(ready)
        if members and block_bytes + float(sizes[q]) > FORWARD_BLOCK_BYTES:
            cursor = _emit_block(
                members, sizes, cursor, bandwidth, tcp, "forward", transfers, blocks
            )
            members, block_bytes = [], 0.0
        members.append(q)
        block_bytes += float(sizes[q])
    if members:
        cursor = _emit_block(
            members, sizes, cursor, bandwidth, tcp, "forward", transfers, blocks
        )

    return ProphetPlan(transfers=tuple(transfers), blocks=tuple(blocks))
