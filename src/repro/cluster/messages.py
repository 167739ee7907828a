"""Messages exchanged between workers and the parameter server.

Pulls travel as :class:`PullUnit` records.  Every committed push travels as a
:class:`PushMessage` with a per-worker sequence number, and the PS applies
each sequence number **at most once**, in order.  With no
:class:`~repro.faults.plan.FaultPlan` every message arrives on its first
transmission, in order, and nothing is acknowledged.  Under a plan the
delivery and acknowledgement legs can drop: a retransmission whose
original was delivered (its ack lost) is recognised and only
re-acknowledged, and unacknowledged messages are retransmitted under the
exponential backoff of :func:`repro.faults.plan.retry_timeout`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sched.base import Segment, TransferUnit

__all__ = ["PullUnit", "PushMessage"]


class PullUnit:
    """One aggregated parameter range flowing PS → worker.

    The PS responds **per key** (per gradient segment), as BytePS does: a
    worker's pull for a byte range becomes available as soon as that range
    is aggregated from all workers — it does not wait for the rest of the
    push message it arrived in.  The worker then *batches* pending pull
    units into one network message according to its strategy's granularity
    (:meth:`repro.sched.base.CommScheduler.pull_batch_limit`), keeping
    per-message overhead symmetric with the push direction, as the paper's
    Eq. (4) ``u = t + 2E`` assumes.
    """

    __slots__ = ("worker", "iteration", "segment", "priority", "total_bytes")

    def __init__(self, worker: int, iteration: int, segment: Segment):
        self.worker = worker
        self.iteration = iteration
        self.segment = segment
        #: The parameter carried (gradient index; smaller = more urgent).
        self.priority = segment.grad
        self.total_bytes = segment.nbytes


@dataclass(slots=True)
class PushMessage:
    """One committed push and its delivery state.

    The scheduler debits the unit's bytes exactly once, at commit time;
    ``attempts`` counts transmissions of the *same* bytes, so every
    retransmission carries identical segments/offsets and the PS's
    cumulative-offset invariants hold across retries.  ``desc`` holds the
    scheduler's :meth:`~repro.sched.base.CommScheduler.describe_unit`
    labels while tracing (else ``None``); ``delivered`` turns true at the
    first transmission that reaches the PS.
    """

    seq: int
    iteration: int
    unit: TransferUnit
    desc: dict[str, object] | None
    attempts: int = 0
    acked: bool = False
    delivered: bool = False
