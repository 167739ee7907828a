"""Declarative fault plans for the discrete-event simulator.

A :class:`FaultPlan` is a frozen, seed-independent description of *what
goes wrong and when* during a simulated training run: worker crashes with
restart-after-delay, link flap/degrade windows layered onto the links'
bandwidth schedules, per-message drop probabilities, and parameter-server
stall intervals.  The plan carries no randomness of its own — the
:class:`~repro.faults.injector.FaultInjector` draws per-message drop
decisions from a dedicated RNG stream spawned from the experiment seed, so
the same ``(config, plan)`` pair always replays the same failure sequence.

All validation is eager (:class:`~repro.errors.ConfigurationError` at
construction), matching the rest of the configuration layer.  An *empty*
plan — no discrete faults and every drop probability zero — is recognised
by :attr:`FaultPlan.is_empty`; the trainer then wires **no** injector at
all, which is what makes the injection layer provably inert when unused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = [
    "WorkerCrash",
    "LinkFlap",
    "MessageDrops",
    "PSStall",
    "ServerCrash",
    "FaultPlan",
    "RETRY_TIMEOUT",
    "RETRY_BACKOFF",
    "MAX_RETRY_TIMEOUT",
    "MAX_RETRIES",
    "retry_timeout",
]

#: Reliable delivery's exponential backoff: a message unacknowledged
#: ``RETRY_TIMEOUT * RETRY_BACKOFF**attempt`` seconds after its send
#: (capped at ``MAX_RETRY_TIMEOUT``) is retransmitted, at most
#: ``MAX_RETRIES`` times, so a partitioned network fails the simulation
#: loudly instead of livelocking it.
RETRY_TIMEOUT = 25e-3
RETRY_BACKOFF = 2.0
MAX_RETRY_TIMEOUT = 0.5
MAX_RETRIES = 30


def retry_timeout(attempt: int) -> float:
    """Retransmission timeout after ``attempt`` (0-based) sends."""
    return min(MAX_RETRY_TIMEOUT, RETRY_TIMEOUT * RETRY_BACKOFF**attempt)


@dataclass(frozen=True)
class WorkerCrash:
    """Worker ``worker`` crashes at ``at`` and restarts ``restart_after``
    seconds later.

    The crash aborts the worker's in-flight transfer (those bytes are lost
    and must be retransmitted by the reliable-delivery layer), freezes its
    compute, and suspends its communication agent.  On restart the worker
    resumes from recovered state: deferred compute completions replay, and
    any unacknowledged pushes re-enter the retry queue.
    """

    worker: int
    at: float
    restart_after: float

    def __post_init__(self) -> None:
        if self.worker < 0:
            raise ConfigurationError(f"crash worker must be >= 0, got {self.worker}")
        if self.at < 0:
            raise ConfigurationError(f"crash time must be >= 0, got {self.at}")
        if self.restart_after <= 0:
            raise ConfigurationError(
                f"restart_after must be positive, got {self.restart_after}"
            )


@dataclass(frozen=True)
class LinkFlap:
    """Multiply one worker's (or every worker's) available bandwidth by
    ``factor`` during ``[start, start + duration)``.

    ``factor`` in ``(0, 1]``: a near-zero factor models a link cut (kept
    strictly positive so in-window transfers finish in finite time), an
    intermediate factor a degrade window.  ``worker=None`` flaps all links.
    """

    start: float
    duration: float
    factor: float
    worker: int | None = None

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ConfigurationError(f"flap start must be >= 0, got {self.start}")
        if self.duration <= 0:
            raise ConfigurationError(
                f"flap duration must be positive, got {self.duration}"
            )
        if not 0 < self.factor <= 1:
            raise ConfigurationError(
                f"flap factor must be in (0, 1], got {self.factor}"
            )
        if self.worker is not None and self.worker < 0:
            raise ConfigurationError(f"flap worker must be >= 0, got {self.worker}")

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class MessageDrops:
    """Independent per-message drop probabilities during ``[start, end)``.

    ``push`` applies to push data messages (worker → PS), ``pull`` to pull
    responses (PS → worker), and ``ack`` to push acknowledgements — the leg
    whose loss produces *duplicate* pushes and therefore exercises the
    PS's at-most-once sequence-number dedup.  ``worker=None`` applies to
    every worker.
    """

    push: float = 0.0
    pull: float = 0.0
    ack: float = 0.0
    start: float = 0.0
    end: float = math.inf
    worker: int | None = None

    def __post_init__(self) -> None:
        for name in ("push", "pull", "ack"):
            p = getattr(self, name)
            if not 0 <= p < 1:
                raise ConfigurationError(
                    f"{name} drop probability must be in [0, 1), got {p}"
                )
        if self.start < 0:
            raise ConfigurationError(f"drop start must be >= 0, got {self.start}")
        if self.end <= self.start:
            raise ConfigurationError(
                f"drop window end {self.end} must exceed start {self.start}"
            )
        if self.worker is not None and self.worker < 0:
            raise ConfigurationError(f"drop worker must be >= 0, got {self.worker}")

    @property
    def is_noop(self) -> bool:
        return self.push == 0.0 and self.pull == 0.0 and self.ack == 0.0


@dataclass(frozen=True)
class PSStall:
    """The parameter server stops releasing pulls during
    ``[at, at + duration)`` (GC pause, preemption, failover hand-off).

    Aggregation state keeps accumulating — only the *release* of updated
    parameters is deferred to the end of the window, after which queued
    releases flush in their original order.  On the sharded tier,
    ``server`` restricts the stall to one shard PS; ``server=None`` stalls
    the whole tier.
    """

    at: float
    duration: float
    server: int | None = None

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ConfigurationError(f"stall time must be >= 0, got {self.at}")
        if self.duration <= 0:
            raise ConfigurationError(
                f"stall duration must be positive, got {self.duration}"
            )
        if self.server is not None and self.server < 0:
            raise ConfigurationError(
                f"stall server must be >= 0, got {self.server}"
            )

    @property
    def end(self) -> float:
        return self.at + self.duration


@dataclass(frozen=True)
class ServerCrash:
    """Shard PS ``server`` goes down at ``at`` and a warm standby takes
    over ``failover_after`` seconds later.

    Durable state (everything the PS has *acknowledged*) survives the
    hand-off; pushes arriving inside the outage window are lost and are
    replayed by the workers' reliable-delivery retry queues once the
    standby answers.  Pull releases queued during the outage flush at
    failover, in their original order — the same deferral semantics as a
    :class:`PSStall`, plus the message loss.
    """

    server: int
    at: float
    failover_after: float

    def __post_init__(self) -> None:
        if self.server < 0:
            raise ConfigurationError(
                f"crash server must be >= 0, got {self.server}"
            )
        if self.at < 0:
            raise ConfigurationError(f"crash time must be >= 0, got {self.at}")
        if self.failover_after <= 0:
            raise ConfigurationError(
                f"failover_after must be positive, got {self.failover_after}"
            )

    @property
    def end(self) -> float:
        return self.at + self.failover_after


@dataclass(frozen=True)
class FaultPlan:
    """Complete fault schedule for one run.  The reliable-delivery layer
    survives it with the module's fixed retry backoff
    (:func:`retry_timeout`)."""

    crashes: tuple[WorkerCrash, ...] = ()
    flaps: tuple[LinkFlap, ...] = ()
    drops: tuple[MessageDrops, ...] = ()
    ps_stalls: tuple[PSStall, ...] = ()
    server_crashes: tuple[ServerCrash, ...] = ()

    def __post_init__(self) -> None:
        # Tolerate lists in hand-written plans; normalize to tuples so the
        # plan stays hashable/frozen in spirit.
        for name in ("crashes", "flaps", "drops", "ps_stalls", "server_crashes"):
            value = getattr(self, name)
            if not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))
        crashed: set[int] = set()
        for crash in self.crashes:
            if crash.worker in crashed:
                raise ConfigurationError(
                    f"multiple crashes for worker {crash.worker}; "
                    "one outage per worker per plan is supported"
                )
            crashed.add(crash.worker)
        downed: set[int] = set()
        for sc in self.server_crashes:
            if sc.server in downed:
                raise ConfigurationError(
                    f"multiple crashes for server {sc.server}; "
                    "one outage per server per plan is supported"
                )
            downed.add(sc.server)
        stalls = sorted(self.ps_stalls, key=lambda s: s.at)
        for a, b in zip(stalls, stalls[1:]):
            if b.at < a.end and (
                a.server is None or b.server is None or a.server == b.server
            ):
                raise ConfigurationError(
                    f"PS stall windows overlap: [{a.at}, {a.end}) and "
                    f"[{b.at}, {b.end})"
                )

    @property
    def is_empty(self) -> bool:
        """True when the plan injects nothing at all (layer stays inert)."""
        return (
            not self.crashes
            and not self.flaps
            and not self.ps_stalls
            and not self.server_crashes
            and all(d.is_noop for d in self.drops)
        )

    def validate_workers(self, n_workers: int) -> None:
        """Check that every referenced worker id exists in the cluster."""
        for crash in self.crashes:
            if crash.worker >= n_workers:
                raise ConfigurationError(
                    f"crash references worker {crash.worker} but the "
                    f"cluster has {n_workers} workers"
                )
        for flap in self.flaps:
            if flap.worker is not None and flap.worker >= n_workers:
                raise ConfigurationError(
                    f"flap references worker {flap.worker} but the "
                    f"cluster has {n_workers} workers"
                )
        for drop in self.drops:
            if drop.worker is not None and drop.worker >= n_workers:
                raise ConfigurationError(
                    f"drop spec references worker {drop.worker} but the "
                    f"cluster has {n_workers} workers"
                )

    def validate_topology(
        self, n_workers: int, n_servers: int = 1, backend: str = "ps"
    ) -> None:
        """Check the plan against the concrete cluster topology.

        Replaces the old blanket "faults not supported on this backend"
        rejections: every fault must name an entity that exists in the
        topology, and faults whose semantics have no counterpart on a
        backend (PS-leg faults on allreduce) are configuration errors, not
        silent no-ops.
        """
        self.validate_workers(n_workers)
        if backend == "allreduce":
            for drop in self.drops:
                if drop.pull != 0.0 or drop.ack != 0.0:
                    raise ConfigurationError(
                        "pull/ack drop probabilities have no meaning on the "
                        "allreduce backend (there is no PS leg); only "
                        "``push`` drops apply, as per-chunk ring-step losses"
                    )
            if self.ps_stalls:
                raise ConfigurationError(
                    "PS stalls have no meaning on the allreduce backend; "
                    "model a slow rank with a LinkFlap instead"
                )
            if self.server_crashes:
                raise ConfigurationError(
                    "server crashes have no meaning on the allreduce "
                    "backend; use WorkerCrash to remove a rank"
                )
            if len(self.crashes) >= n_workers:
                raise ConfigurationError(
                    "the plan crashes every rank in the collective group; "
                    "at least one survivor is required"
                )
        else:
            for sc in self.server_crashes:
                if sc.server >= n_servers:
                    raise ConfigurationError(
                        f"server crash references server {sc.server} but "
                        f"the PS tier has {n_servers} servers"
                    )
            for stall in self.ps_stalls:
                if stall.server is not None and stall.server >= n_servers:
                    raise ConfigurationError(
                        f"PS stall references server {stall.server} but "
                        f"the PS tier has {n_servers} servers"
                    )
