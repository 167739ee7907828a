"""Deterministic fault injection (``repro.faults``).

Declarative :class:`FaultPlan` specs describe worker crashes, link flaps,
per-message drops, and PS stalls; the :class:`FaultInjector` replays them
against the simulated cluster under the experiment seed.  See
``experiments/chaos.py`` for the resilience harness built on top.
"""

from repro.faults.injector import FaultInjector, FlappedSchedule
from repro.faults.plan import (
    FaultPlan,
    LinkFlap,
    MessageDrops,
    PSStall,
    ServerCrash,
    WorkerCrash,
)

__all__ = [
    "FaultPlan",
    "WorkerCrash",
    "LinkFlap",
    "MessageDrops",
    "PSStall",
    "ServerCrash",
    "FaultInjector",
    "FlappedSchedule",
]
