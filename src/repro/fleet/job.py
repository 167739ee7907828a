"""Fleet job descriptions and their queued→placed→running→finished lifecycle.

A :class:`FleetJob` is the plain-data submission: which training config
and strategy to run, who submitted it, and when it arrives.  The mutable
:class:`JobHandle` tracks one submission through the scheduler's
lifecycle; :class:`JobRecord` is the frozen scalar projection kept after
the fleet run completes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.config import TrainingConfig
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.result import TrainingResult
    from repro.cluster.trainer import Trainer

__all__ = ["FleetJob", "JobHandle", "JobRecord", "QUEUED", "PLACED", "RUNNING", "FINISHED"]

#: Lifecycle states, in order.
QUEUED = "queued"
PLACED = "placed"
RUNNING = "running"
FINISHED = "finished"


@dataclass(frozen=True)
class FleetJob:
    """One submitted training job, described as plain data.

    ``strategy`` names an entry of the runner's strategy registry
    (resolved via :func:`repro.runner.registry.build_factory`).  ``user``
    is the submitting tenant for fair-share accounting; it defaults to
    the job name (every job its own tenant).
    """

    name: str
    config: TrainingConfig
    strategy: str
    arrival: float = 0.0
    user: str = ""
    strategy_kwargs: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("FleetJob.name must be non-empty")
        if not self.strategy:
            raise ConfigurationError("FleetJob.strategy must be non-empty")
        if self.arrival < 0:
            raise ConfigurationError(
                f"job {self.name!r}: arrival must be >= 0, got {self.arrival}"
            )

    @property
    def tenant(self) -> str:
        """The fair-share accounting identity (``user`` or the name)."""
        return self.user or self.name

    @property
    def n_slots(self) -> int:
        """GPU slots the job occupies while placed (one per worker)."""
        return self.config.n_workers


class JobHandle:
    """Mutable lifecycle state of one submitted job inside a fleet run."""

    __slots__ = (
        "job",
        "state",
        "placed_at",
        "finished_at",
        "allocation",
        "trainer",
        "result",
    )

    def __init__(self, job: FleetJob):
        self.job = job
        self.state = QUEUED
        self.placed_at: float | None = None
        self.finished_at: float | None = None
        self.allocation: dict[int, int] | None = None
        self.trainer: "Trainer | None" = None
        self.result: "TrainingResult | None" = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"JobHandle({self.job.name!r}, {self.state})"

    @property
    def queueing_delay(self) -> float:
        """Seconds spent queued before placement (requires placement)."""
        if self.placed_at is None:
            raise ConfigurationError(f"job {self.job.name!r} was never placed")
        return self.placed_at - self.job.arrival

    def record(self, skip: int) -> "JobRecord":
        """Freeze the finished job into its scalar projection."""
        if self.result is None or self.finished_at is None:
            raise ConfigurationError(f"job {self.job.name!r} did not finish")
        config = self.job.config
        # Clamp the warmup skip so short jobs still yield a measurement
        # (n iterations give n-1 spans, and skip must leave at least one).
        skip = max(0, min(skip, config.n_iterations - 2))
        spans: list[float] = []
        for w in range(config.n_workers):
            spans.extend(float(s) for s in self.result.iteration_spans(w, skip=skip))
        return JobRecord(
            name=self.job.name,
            user=self.job.tenant,
            strategy=self.job.strategy,
            n_workers=config.n_workers,
            arrival=self.job.arrival,
            placed_at=self.placed_at if self.placed_at is not None else 0.0,
            finished_at=self.finished_at,
            samples=float(
                config.batch_size * config.n_iterations * config.n_workers
            ),
            training_rate=self.result.training_rate(skip=skip),
            iteration_s=tuple(spans),
        )


@dataclass(frozen=True)
class JobRecord:
    """Scalar outcome of one fleet job (everything the metrics read)."""

    name: str
    user: str
    strategy: str
    n_workers: int
    arrival: float
    placed_at: float
    finished_at: float
    #: Samples the job processed in total (batch x iterations x workers).
    samples: float
    #: Mean per-worker training rate over the measured window, samples/s.
    training_rate: float
    #: Post-warmup iteration durations across all the job's workers.
    iteration_s: tuple[float, ...]

    @property
    def queueing_delay(self) -> float:
        return self.placed_at - self.arrival
