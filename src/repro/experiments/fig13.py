"""Fig. 13 — Prophet's profiling-phase overhead over time.

With online profiling (no oracle profile), Prophet runs default FIFO
scheduling for its first ``profile_iterations`` iterations; the paper
observes its GPU utilization slightly *below* ByteScheduler's in the
early seconds, overtaking once the profile activates.  The runner splits
the run into the profiling window and the post-activation window and
compares mean utilization in each against ByteScheduler.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.trainer import run_training
from repro.metrics.utilization import mean_utilization
from repro.quantities import Gbps
from repro.workloads.presets import (
    bytescheduler_factory,
    paper_config,
    prophet_factory,
)

__all__ = ["Fig13Result", "run"]


@dataclass(frozen=True)
class Fig13Result:
    """Early-vs-late mean GPU utilization for the two strategies."""

    profile_iterations: int
    prophet_early: float
    prophet_late: float
    bytescheduler_early: float
    bytescheduler_late: float
    prophet_rate: float
    bytescheduler_rate: float


def _split_utilization(result, boundary_iteration: int) -> tuple[float, float]:
    recs = result.recorder.worker_iterations(0)
    starts = [r.fwd_start for r in recs]
    boundary = starts[min(boundary_iteration, len(starts) - 1)]
    intervals = result.recorder.gpu_busy_intervals(0)
    early = mean_utilization(intervals, starts[1], boundary)
    late = mean_utilization(intervals, boundary, starts[-1])
    return early, late


def run(
    profile_iterations: int = 8,
    n_iterations: int = 24,
    bandwidth: float = 3 * Gbps,
    seed: int = 0,
) -> Fig13Result:
    """Online-profiling Prophet vs ByteScheduler (ResNet-50 bs64)."""
    config = paper_config(
        "resnet50",
        64,
        bandwidth=bandwidth,
        n_iterations=n_iterations,
        seed=seed,
        record_gradients=False,
    )
    prophet_result = run_training(
        config,
        prophet_factory(oracle_profile=False, profile_iterations=profile_iterations),
    )
    bs_result = run_training(config, bytescheduler_factory())
    p_early, p_late = _split_utilization(prophet_result, profile_iterations + 1)
    b_early, b_late = _split_utilization(bs_result, profile_iterations + 1)
    return Fig13Result(
        profile_iterations=profile_iterations,
        prophet_early=p_early,
        prophet_late=p_late,
        bytescheduler_early=b_early,
        bytescheduler_late=b_late,
        prophet_rate=prophet_result.training_rate(skip=profile_iterations + 2),
        bytescheduler_rate=bs_result.training_rate(skip=profile_iterations + 2),
    )
