"""Fig. 3 — the two baseline pathologies that motivate Prophet.

(a) **P3's partition-size overhead**: sweeping the partition size shows
    the training rate collapsing as partitions shrink (every partition
    pays the blocking per-message synchronization) and preemption
    degrading as they grow.

(b) **ByteScheduler's auto-tuning fluctuation**: with Bayesian credit
    tuning enabled, the per-iteration training rate oscillates while the
    optimizer explores credit sizes (the paper observes 44–56 samples/s
    and credits moving between ~3 MB and 13 MB).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.trainer import run_training
from repro.experiments.common import run_labelled
from repro.quantities import Gbps, MB
from repro.runner import RunResult, RunSpec
from repro.workloads.presets import bytescheduler_factory, paper_config

__all__ = [
    "Fig3bResult", "best_partition_mb", "run_partition_sweep", "run_autotune",
]

DEFAULT_PARTITIONS_MB = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)


@dataclass(frozen=True)
class Fig3bResult:
    """ByteScheduler per-iteration rate and credit while auto-tuning."""

    iterations: tuple[int, ...]
    rates: tuple[float, ...]
    credits_mb: tuple[float, ...]

    @property
    def rate_spread(self) -> float:
        """max - min per-iteration rate (the fluctuation band)."""
        return max(self.rates) - min(self.rates)


def run_partition_sweep(
    partitions_mb: tuple[float, ...] = DEFAULT_PARTITIONS_MB,
    bandwidth: float = 3 * Gbps,
    n_iterations: int = 12,
    seed: int = 0,
) -> dict[float, RunResult]:
    """Fig. 3(a): ResNet-50 bs64 P3 run per partition size (MB)."""
    config = paper_config(
        "resnet50",
        64,
        bandwidth=bandwidth,
        n_iterations=n_iterations,
        seed=seed,
        record_gradients=False,
    )
    return run_labelled(
        {
            mb: RunSpec(
                config=config,
                strategy="p3",
                strategy_kwargs={"partition_size": mb * MB},
            )
            for mb in partitions_mb
        }
    )


def best_partition_mb(sweep: dict[float, RunResult]) -> float:
    """The partition size (MB) with the highest training rate."""
    return max(sweep, key=lambda mb: sweep[mb].training_rate)


def run_autotune(
    bandwidth: float = 3 * Gbps,
    n_iterations: int = 40,
    tune_every: int = 3,
    seed: int = 0,
) -> Fig3bResult:
    """Fig. 3(b): per-iteration rate under Bayesian credit auto-tuning."""
    config = paper_config(
        "resnet50",
        64,
        bandwidth=bandwidth,
        n_iterations=n_iterations,
        seed=seed,
        record_gradients=False,
    )
    result = run_training(
        config, bytescheduler_factory(auto_tune=True, tune_every=tune_every)
    )
    spans = result.iteration_spans(worker=0, skip=1)
    rates = tuple(float(config.batch_size / s) for s in spans)
    # Credit history from worker 0's scheduler, aligned to iterations 1..N.
    history = dict(result.schedulers[0].credit_history)
    iters = tuple(range(1, 1 + len(rates)))
    credits = tuple(history.get(i, np.nan) / MB for i in iters)
    return Fig3bResult(iterations=iters, rates=rates, credits_mb=credits)
