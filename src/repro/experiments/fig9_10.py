"""Figs. 9 & 10 — GPU utilization and network throughput over time,
Prophet vs ByteScheduler (ResNet-50 bs64).

The paper reports average GPU utilization improving from 67.85 %
(ByteScheduler) to 91.15 % (Prophet), and average network throughput
higher by ~37 % — with periodic sharp utilization dips in both (the
unavoidable per-iteration turnaround at gradient 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.trainer import run_training
from repro.experiments.common import FAST_ITERATIONS
from repro.quantities import Gbps, to_MB
from repro.workloads.presets import (
    bytescheduler_factory,
    paper_config,
    prophet_factory,
)

__all__ = ["StrategyTrace", "Fig910Result", "trace", "run"]


@dataclass(frozen=True)
class StrategyTrace:
    """Utilization + throughput series and averages for one strategy."""

    strategy: str
    times: np.ndarray
    gpu_utilization: np.ndarray
    throughput_mb_s: np.ndarray
    mean_utilization: float
    mean_throughput_mb_s: float
    training_rate: float

    @property
    def idle_fraction(self) -> float:
        """Share of the series with the GPU near idle (< 10 % utilization)."""
        return float((self.gpu_utilization < 0.10).mean())


@dataclass(frozen=True)
class Fig910Result:
    prophet: StrategyTrace
    bytescheduler: StrategyTrace

    @property
    def utilization_gain(self) -> float:
        """Absolute GPU-utilization gain of Prophet (paper: ~23 points)."""
        return self.prophet.mean_utilization - self.bytescheduler.mean_utilization

    @property
    def throughput_gain(self) -> float:
        """Relative throughput gain of Prophet (paper: ~37 %)."""
        return (
            self.prophet.mean_throughput_mb_s
            / self.bytescheduler.mean_throughput_mb_s
            - 1.0
        )


def trace(strategy: str, factory, config) -> StrategyTrace:
    """Run ``config`` once; worker 0's series over the measured window."""
    result = run_training(config, factory)
    times, util = result.gpu_utilization_series(worker=0, window=0.25, resolution=0.05)
    _, thr = result.throughput_series(worker=0, window=0.25, resolution=0.05)
    start, end = result.measurement_window(0)
    mask = (times >= start) & (times <= end)
    return StrategyTrace(
        strategy=strategy,
        times=times[mask],
        gpu_utilization=util[mask],
        throughput_mb_s=np.array([to_MB(x) for x in thr[mask]]),
        mean_utilization=result.mean_gpu_utilization(0),
        mean_throughput_mb_s=to_MB(result.mean_throughput(0)),
        training_rate=result.training_rate(),
    )


def run(
    bandwidth: float = 3 * Gbps,
    n_iterations: int = FAST_ITERATIONS,
    seed: int = 0,
) -> Fig910Result:
    """ResNet-50 bs64 traces for Prophet and ByteScheduler."""
    config = paper_config(
        "resnet50",
        64,
        bandwidth=bandwidth,
        n_iterations=n_iterations,
        seed=seed,
        record_gradients=False,
    )
    return Fig910Result(
        prophet=trace("prophet", prophet_factory(), config),
        bytescheduler=trace("bytescheduler", bytescheduler_factory(), config),
    )
