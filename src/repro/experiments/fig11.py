"""Fig. 11 — per-gradient transfer start/end times under MXNet,
ByteScheduler, and Prophet (ResNet-50).

The paper's numbers: average gradient transmission takes 446 ms under
default MXNet vs 135 ms (ByteScheduler) and 125 ms (Prophet); the average
wait before transmission drops from 67 ms (ByteScheduler) to 26 ms
(Prophet), with the biggest wins on high-priority gradients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.trainer import run_training
from repro.experiments.common import FAST_ITERATIONS
from repro.quantities import Gbps
from repro.workloads.presets import (
    bytescheduler_factory,
    fifo_factory,
    paper_config,
    prophet_factory,
)

__all__ = ["GradientTimelineRow", "run"]


@dataclass(frozen=True)
class GradientTimelineRow:
    """Per-gradient mean timings for one strategy (ms)."""

    grads: np.ndarray
    wait_ms: np.ndarray
    transfer_ms: np.ndarray

    @property
    def mean_wait_ms(self) -> float:
        return float(self.wait_ms.mean())

    @property
    def mean_transfer_ms(self) -> float:
        return float(self.transfer_ms.mean())

    def high_priority_mean_wait_ms(self, upto: int = 80) -> float:
        """Mean wait over gradients 0..upto (the paper highlights 0–80)."""
        mask = self.grads <= upto
        return float(self.wait_ms[mask].mean())


def _collect(factory, config, skip: int) -> GradientTimelineRow:
    result = run_training(config, factory)
    recs = [
        r
        for r in result.gradient_records(worker=0)
        if r.iteration >= skip and np.isfinite(r.push_start) and np.isfinite(r.push_end)
    ]
    grads = sorted({r.grad for r in recs})
    wait = np.array(
        [np.mean([r.wait_time for r in recs if r.grad == g]) for g in grads]
    )
    transfer = np.array(
        [np.mean([r.transfer_time for r in recs if r.grad == g]) for g in grads]
    )
    return GradientTimelineRow(
        grads=np.asarray(grads),
        wait_ms=wait * 1e3,
        transfer_ms=transfer * 1e3,
    )


def run(
    bandwidth: float = 3 * Gbps,
    n_iterations: int = FAST_ITERATIONS,
    seed: int = 0,
    skip: int = 2,
) -> dict[str, GradientTimelineRow]:
    """Per-gradient wait/transfer means for each of the three strategies."""
    config = paper_config(
        "resnet50", 64, bandwidth=bandwidth, n_iterations=n_iterations, seed=seed
    )
    return {
        name: _collect(factory, config, skip)
        for name, factory in (
            ("mxnet-fifo", fifo_factory()),
            ("bytescheduler", bytescheduler_factory()),
            ("prophet", prophet_factory()),
        )
    }
