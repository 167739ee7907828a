"""Dynamic network environments — the motivation the paper leads with.

Sec. 1: "such *static* configurations of partition size and credit size
can hardly adapt to the *dynamic* network environments during the DDNN
training"; Sec. 5.3 trains "under a varying network bandwidth
environment".  This runner drives the cluster with an oscillating
bandwidth schedule and compares the adaptive strategy (Prophet, re-planning
from its monitor every iteration) against the static ones, reporting both
mean rate and per-phase rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.cluster.trainer import run_training
from repro.net.link import BandwidthSchedule
from repro.quantities import Gbps
from repro.workloads.presets import STRATEGY_FACTORIES, paper_config

__all__ = ["DynamicResult", "run"]


@dataclass(frozen=True)
class DynamicResult:
    """Per-strategy rates under the oscillating schedule."""

    phases: tuple[tuple[float, float], ...]  # (start time, Gbps)
    mean_rates: Mapping[str, float]
    worst_iteration_ms: Mapping[str, float]


def run(
    high_gbps: float = 4.0,
    low_gbps: float = 1.5,
    phase_seconds: float = 5.0,
    n_iterations: int = 24,
    monitor_interval: float = 2.0,
    seed: int = 0,
) -> DynamicResult:
    """ResNet-50 bs64 under a square-wave bandwidth schedule."""
    points = []
    level_high = True
    for k in range(8):
        points.append(
            (k * phase_seconds, (high_gbps if level_high else low_gbps) * Gbps)
        )
        level_high = not level_high
    schedule = BandwidthSchedule(points)
    config = paper_config(
        "resnet50",
        64,
        bandwidth=schedule,
        n_iterations=n_iterations,
        seed=seed,
        monitor_interval=monitor_interval,
        record_gradients=False,
    )
    mean_rates = {}
    worst = {}
    for name, factory in STRATEGY_FACTORIES.items():
        result = run_training(config, factory)
        spans = result.iteration_spans(0, skip=2)
        mean_rates[name] = config.batch_size / float(spans.mean())
        worst[name] = float(np.max(spans)) * 1e3
    return DynamicResult(
        phases=tuple((t, b / Gbps) for t, b in points),
        mean_rates=mean_rates,
        worst_iteration_ms=worst,
    )
