"""Sec. 5.4 — Prophet's runtime overhead.

Two components, both reproduced:

* **Job profiling** — the wall-clock (simulated) time the first
  ``profile_iterations`` warmup iterations take.  The paper reports 7 s
  (Inception-v3 bs32), 9.5 s (ResNet-50 bs64) and 24.7 s (ResNet-152
  bs32) for 50 iterations — negligible against thousands of training
  iterations.
* **Algorithm 1 planning** — the *real* CPU time one planning pass takes
  in this implementation, measured directly (the paper argues it is
  negligible via the linear worker scaling of Fig. 12).
"""

from __future__ import annotations

import time

from repro.agg.kvstore import KVStore
from repro.cluster.trainer import run_training
from repro.core.algorithm import plan_schedule
from repro.core.profiler import JobProfile
from repro.models.compute import build_compute_profile
from repro.models.registry import get_model
from repro.quantities import Gbps
from repro.workloads.presets import paper_config, paper_device, prophet_factory

__all__ = ["PAPER_WORKLOADS", "run_profiling_overhead", "planning_time"]

#: The paper's Sec. 5.4 workloads and its reported 50-iteration costs.
PAPER_WORKLOADS: tuple[tuple[str, int, float], ...] = (
    ("inception_v3", 32, 7.0),
    ("resnet50", 64, 9.5),
    ("resnet152", 32, 24.7),
)


def run_profiling_overhead(
    profile_iterations: int = 50,
    bandwidth: float = 10 * Gbps,
    seed: int = 0,
) -> list[float]:
    """Simulated seconds of the profiling phase per Sec. 5.4 workload, in
    :data:`PAPER_WORKLOADS` order."""
    seconds = []
    for model, batch, _ in PAPER_WORKLOADS:
        config = paper_config(
            model,
            batch,
            bandwidth=bandwidth,
            n_workers=3,
            n_iterations=profile_iterations + 2,
            seed=seed,
            record_gradients=False,
        )
        result = run_training(
            config,
            prophet_factory(
                oracle_profile=False, profile_iterations=profile_iterations
            ),
        )
        recs = result.recorder.worker_iterations(0)
        starts = [r.fwd_start for r in recs]
        seconds.append(float(starts[profile_iterations] - starts[0]))
    return seconds


def planning_time(model: str = "resnet50", batch_size: int = 64) -> float:
    """CPU seconds of one Algorithm 1 planning pass (median of 20)."""
    spec = get_model(model)
    compute = build_compute_profile(spec, paper_device(model), batch_size)
    profile = JobProfile.from_generation_schedule(
        KVStore().generation_schedule(compute)
    )
    samples = []
    for _ in range(20):
        start = time.perf_counter()
        plan_schedule(profile, 3 * Gbps)
        samples.append(time.perf_counter() - start)
    samples.sort()
    return samples[len(samples) // 2]
