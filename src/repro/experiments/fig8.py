"""Fig. 8 — training-rate comparison, Prophet vs ByteScheduler, across
representative models and batch sizes.

The paper reports 10–40 % improvements across ResNet-18/50/152 and
Inception-v3 at batch sizes 16–64 on the constrained-bandwidth cluster.
"""

from __future__ import annotations

from repro.experiments.common import FAST_ITERATIONS, StrategyRates, run_strategies_grid
from repro.quantities import Gbps
from repro.runner import ResultCache
from repro.workloads.presets import paper_config

__all__ = ["run", "DEFAULT_WORKLOADS"]

#: (model, batch size) pairs shown in the paper's Fig. 8.
DEFAULT_WORKLOADS: tuple[tuple[str, int], ...] = (
    ("resnet18", 32),
    ("resnet18", 64),
    ("resnet50", 32),
    ("resnet50", 64),
    ("resnet152", 16),
    ("resnet152", 32),
    ("inception_v3", 32),
    ("inception_v3", 64),
)


def run(
    workloads: tuple[tuple[str, int], ...] = DEFAULT_WORKLOADS,
    bandwidth: float = 3 * Gbps,
    n_iterations: int = FAST_ITERATIONS,
    seed: int = 0,
    *,
    jobs: int | None = None,
    cache: bool | ResultCache | None = None,
) -> list[StrategyRates]:
    """Prophet-vs-ByteScheduler rates for every (model, batch) pair.

    The whole (model, batch) × strategy grid goes through
    :func:`repro.runner.run_grid` as one fan-out, so ``jobs``/
    ``REPRO_JOBS`` parallelizes it and reruns hit the result cache.
    """
    configs = [
        paper_config(
            model,
            batch,
            bandwidth=bandwidth,
            n_iterations=n_iterations,
            seed=seed,
            record_gradients=False,
        )
        for model, batch in workloads
    ]
    return run_strategies_grid(
        configs, ("prophet", "bytescheduler"), jobs=jobs, cache=cache
    )
