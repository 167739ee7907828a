"""Shared helpers for the experiment runners.

Since PR 3 the rate-oriented helpers here are thin fronts over
:mod:`repro.runner`: strategy comparisons build plain-data
:class:`~repro.runner.spec.RunSpec` grids and hand them to
:func:`~repro.runner.executor.run_grid`, which consults the on-disk
result cache and fans misses out across worker processes
(``REPRO_JOBS=N`` or the ``jobs`` argument).  Results are bit-identical
to in-process execution — the simulator is seed-deterministic and each
run still executes single-threaded inside one process.  Strategies are
named by registry entry (:mod:`repro.runner.registry`), never passed as
callables: a closure can be neither shipped to a worker process nor
fingerprinted for the cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.config import TrainingConfig
from repro.runner import ResultCache, RunSpec, run_grid
from repro.workloads.presets import STRATEGY_FACTORIES

__all__ = [
    "StrategyRates",
    "run_strategies",
    "run_strategies_grid",
    "FAST_ITERATIONS",
    "FULL_ITERATIONS",
]

#: Iteration counts: FAST keeps a full figure/table regeneration in
#: seconds (benchmarks, CI); FULL matches a steadier measurement.
FAST_ITERATIONS = 12
FULL_ITERATIONS = 30


@dataclass(frozen=True)
class StrategyRates:
    """Training rates (samples/s per worker) per strategy for one config."""

    config: TrainingConfig
    rates: Mapping[str, float]

    def improvement(self, over: str, of: str = "prophet") -> float:
        """Relative improvement of ``of`` over ``over`` (e.g. 0.36 = +36%)."""
        return self.rates[of] / self.rates[over] - 1.0


def run_strategies(
    config: TrainingConfig,
    strategies: Sequence[str] | None = None,
    skip: int = 2,
    *,
    jobs: int | None = None,
    cache: bool | ResultCache | None = None,
) -> StrategyRates:
    """Run each strategy on ``config`` and collect per-worker rates.

    ``strategies`` is ``None`` (the four paper strategies) or a sequence
    of registry names (parallel + cached via :mod:`repro.runner`).
    """
    return run_strategies_grid(
        [config], strategies, skip, jobs=jobs, cache=cache
    )[0]


def run_strategies_grid(
    configs: Sequence[TrainingConfig],
    strategies: Sequence[str] | None = None,
    skip: int = 2,
    *,
    jobs: int | None = None,
    cache: bool | ResultCache | None = None,
) -> list[StrategyRates]:
    """Strategy comparison over many configs as **one** fan-out grid.

    Flattening the whole sweep into a single :func:`run_grid` call lets
    the executor overlap runs across configs, not just within one — a
    Table 2 bandwidth sweep keeps every worker busy end to end.
    """
    names = list(strategies) if strategies is not None else list(STRATEGY_FACTORIES)
    specs = [
        RunSpec(config=config, strategy=name, skip=skip)
        for config in configs
        for name in names
    ]
    results = run_grid(specs, jobs=jobs, cache=cache)
    rows = []
    for c, config in enumerate(configs):
        offset = c * len(names)
        rows.append(
            StrategyRates(
                config=config,
                rates={
                    name: results[offset + s].training_rate
                    for s, name in enumerate(names)
                },
            )
        )
    return rows

