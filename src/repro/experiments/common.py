"""Shared pieces of the experiment registry.

An :class:`Experiment` is one figure or table: a run at its default
scale and the :class:`Table` layouts that print its result.  The rate
helpers are thin fronts over :mod:`repro.runner`: strategy comparisons
and labelled sweeps build plain-data :class:`~repro.runner.spec.RunSpec`
grids and hand them to :func:`~repro.runner.executor.run_grid`, which
consults the on-disk result cache and fans misses out across worker
processes (``REPRO_JOBS=N`` or the ``jobs`` argument).  Results are
bit-identical to in-process execution — the simulator is
seed-deterministic and each run still executes single-threaded inside
one process.  Strategies are named by registry entry
(:mod:`repro.runner.registry`), never passed as callables: a closure can
be neither shipped to a worker process nor fingerprinted for the cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable, Mapping, Sequence, TypeVar

from repro.config import TrainingConfig
from repro.metrics.report import format_table
from repro.runner import ResultCache, RunSpec, run_grid
from repro.workloads.presets import STRATEGY_FACTORIES

__all__ = [
    "Experiment",
    "Table",
    "StrategyRates",
    "run_labelled",
    "run_strategies",
    "run_strategies_grid",
    "FAST_ITERATIONS",
]

#: Iteration count that keeps a full figure/table regeneration in seconds.
FAST_ITERATIONS = 12

K = TypeVar("K", bound=Hashable)


@dataclass(frozen=True)
class Table:
    """One printed table: its title, column headers and rows of cells."""

    #: A fixed title, or one built from the run's result.
    title: str | Callable[[Any], str]
    columns: Sequence[str]
    #: The run's result -> one list of cells per table row.
    rows: Callable[[Any], Sequence[Sequence[object]]]

    def render(self, result: Any) -> str:
        title = self.title if isinstance(self.title, str) else self.title(result)
        return format_table(self.columns, self.rows(result), title=title)


@dataclass(frozen=True)
class Experiment:
    """One figure/table of the evaluation: its run and how it prints."""

    #: Called with no arguments, runs the experiment at its default scale.
    run: Callable[..., Any]
    tables: tuple[Table, ...]
    #: Text printed after the tables, built from the result.
    note: Callable[[Any], str] | None = None

    def report(self, **overrides: Any) -> Any:
        """Run with ``overrides``, print the tables and return the result."""
        result = self.run(**overrides)
        print("\n\n".join(table.render(result) for table in self.tables))
        if self.note is not None:
            print(self.note(result))
        return result


@dataclass(frozen=True)
class StrategyRates:
    """Training rates (samples/s per worker) per strategy for one config."""

    config: TrainingConfig
    rates: Mapping[str, float]

    def improvement(self, over: str, of: str = "prophet") -> float:
        """Relative improvement of ``of`` over ``over`` (e.g. 0.36 = +36%)."""
        return self.rates[of] / self.rates[over] - 1.0


def run_labelled(specs: Mapping[K, Any]) -> dict[K, Any]:
    """Run labelled specs as one fan-out grid; results keep their labels.

    A :class:`RunSpec` yields its :class:`~repro.runner.spec.RunResult`,
    a fleet spec its fleet result.
    """
    return dict(zip(specs, run_grid(list(specs.values()))))


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
    results = iter(run_grid(specs, jobs=jobs, cache=cache))
    return [
        StrategyRates(config, {name: next(results).training_rate for name in names})
        for config in configs
    ]
