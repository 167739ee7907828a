"""Strategy-factory registry: resolve scheduler factories by name.

Scheduler factories are closures (they capture per-worker wiring), so a
:class:`~repro.runner.spec.RunSpec` cannot carry one across a process
boundary.  Instead it carries a *registry name* plus keyword arguments;
the executor — in the parent for inline runs, in the spawn-started child
otherwise — resolves the name here and calls the registered **builder**
(e.g. :func:`repro.workloads.presets.p3_factory`) with those kwargs to
obtain the actual :data:`~repro.config.SchedulerFactory`.

The preset strategies (:data:`~repro.workloads.presets.STRATEGY_BUILDERS`)
are registered at import time.  Extensions (custom
schedulers, ablation variants) call :func:`register_strategy`; for
parallel execution the registering module must be importable in the child
— put the registration at module top level and name the module in
``RunSpec.config``'s model registration or import it from the builder.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.config import SchedulerFactory
from repro.errors import ConfigurationError
from repro.workloads.presets import STRATEGY_BUILDERS

__all__ = [
    "register_strategy",
    "available_strategies",
    "build_factory",
]

#: name -> builder; a builder maps kwargs to a SchedulerFactory.  Starts
#: with the preset strategies, plus ``fifo`` as an alias of ``mxnet-fifo``.
_BUILDERS: dict[str, Callable[..., SchedulerFactory]] = {
    **STRATEGY_BUILDERS,
    "fifo": STRATEGY_BUILDERS["mxnet-fifo"],
}


def register_strategy(
    name: str, builder: Callable[..., SchedulerFactory], *, overwrite: bool = False
) -> None:
    """Register ``builder`` under ``name`` for spec-based execution."""
    if not name:
        raise ConfigurationError("strategy name must be non-empty")
    if name in _BUILDERS and not overwrite:
        raise ConfigurationError(f"strategy {name!r} is already registered")
    _BUILDERS[name] = builder


def available_strategies() -> tuple[str, ...]:
    """Sorted names of every registered strategy."""
    return tuple(sorted(_BUILDERS))


def build_factory(
    name: str, kwargs: Mapping[str, Any] | None = None
) -> SchedulerFactory:
    """Resolve ``name`` and build its factory with ``kwargs``."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown strategy {name!r}; registered: "
            f"{', '.join(available_strategies())}"
        ) from None
    return builder(**dict(kwargs or {}))

