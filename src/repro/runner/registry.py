"""Strategy-factory lookup: resolve scheduler factories by name.

Scheduler factories are closures (they capture per-worker wiring), so a
:class:`~repro.runner.spec.RunSpec` cannot carry one across a process
boundary.  Instead it carries a *strategy name* plus keyword arguments;
the executor — in the parent for inline runs, in the spawn-started child
otherwise — resolves the name in
:data:`~repro.workloads.presets.STRATEGY_BUILDERS` and calls that
**builder** (e.g. :func:`repro.workloads.presets.p3_factory`) with those
kwargs to obtain the actual :data:`~repro.config.SchedulerFactory`.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.config import SchedulerFactory
from repro.errors import ConfigurationError
from repro.workloads.presets import STRATEGY_BUILDERS

__all__ = ["build_factory"]


def build_factory(
    name: str, kwargs: Mapping[str, Any] | None = None
) -> SchedulerFactory:
    """Resolve ``name`` and build its factory with ``kwargs``."""
    try:
        builder = STRATEGY_BUILDERS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown strategy {name!r}; available: {', '.join(STRATEGY_BUILDERS)}"
        ) from None
    return builder(**dict(kwargs or {}))
