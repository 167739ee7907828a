"""Strategy registry: preset coverage, registration rules, resolution."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.quantities import MB
from repro.runner import available_strategies, build_factory, register_strategy
from repro.sched.p3 import P3Scheduler


def test_presets_are_registered():
    names = available_strategies()
    for expected in ("mxnet-fifo", "fifo", "p3", "bytescheduler", "prophet",
                     "mg-wfbp"):
        assert expected in names


def test_unknown_strategy_is_a_configuration_error():
    with pytest.raises(ConfigurationError, match="unknown strategy"):
        build_factory("does-not-exist")


def test_kwargs_reach_the_builder():
    factory = build_factory("p3", {"partition_size": 2 * MB})
    # The P3 factory ignores its worker context, so none is needed here.
    scheduler = factory(None)
    assert isinstance(scheduler, P3Scheduler)
    assert scheduler.partition_size == 2 * MB


def test_duplicate_registration_requires_overwrite():
    from repro.workloads.presets import fifo_factory

    with pytest.raises(ConfigurationError, match="already registered"):
        register_strategy("fifo", fifo_factory)
    # Explicit overwrite is allowed (used by extensions/tests).
    register_strategy("fifo", fifo_factory, overwrite=True)


def test_empty_name_rejected():
    with pytest.raises(ConfigurationError):
        register_strategy("", lambda: None)


def test_one_strategy_table_feeds_every_name_map():
    from repro.workloads.presets import (
        EXTENDED_FACTORIES,
        STRATEGY_BUILDERS,
        STRATEGY_FACTORIES,
    )

    assert list(EXTENDED_FACTORIES) == list(STRATEGY_BUILDERS)
    assert list(STRATEGY_FACTORIES) == ["mxnet-fifo", "p3", "bytescheduler", "prophet"]
    assert all(STRATEGY_FACTORIES[n] is EXTENDED_FACTORIES[n] for n in STRATEGY_FACTORIES)
    assert set(available_strategies()) >= {*STRATEGY_BUILDERS, "fifo"}
