"""Strategy lookup: resolution, kwargs, and the one strategy table."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.quantities import MB
from repro.runner import build_factory
from repro.sched.p3 import P3Scheduler


def test_presets_are_registered():
    for name in ("mxnet-fifo", "p3", "bytescheduler", "prophet", "mg-wfbp"):
        assert callable(build_factory(name))
    with pytest.raises(ConfigurationError):
        build_factory("fifo")  # no aliases: one name per preset


def test_unknown_strategy_is_a_configuration_error():
    with pytest.raises(ConfigurationError, match="unknown strategy") as err:
        build_factory("does-not-exist")
    assert str(err.value).endswith(
        "available: mxnet-fifo, p3, bytescheduler, prophet, mg-wfbp"
    )


def test_kwargs_reach_the_builder():
    factory = build_factory("p3", {"partition_size": 2 * MB})
    # The P3 factory ignores its worker context, so none is needed here.
    scheduler = factory(None)
    assert isinstance(scheduler, P3Scheduler)
    assert scheduler.partition_size == 2 * MB


def test_one_strategy_table_feeds_every_name_map():
    from repro.workloads.presets import (
        EXTENDED_FACTORIES,
        STRATEGY_BUILDERS,
        STRATEGY_FACTORIES,
    )

    assert list(EXTENDED_FACTORIES) == list(STRATEGY_BUILDERS)
    assert list(STRATEGY_FACTORIES) == ["mxnet-fifo", "p3", "bytescheduler", "prophet"]
    assert all(STRATEGY_FACTORIES[n] is EXTENDED_FACTORIES[n] for n in STRATEGY_FACTORIES)
