"""Property: a strategy that cannot use a stall probe ignores one.

A PS port arms its stall timer only when its scheduler's class overrides
:meth:`~repro.sched.base.CommScheduler.grant_probe` (ByteScheduler's
credit window).  That rests on one argument: a strategy that leaves the
channel idle without a window (FIFO, P3 and MG-WFBP only when nothing is
ready; Prophet on a hold until a predicted generation) waits on an event
that pumps anyway, so a probe's re-pump finds the same answer.  Here
every such strategy runs twice on the same random input — once as it is,
once as a test-only subclass that overrides ``grant_probe`` with a no-op,
which forces the probes on — and both runs must agree on the end time,
every iteration row, every gradient record and the fault counters.
"""

from dataclasses import replace
from functools import cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.trainer import run_training
from repro.experiments import chaos
from repro.workloads.presets import (
    fifo_factory,
    mgwfbp_factory,
    p3_factory,
    prophet_factory,
)

STRATEGIES = {
    "fifo": fifo_factory(),
    "p3": p3_factory(),
    "mgwfbp": mgwfbp_factory(),
    "prophet-oracle": prophet_factory(),
    "prophet-online": prophet_factory(oracle_profile=False, profile_iterations=2),
}


def _no_probe(self, now: float) -> None:
    """Overrides ``grant_probe``, so the port arms its stall timer."""


@cache
def _probed_class(cls: type) -> type:
    return type(f"Probed{cls.__name__}", (cls,), {"grant_probe": _no_probe})


def probed(factory):
    """The same schedulers, with stall probes forced on."""

    def build(ctx):
        scheduler = factory(ctx)
        scheduler.__class__ = _probed_class(type(scheduler))
        return scheduler

    return build


def _compressed_plan():
    """The chaos cocktail squeezed into the tiny model's ~4 s run."""
    return chaos.default_plan(
        crash_at=1.0,
        restart_after=0.3,
        flap_at=1.5,
        flap_duration=0.5,
        stall_at=2.2,
        stall_duration=0.2,
    )


def _outputs(result) -> tuple:
    # repr: records may carry NaN marks, which never compare equal.
    return (
        repr(result.end_time),
        repr(result.recorder.iterations),
        repr(result.gradient_records()),
        repr(result.fault_stats),
    )


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    n_servers=st.sampled_from((1, 2, 4)),
    duplex=st.booleans(),
    sync_mode=st.sampled_from(("bsp", "ssp", "asp")),
    jitter_std=st.sampled_from((0.0, 0.01, 0.05)),
    seed=st.integers(0, 2**16),
    faulty=st.booleans(),
)
def test_forced_probes_change_nothing(
    tiny_config, strategy, n_servers, duplex, sync_mode, jitter_std, seed, faulty
):
    config = replace(
        tiny_config,
        n_servers=n_servers,
        duplex=duplex,
        sync_mode=sync_mode,
        jitter_std=jitter_std,
        seed=seed,
        faults=_compressed_plan() if faulty else None,
    )
    factory = STRATEGIES[strategy]
    assert _outputs(run_training(config, factory)) == _outputs(
        run_training(config, probed(factory))
    )


def test_forced_probes_fire(tiny_config):
    """The property is not vacuous: forced on, Prophet's holds on the
    star are probed."""
    config = replace(tiny_config, trace=True)
    result = run_training(config, probed(STRATEGIES["prophet-oracle"]))
    probes = [e for e in result.trace.events if e.name == "stall.probe"]
    assert probes
