"""An empty fault plan must be behaviour-free on every backend.

The fault layer is wired in only when a plan injects something; every
fault branch in the workers, ports, PSs, executors and controller sits
behind an ``is None`` check.  This property pins that contract on the
single-PS star, the key-sharded tier, and both allreduce collectives.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.trainer import run_training
from repro.faults.plan import FaultPlan
from repro.workloads.presets import EXTENDED_FACTORIES

#: One variant per communication topology: the single-PS star, the
#: key-sharded tier, and both allreduce collectives.
BACKEND_VARIANTS = ("star", "sharded", "ring", "hierarchical")


def _variant_config(tiny_config, variant, seed, jitter):
    base = replace(tiny_config, seed=seed, jitter_std=jitter, n_iterations=4)
    if variant == "star":
        return base
    if variant == "sharded":
        return replace(base, n_servers=2)
    if variant == "ring":
        return replace(base, backend="allreduce", collective="ring")
    return replace(
        base,
        n_workers=4,
        backend="allreduce",
        collective="hierarchical",
        collective_group_size=2,
    )


def _timeline(result, n_workers):
    return [
        [r.fwd_start for r in result.recorder.worker_iterations(w)]
        for w in range(n_workers)
    ]


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    seed=st.integers(0, 2**16),
    variant=st.sampled_from(BACKEND_VARIANTS),
    strategy=st.sampled_from(("prophet", "mxnet-fifo")),
)
def test_empty_fault_plan_is_transparent_on_every_backend(
    tiny_config, seed, variant, strategy
):
    """The fault layer's inertness contract, as a property: wiring an
    *empty* FaultPlan through any of the three backends (star PS, sharded
    tier, ring/hierarchical collective) is bit-identical to no plan at
    all — same per-worker iteration timeline, same end time, and no
    injector is ever built."""
    config = _variant_config(tiny_config, variant, seed, jitter=0.01)
    factory = EXTENDED_FACTORIES[strategy]
    reference = run_training(config, factory)
    empty = run_training(replace(config, faults=FaultPlan()), factory)

    assert reference.fault_stats is None and empty.fault_stats is None
    assert _timeline(empty, config.n_workers) == _timeline(
        reference, config.n_workers
    )
    assert empty.end_time == reference.end_time
