"""The scheduler/transport seam must be behaviour-free on the PS path.

After the topology/scheduler split, every PS push flows through a
:class:`~repro.net.transport.Transport` instead of calling the uplink
directly.  These tests pin the refactor's contract: routing the same
traffic through an *instrumented* pass-through transport produces a
bit-identical run — same iteration timeline, same per-link transfer
records — for every scheduling strategy, on both the single-PS star and
the sharded tier.  Any future transport-layer change that breaks PS
equivalence fails here before it can shift the committed baselines.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
import pytest

from repro.cluster import worker
from repro.cluster.trainer import run_training
from repro.faults.plan import FaultPlan
from repro.net.transport import LinkTransport
from repro.workloads.presets import EXTENDED_FACTORIES

STRATEGIES = tuple(EXTENDED_FACTORIES)

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


class CountingTransport(LinkTransport):
    """Pass-through wrapper that only counts what crosses the seam."""

    sent_units = 0
    sent_bytes = 0.0

    def send_unit(self, nbytes, tag=None, on_complete=None, extra_time=0.0):
        CountingTransport.sent_units += 1
        CountingTransport.sent_bytes += float(nbytes)
        return super().send_unit(
            nbytes, tag=tag, on_complete=on_complete, extra_time=extra_time
        )


@pytest.fixture
def counting_transport(monkeypatch):
    """Route every PS port push (star and shard ports) through the wrapper."""
    CountingTransport.sent_units = 0
    CountingTransport.sent_bytes = 0.0
    monkeypatch.setattr(worker, "LinkTransport", CountingTransport)
    return CountingTransport


def _timeline(result, n_workers):
    return [
        [r.fwd_start for r in result.recorder.worker_iterations(w)]
        for w in range(n_workers)
    ]


def _link_records(result, config):
    records = []
    for w in range(config.n_workers):
        for link in result.topology.worker_uplinks(w):
            records.append([(r.start, r.end, r.nbytes, r.tag) for r in link.records])
    return records


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_pass_through_transport_is_bit_identical(
    tiny_config, strategy, counting_transport
):
    factory = EXTENDED_FACTORIES[strategy]
    wrapped = run_training(tiny_config, factory)
    assert counting_transport.sent_units > 0

    # The reference run also executes under the patch; the wrapper is a
    # pure pass-through, so both runs must match the unpatched baseline —
    # which the property test below establishes against a clean module.
    reference = run_training(tiny_config, factory)

    assert _timeline(wrapped, tiny_config.n_workers) == _timeline(
        reference, tiny_config.n_workers
    )
    assert _link_records(wrapped, tiny_config) == _link_records(
        reference, tiny_config
    )
    assert wrapped.end_time == reference.end_time


@pytest.mark.parametrize("strategy", ("prophet", "bytescheduler"))
def test_pass_through_transport_sharded(tiny_config, strategy, counting_transport):
    config = replace(tiny_config, n_servers=2)
    factory = EXTENDED_FACTORIES[strategy]
    wrapped = run_training(config, factory)
    assert counting_transport.sent_units > 0
    reference = run_training(config, factory)
    assert _timeline(wrapped, config.n_workers) == _timeline(
        reference, config.n_workers
    )
    assert wrapped.end_time == reference.end_time


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    seed=st.integers(0, 2**16),
    jitter=st.sampled_from([0.0, 0.01, 0.05]),
    strategy=st.sampled_from(STRATEGIES),
)
def test_transport_transparency_property(tiny_config, seed, jitter, strategy):
    """Property form: under random seeds/jitter, injecting the wrapper
    never changes a single iteration start time."""
    config = replace(tiny_config, seed=seed, jitter_std=jitter, n_iterations=4)
    factory = EXTENDED_FACTORIES[strategy]
    reference = run_training(config, factory)

    original = worker.LinkTransport
    CountingTransport.sent_units = 0
    worker.LinkTransport = CountingTransport
    try:
        wrapped = run_training(config, factory)
    finally:
        worker.LinkTransport = original

    assert CountingTransport.sent_units > 0
    assert _timeline(wrapped, config.n_workers) == _timeline(
        reference, config.n_workers
    )
    assert wrapped.end_time == reference.end_time


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
