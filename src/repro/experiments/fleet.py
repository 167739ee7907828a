"""Fleet contention experiment — per-job strategies under shared-core load.

Not a paper figure: the paper evaluates Prophet one job at a time on a
private star, but a datacenter runs many concurrent jobs whose NICs feed
an oversubscribed core.  This experiment submits the same synthetic job
mix (Poisson arrivals, fixed cluster) once per scheduling strategy —
Prophet, the MXNet FIFO baseline, and MG-WFBP — plus a mixed fleet
rotating all three, and compares the *fleet-level* outcomes: aggregate
goodput, tail (p99) iteration time, Jain fairness across jobs, and
queueing delay.  Each fleet is one :class:`~repro.fleet.FleetSpec` run
through :func:`~repro.runner.run_grid`, so sweeps are cached and
parallelizable like every other experiment.
"""

from __future__ import annotations

from dataclasses import replace

from repro.experiments.common import run_labelled
from repro.fleet.spec import FleetResult, FleetSpec
from repro.quantities import Gbps

__all__ = ["MIXES", "BASE_SPEC", "run"]

#: Strategy mixes compared, report order.  Each value feeds
#: ``FleetSpec.strategies`` (jobs rotate round-robin through it).
MIXES: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("mxnet-fifo", ("mxnet-fifo",)),
    ("mg-wfbp", ("mg-wfbp",)),
    ("prophet", ("prophet",)),
    ("mixed", ("prophet", "mxnet-fifo", "mg-wfbp")),
)

#: The shared cluster every mix runs on: 8 two-worker jobs on 4x2 slots,
#: each job demanding 2 x 3 Gbps of a 10 Gbps core (1.2x oversubscribed
#: when four jobs run concurrently).
BASE_SPEC = FleetSpec(
    n_jobs=8,
    policy="fair",
    n_hosts=4,
    slots_per_host=2,
    core_bandwidth=10 * Gbps,
    nic_bandwidth=3 * Gbps,
    model="resnet18",
    batch_size=32,
    n_workers=2,
    n_iterations=4,
    mean_interarrival_s=0.05,
    seed=0,
)


def run(
    base: FleetSpec = BASE_SPEC,
    mixes: tuple[tuple[str, tuple[str, ...]], ...] = MIXES,
    policies: tuple[str, ...] = ("fifo", "fair"),
) -> dict[tuple[str, str], FleetResult]:
    """Every fleet, keyed by (mix, placement policy), grid-cached."""
    return run_labelled(
        {
            (mix_name, policy): replace(base, policy=policy, strategies=strategies)
            for policy in policies
            for mix_name, strategies in mixes
        }
    )
