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

from dataclasses import dataclass, replace

from repro.fleet.spec import FleetSpec
from repro.metrics.report import format_table
from repro.quantities import Gbps
from repro.runner import run_grid

__all__ = ["FleetRow", "MIXES", "BASE_SPEC", "run", "main"]

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


@dataclass(frozen=True)
class FleetRow:
    mix: str
    policy: str
    goodput: float
    p99_iteration_s: float
    jain_fairness: float
    mean_queueing_delay_s: float
    makespan_s: float


def run(
    base: FleetSpec = BASE_SPEC,
    mixes: tuple[tuple[str, tuple[str, ...]], ...] = MIXES,
    policies: tuple[str, ...] = ("fifo", "fair"),
    *,
    jobs: int | None = None,
) -> list[FleetRow]:
    """All (mix × placement policy) fleets, grid-cached."""
    specs = []
    keys = []
    for policy in policies:
        for mix_name, strategies in mixes:
            specs.append(replace(base, policy=policy, strategies=strategies))
            keys.append((mix_name, policy))
    results = run_grid(specs, jobs=jobs)
    return [
        FleetRow(
            mix=mix_name,
            policy=policy,
            goodput=res.goodput_samples_per_s,
            p99_iteration_s=res.p99_iteration_s,
            jain_fairness=res.jain_fairness,
            mean_queueing_delay_s=res.mean_queueing_delay_s,
            makespan_s=res.makespan_s,
        )
        for (mix_name, policy), res in zip(keys, results)
    ]


def main() -> list[FleetRow]:
    rows = run()
    table = [
        [
            r.mix,
            r.policy,
            f"{r.goodput:.1f}",
            f"{r.p99_iteration_s * 1e3:.0f}",
            f"{r.jain_fairness:.4f}",
            f"{r.mean_queueing_delay_s:.2f}",
            f"{r.makespan_s:.2f}",
        ]
        for r in rows
    ]
    print(
        format_table(
            [
                "mix", "policy", "goodput (s/s)", "p99 iter (ms)",
                "Jain", "mean queue (s)", "makespan (s)",
            ],
            table,
            title=(
                f"Fleet contention — {BASE_SPEC.n_jobs} x "
                f"{BASE_SPEC.model} bs{BASE_SPEC.batch_size} on "
                f"{BASE_SPEC.n_hosts}x{BASE_SPEC.slots_per_host} slots, "
                f"10 Gbps shared core"
            ),
        )
    )
    return rows


if __name__ == "__main__":
    main()
