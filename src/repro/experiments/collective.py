"""Collective backend comparison — Prophet vs MG-WFBP vs FIFO on rings.

Not a paper figure: the paper evaluates Prophet on the PS star only, but
its scheduling principle — order transfers so predicted generation bursts
are never blocked — applies verbatim to collective training, where every
transfer unit becomes one allreduce operation on a ring (the MG-WFBP
deployment model, arXiv:1912.09268).  This experiment runs the three
strategy families over the model zoo on both collective topologies:

* ``mxnet-fifo`` — whole tensors, generation order (the WFBP baseline);
* ``mg-wfbp`` — with the :class:`~repro.agg.fusion.MGWFBPFusionPolicy`
  picking merge boundaries from the profiled backward timeline and the
  ring's per-operation startup (the paper's "optimal merging");
* ``prophet`` — stepwise blocks sized to the predicted generation
  intervals, seeing the ring's *effective* bandwidth.

The per-operation startup on a ring is ``2(N-1)`` chunk setups, so the
fusion tradeoff is sharper than on the star: many small operations pay
the Eq. 10 penalty per step per hop, while one giant fused operation
serializes the whole model behind its slowest link.  The interesting
question is where each strategy lands between those poles.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.agg.fusion import MGWFBPFusionPolicy
from repro.experiments.common import FAST_ITERATIONS
from repro.metrics.report import format_table
from repro.net.collective import allreduce_cost
from repro.quantities import Gbps
from repro.runner import RunSpec, run_grid
from repro.workloads.presets import PAPER_TCP, paper_config

__all__ = ["CollectiveRow", "STRATEGIES", "run", "main"]

#: Strategy names compared, report order.
STRATEGIES: tuple[str, ...] = ("mxnet-fifo", "mg-wfbp", "prophet")

#: (model, batch size) zoo entries compared, report order.
WORKLOADS: tuple[tuple[str, int], ...] = (
    ("resnet18", 32),
    ("resnet50", 64),
    ("vgg16", 32),
)


@dataclass(frozen=True)
class CollectiveRow:
    model: str
    batch_size: int
    collective: str
    strategy: str
    training_rate: float
    mean_iteration_s: float


def _ring_cost_factor(n_workers: int, collective: str, group_size: int) -> float:
    """Serialized bytes per payload byte on one link (1 for one worker)."""
    if n_workers == 1:
        return 1.0
    g = group_size if collective == "hierarchical" else n_workers
    return allreduce_cost(g, n_workers // g)


def run(
    workloads: tuple[tuple[str, int], ...] = WORKLOADS,
    collectives: tuple[str, ...] = ("ring", "hierarchical"),
    strategies: tuple[str, ...] = STRATEGIES,
    bandwidth: float = 3 * Gbps,
    n_workers: int = 4,
    group_size: int = 2,
    n_iterations: int = FAST_ITERATIONS,
    seed: int = 0,
    *,
    jobs: int | None = None,
) -> list[CollectiveRow]:
    """All (workload × collective × strategy) combinations, grid-cached.

    ``n_workers`` defaults to 4 so the hierarchical topology has real
    two-level structure (2 groups of ``group_size=2``).  The MG-WFBP runs
    replace the default module-boundary aggregation with the fusion
    policy, fed the collective's effective per-byte rate.
    """
    specs = []
    keys = []
    for model, batch_size in workloads:
        for collective in collectives:
            factor = _ring_cost_factor(n_workers, collective, group_size)
            fusion = MGWFBPFusionPolicy(
                tcp=PAPER_TCP, bandwidth=bandwidth / factor
            )
            for strategy in strategies:
                overrides = {"agg_policy": fusion} if strategy == "mg-wfbp" else {}
                config = paper_config(
                    model,
                    batch_size,
                    bandwidth=bandwidth,
                    n_workers=n_workers,
                    n_iterations=n_iterations,
                    seed=seed,
                    record_gradients=False,
                    backend="allreduce",
                    collective=collective,
                    collective_group_size=group_size,
                    **overrides,
                )
                specs.append(RunSpec(config=config, strategy=strategy))
                keys.append((model, batch_size, collective, strategy))
    results = run_grid(specs, jobs=jobs)
    return [
        CollectiveRow(
            model=model,
            batch_size=batch_size,
            collective=collective,
            strategy=strategy,
            training_rate=res.training_rate,
            mean_iteration_s=res.mean_iteration_s,
        )
        for (model, batch_size, collective, strategy), res in zip(keys, results)
    ]


def main() -> list[CollectiveRow]:
    rows = run()
    by_key = {
        (r.model, r.batch_size, r.collective, r.strategy): r for r in rows
    }
    table = []
    for model, batch_size in WORKLOADS:
        for collective in ("ring", "hierarchical"):
            fifo = by_key[(model, batch_size, collective, "mxnet-fifo")]
            line = [f"{model} bs{batch_size}", collective]
            for strategy in STRATEGIES:
                r = by_key[(model, batch_size, collective, strategy)]
                line.append(f"{r.training_rate:.1f}")
            line.append(
                f"{by_key[(model, batch_size, collective, 'prophet')].training_rate / fifo.training_rate:.2f}x"
            )
            table.append(line)
    print(
        format_table(
            ["workload", "collective", *STRATEGIES, "prophet/fifo"],
            table,
            title=(
                "Allreduce backend — training rate (samples/s), "
                "4 workers, 3 Gbps"
            ),
        )
    )
    return rows


if __name__ == "__main__":
    main()
