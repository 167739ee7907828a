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

from repro.agg.fusion import MGWFBPFusionPolicy
from repro.experiments.common import FAST_ITERATIONS, run_labelled
from repro.net.collective import allreduce_cost
from repro.quantities import Gbps
from repro.runner import RunResult, RunSpec
from repro.workloads.presets import PAPER_TCP, paper_config

__all__ = ["STRATEGIES", "WORKLOADS", "run"]

#: Strategy names compared, report order.
STRATEGIES: tuple[str, ...] = ("mxnet-fifo", "mg-wfbp", "prophet")

#: (model, batch size) zoo entries compared, report order.
WORKLOADS: tuple[tuple[str, int], ...] = (
    ("resnet18", 32),
    ("resnet50", 64),
    ("vgg16", 32),
)


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
) -> dict[tuple[str, int, str, str], RunResult]:
    """Every (model, batch, collective, strategy) run, grid-cached.

    ``n_workers`` defaults to 4 so the hierarchical topology has real
    two-level structure (2 groups of ``group_size=2``).  The MG-WFBP runs
    replace the default module-boundary aggregation with the fusion
    policy, fed the collective's effective per-byte rate.
    """
    specs = {}
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
                specs[model, batch_size, collective, strategy] = RunSpec(
                    config=config, strategy=strategy
                )
    return run_labelled(specs)
