"""The experiment registry — one entry per figure/table of the evaluation.

:data:`EXPERIMENTS` maps each ``repro run`` name to an
:class:`~repro.experiments.common.Experiment`: its run at the default
scale and the tables that print the result.  ``repro run``, ``repro
list``, ``repro profile`` and the CLI help all read it; adding an
experiment means adding one entry.  Experiments with logic of their own
(fault plans, fleets, time-to-accuracy, traced runs) keep it in a module
of this package; the other runs are defined here, above the registry.
DESIGN.md's experiment index maps each entry to its paper artifact.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Any, Iterable

from repro.agg.policies import ByteThresholdPolicy, ModulePrefixPolicy, TimeWindowPolicy
from repro.agg.stepwise import StepwiseSummary
from repro.config import TrainingConfig
from repro.experiments import (
    chaos,
    collective,
    convergence,
    dynamic,
    fig3,
    fig4,
    fig5,
    fig8,
    fig9_10,
    fig11,
    fig13,
    fleet,
    overhead,
)
from repro.experiments.common import (
    FAST_ITERATIONS,
    Experiment,
    StrategyRates,
    Table,
    run_labelled,
    run_strategies,
    run_strategies_grid,
)
from repro.models.compute import build_compute_profile
from repro.models.device import A100, TESLA_M60, TESLA_V100, DeviceSpec
from repro.models.registry import get_model
from repro.quantities import Gbps, MB, Mbps
from repro.runner import RunResult, RunSpec
from repro.workloads.presets import fifo_factory, paper_config

__all__ = ["EXPERIMENTS", "Experiment", "Table", "compute_seconds"]


def _sweep(field: str, values: Iterable[Any], **config: Any) -> list[TrainingConfig]:
    """One rates-only :func:`paper_config` per value of the ``field`` override."""
    return [paper_config(record_gradients=False, **config, **{field: v}) for v in values]


def _prophet(labels: Iterable[Any], configs: Iterable[TrainingConfig]) -> dict[Any, RunResult]:
    """One cached Prophet run per config, keyed by its label."""
    return run_labelled({
        label: RunSpec(config=config, strategy="prophet")
        for label, config in zip(labels, configs)
    })


def run_fig2(
    bandwidth: float = 2 * Gbps, n_iterations: int = FAST_ITERATIONS, seed: int = 0
) -> fig9_10.StrategyTrace:
    """Fig. 2 — GPU utilization and network throughput of one worker under
    default MXNet scheduling (ResNet-152, the paper's motivation experiment).

    The paper's observation: "the GPU utilization can dramatically decrease to
    zero during the pull operation of model parameters", idle over 50 % of the
    iteration at constrained bandwidth.  The runner reproduces the two time
    series and summary statistics: mean utilization, and the fraction of time
    the GPU sits essentially idle (< 10 % utilization).  1 PS + 3 workers,
    ResNet-152 bs32.
    """
    config = paper_config(
        model="resnet152",
        batch_size=32,
        bandwidth=bandwidth,
        n_workers=3,
        n_iterations=n_iterations,
        seed=seed,
        record_gradients=False,
    )
    return fig9_10.trace("mxnet-fifo", fifo_factory(), config)


def run_fig12(
    worker_counts: tuple[int, ...] = (2, 4, 6, 8),
    bandwidth: float = 10 * Gbps,
    n_iterations: int = FAST_ITERATIONS,
    seed: int = 0,
) -> dict[int, RunResult]:
    """Fig. 12 — scalability of Prophet in the number of workers.

    The paper scales ResNet-50 from 2 to 8 workers and finds per-worker rate
    nearly flat (69.94 → 68.83 samples/s), i.e. aggregate throughput is
    roughly linear in worker count and Algorithm 1 adds no measurable
    coordination overhead.  One Prophet run (ResNet-50 bs64) per cluster
    size.
    """
    configs = _sweep(
        "n_workers", worker_counts, bandwidth=bandwidth, n_iterations=n_iterations, seed=seed
    )
    return _prophet(worker_counts, configs)


#: The worker bandwidth limits of the paper's Table 2 (in Gbps).
PAPER_BANDWIDTHS_GBPS: tuple[float, ...] = (1.0, 2.0, 3.0, 4.0, 4.5, 6.0, 10.0)


def run_table2(
    model: str = "resnet50",
    batch_size: int = 64,
    bandwidths_gbps: tuple[float, ...] = PAPER_BANDWIDTHS_GBPS,
    n_iterations: int = FAST_ITERATIONS,
    seed: int = 0,
) -> list[StrategyRates]:
    """Table 2 — training rate under per-worker bandwidth limits.

    The paper caps worker bandwidth from 1 to 10 Gbps (ResNet-50 bs64) and
    compares Prophet, ByteScheduler and P3; we add default MXNet for the
    Sec. 5.3 ResNet-18 text experiment (110 / 137 / 153 samples/s at 3 Gbps
    for MXNet / P3 / Prophet).

    Expected shape: P3 collapses hardest at low bandwidth (per-partition
    blocking), Prophet leads through the mid range, all strategies converge
    once communication fully hides under compute (≥ 6 Gbps).  The full
    bandwidth × strategy grid is one fan-out (28 runs at the paper's seven
    bandwidths).
    """
    return run_strategies_grid(_sweep(
        "bandwidth",
        [gbps * Gbps for gbps in bandwidths_gbps],
        model=model,
        batch_size=batch_size,
        n_iterations=n_iterations,
        seed=seed,
    ))


# Table 3 — batch-size sensitivity of Prophet's improvement.
#
# The paper's observation: larger batches mean longer backward passes,
# wider stepwise intervals, and therefore more room for Prophet's block
# assembly — improvements over ByteScheduler grow from 1.5 % (ResNet-50
# bs16) to 36 % (bs64).  The reproduction target is the *trend* (monotone
# in batch size), with magnitudes that depend on the baseline's modeled
# inefficiency (see EXPERIMENTS.md).  The runs are Fig. 8's grid over
# Table 3's (model, batch) pairs.
TABLE3_WORKLOADS: tuple[tuple[str, int], ...] = (
    ("resnet18", 16),
    ("resnet18", 64),
    ("resnet50", 16),
    ("resnet50", 32),
    ("resnet50", 64),
)


def run_hetero(
    slow_worker_mbps: float = 500.0,
    base_bandwidth: float = 3 * Gbps,
    n_iterations: int = FAST_ITERATIONS,
    seed: int = 0,
) -> StrategyRates:
    """Sec. 5.3 — heterogeneous cluster: one worker capped at 500 Mbps.

    The paper's finding: the slow worker's bandwidth gates every BSP update,
    so the optimization space shrinks — Prophet (26.4 samples/s) and
    ByteScheduler (25.8) nearly tie, both well ahead of default MXNet
    (15.09).  The reproduction targets: both priority schedulers ≫ MXNet, and
    the Prophet-ByteScheduler gap collapsing to a few percent.

    ResNet-18 bs64 reproduces the paper's absolute rates (~26 samples/s for
    the priority schedulers): at 500 Mbps the slow worker's channel carries
    2 x 44.6 MB per iteration, ~2.4 s — matching the reported 25.8-26.4.
    """
    return run_strategies(paper_config(
        "resnet18",
        64,
        bandwidth=base_bandwidth,
        n_iterations=n_iterations,
        seed=seed,
        worker_bandwidth={0: slow_worker_mbps * Mbps},
        record_gradients=False,
    ))


def run_ablations(
    bandwidth: float = 3 * Gbps, n_iterations: int = FAST_ITERATIONS, seed: int = 0
) -> dict[str, RunResult]:
    """Design-choice ablations (beyond the paper's own experiments).

    DESIGN.md calls out the fidelity decisions this reproduction made; each
    gets an ablation so their effect is measurable rather than asserted:

    * **shared channel vs full duplex** — the paper's Eq. (4)/Constraint (8)
      imply push and pull serialize on one channel; the duplex ablation gives
      every worker independent up/down links.
    * **round-trip packing factor** — Algorithm 1 budgets the one-way E(i)
      against the block interval; factor 2 also reserves the mirrored pull.
    * **slicing granularity** — Fig. 5 shows Prophet slicing gradients to
      fill an interval; disabling slicing (huge ``slice_bytes``) reverts to
      whole-gradient packing.
    * **aggregation policy** — the stepwise pattern's block structure
      (module-boundary vs time-window vs byte-threshold bucketing).

    Every variant is a Prophet run on ResNet-50 bs64 expressed as plain
    spec data — config overrides plus
    :func:`~repro.workloads.presets.prophet_factory` kwargs — so the whole
    ablation table is one parallel, cached grid.
    """
    base = dict(
        bandwidth=bandwidth, n_iterations=n_iterations, seed=seed,
        record_gradients=False,
    )
    config = paper_config("resnet50", 64, **base)

    def prophet(cfg: TrainingConfig = config, **kwargs: Any) -> RunSpec:
        return RunSpec(config=cfg, strategy="prophet", strategy_kwargs=kwargs)

    return run_labelled({
        "baseline (shared channel)": prophet(),
        "full-duplex links": prophet(paper_config("resnet50", 64, duplex=True, **base)),
        "round-trip packing (2E)": prophet(round_trip_factor=2.0),
        # Effectively whole-gradient packing only.
        "no gradient slicing": prophet(slice_bytes=1e15),
        **{
            label: prophet(paper_config("resnet50", 64, agg_policy=policy, **base))
            for label, policy in (
                ("agg: time-window 5ms", TimeWindowPolicy(5e-3)),
                ("agg: byte-threshold 8MB", ByteThresholdPolicy(8 * MB)),
                ("agg: module depth 1 (stages)", ModulePrefixPolicy(1)),
            )
        },
    })


def run_asp(
    bandwidth: float = 3 * Gbps,
    n_iterations: int = FAST_ITERATIONS,
    jitter_std: float = 0.05,
    seed: int = 0,
) -> list[StrategyRates]:
    """Future-work item 1 — Prophet under ASP / SSP synchronization.

    The paper's conclusion proposes "validating the stepwise pattern of
    gradient transfer with the ASP model".  Two questions, both answered
    here:

    1. *Does the stepwise pattern survive?*  Yes by construction — the
       pattern originates in per-worker backward compute + KV aggregation,
       which synchronization does not touch.  What changes is its
       exploitability: without the BSP barrier, pulls return after one
       worker's own round trip, so preemption mistakes are cheaper.
    2. *Does Prophet still help?*  The runner compares Prophet vs
       ByteScheduler vs FIFO under BSP, SSP (staleness 2) and ASP, with
       enough jitter that the synchronization model matters
       (ResNet-50 bs64).
    """
    return run_strategies_grid(_sweep(
        "sync_mode",
        ("bsp", "ssp", "asp"),
        bandwidth=bandwidth,
        n_iterations=n_iterations,
        seed=seed,
        jitter_std=jitter_std,
    ))


DEVICE_GENERATIONS: tuple[DeviceSpec, ...] = (TESLA_M60, TESLA_V100, A100)


def run_devices(
    devices: tuple[DeviceSpec, ...] = DEVICE_GENERATIONS,
    bandwidth: float = 10 * Gbps,
    n_iterations: int = FAST_ITERATIONS,
    seed: int = 0,
) -> list[StrategyRates]:
    """Future-work item 2 — Prophet on faster GPU instances (p3/p4).

    The paper proposes examining Prophet on p3/p4 EC2 instances.  Faster GPUs
    shrink the backward pass, which (a) narrows the stepwise intervals
    Algorithm 1 packs against and (b) raises the bandwidth needed to stay
    compute-bound — at a fixed link speed, a V100 node is far deeper into the
    communication-bound regime than an M60 node.  The runner sweeps device
    generations at a fixed bandwidth (ResNet-50 bs64, 10 Gbps) and reports
    where scheduling still pays.
    """
    return run_strategies_grid(_sweep(
        "device", devices, bandwidth=bandwidth, n_iterations=n_iterations, seed=seed
    ))


def compute_seconds(config: TrainingConfig) -> float:
    """One iteration's compute time for ``config``'s model on its device."""
    model = get_model(config.model)
    return build_compute_profile(model, config.device, config.batch_size).compute_time


def run_scalability(
    server_counts: tuple[int, ...] = (1, 2, 4, 8),
    model: str = "resnet50",
    batch_size: int = 64,
    bandwidth: float = 10 * Gbps,
    ps_bandwidth: float = 3 * Gbps,
    n_workers: int = 3,
    n_iterations: int = FAST_ITERATIONS,
    seed: int = 0,
) -> dict[int, RunResult]:
    """PS-tier scalability — iteration time vs. number of parameter servers.

    Not a paper figure: the paper fixes a single PS (its star topology), so
    its PS NIC is the aggregation bottleneck whenever the workers' combined
    gradient stream exceeds one NIC.  BytePS-style deployments answer this by
    key-sharding the model over ``n_servers`` parameter servers, multiplying
    the aggregate PS-side capacity.  This experiment holds the workload and
    the *per-server* NIC cap fixed and sweeps the shard count: iteration time
    should improve monotonically (within scheduler noise) until the bottleneck
    moves back to the worker NICs or to compute.

    ``ps_bandwidth`` is each server's NIC capacity (the cap that makes the
    single-PS baseline bottlenecked); ``bandwidth`` is the per-worker NIC.
    """
    configs = _sweep(
        "n_servers",
        server_counts,
        model=model,
        batch_size=batch_size,
        bandwidth=bandwidth,
        n_workers=n_workers,
        n_iterations=n_iterations,
        seed=seed,
        ps_bandwidth=ps_bandwidth,
    )
    return _prophet(server_counts, configs)


def _pct(fraction: float) -> str:
    return f"{fraction * 100:+.1f}%"


def _rates(rates: StrategyRates, *names: str) -> list[str]:
    return [f"{rates.rates[name]:.1f}" for name in names]


#: The four paper strategies in the column order of the rate tables.
_PAPER_COLUMNS = ("prophet", "bytescheduler", "p3", "mxnet-fifo")


def _blocks(summary: StepwiseSummary) -> list[list[object]]:
    """Fig. 4 rows: one per gradient block, with the interval to the next."""
    return [
        [i, size, f"{t * 1e3:.1f}", f"{interval * 1e3:.1f}"]
        for i, (size, t, interval) in enumerate(
            zip(summary.block_sizes, summary.block_times, [*summary.intervals, math.nan])
        )
    ]


_FIG4_COLUMNS = ("block", "gradients", "flush time (ms)", "interval to next (ms)")


def _chaos_title(res: chaos.ChaosResult) -> str:
    plan, config = res.plan, res.config
    if plan.crashes:
        crash = plan.crashes[0]
        blurb = (
            f"worker {crash.worker} crash @ {crash.at:g}s "
            f"(+{crash.restart_after:g}s restart), drops, flap"
        )
        if plan.ps_stalls:
            blurb += ", PS stall"
    else:
        blurb = "drops, flap (no crash)"
    if config.backend == "allreduce":
        topo = f"allreduce/{config.collective} x{config.n_workers}"
    elif config.n_servers > 1:
        topo = f"ps x{config.n_servers} sharded, {config.n_workers} workers"
    else:
        topo = f"ps star, {config.n_workers} workers"
    return f"Chaos — {config.model} bs{config.batch_size} [{topo}]: {blurb}"


def _chaos_rows(res: chaos.ChaosResult) -> list[list[object]]:
    rows = []
    for name in sorted(res.goodput_retained, key=res.goodput_retained.get, reverse=True):
        amp = res.stall_amplification[name]
        rows.append([
            name,
            f"{res.clean_rates[name]:.1f}",
            f"{res.faulty_rates[name]:.1f}",
            f"{res.goodput_retained[name] * 100:.1f}%",
            f"{res.recovery_time[name] * 1e3:.0f}",
            str(res.retries[name]),
            "-" if math.isnan(amp) else f"{amp * 100:.2f}%",
        ])
    return rows


def _scalability_rows(res: dict[int, RunResult]) -> list[list[object]]:
    base = next(iter(res.values())).mean_iteration_s
    return [
        [k, f"{r.mean_iteration_s * 1e3:.1f}", f"{r.training_rate:.1f}",
         f"{base / r.mean_iteration_s:.2f}x"]
        for k, r in res.items()
    ]


def _collective_rows(res: dict[tuple[str, int, str, str], RunResult]) -> list[list[object]]:
    rows = []
    for model, batch in collective.WORKLOADS:
        for topo in ("ring", "hierarchical"):
            rate = {s: res[model, batch, topo, s].training_rate for s in collective.STRATEGIES}
            rows.append([
                f"{model} bs{batch}",
                topo,
                *(f"{rate[s]:.1f}" for s in collective.STRATEGIES),
                f"{rate['prophet'] / rate['mxnet-fifo']:.2f}x",
            ])
    return rows


_FLEET = fleet.BASE_SPEC

#: Every experiment ``repro run`` knows, in ``repro list`` order.
EXPERIMENTS: dict[str, Experiment] = {
    "fig2": Experiment(run_fig2, (Table(
        "Fig. 2 — default MXNet, ResNet-152: GPU starvation during pulls",
        ("metric", "value"),
        lambda t: [
            ["mean GPU utilization", f"{t.mean_utilization * 100:.1f}%"],
            ["fraction of time near-idle (<10%)", f"{t.idle_fraction * 100:.1f}%"],
            ["training rate (samples/s/worker)", f"{t.training_rate:.1f}"],
            ["peak throughput (MB/s)", f"{t.throughput_mb_s.max():.1f}"],
        ],
    ),)),
    "fig3": Experiment(
        lambda: (fig3.run_partition_sweep(), fig3.run_autotune()),
        (
            Table(
                "Fig. 3(a) — P3 rate vs partition size (ResNet-50 bs64, 3 Gbps)",
                ("partition (MB)", "rate (samples/s)"),
                lambda ab: [[mb, r.training_rate] for mb, r in ab[0].items()],
            ),
            Table(
                "Fig. 3(b) — ByteScheduler auto-tuning fluctuation",
                ("iteration", "rate (samples/s)", "credit (MB)"),
                lambda ab: list(zip(ab[1].iterations, ab[1].rates, ab[1].credits_mb)),
            ),
        ),
        note=lambda ab: (
            f"\nrate fluctuation band: {min(ab[1].rates):.1f} - "
            f"{max(ab[1].rates):.1f} samples/s"
        ),
    ),
    "fig4": Experiment(
        fig4.run,
        (
            Table(
                "Fig. 4 — stepwise pattern: ResNet-50 (MXNet module-boundary aggregation)",
                _FIG4_COLUMNS,
                lambda r: _blocks(r.resnet50_summary),
            ),
            Table(
                "Fig. 4 — stepwise pattern: VGG-19 (paper's observed 4 blocks)",
                _FIG4_COLUMNS,
                lambda r: _blocks(r.vgg19_summary),
            ),
        ),
        note=lambda _: "",  # a blank line closes the figure
    ),
    "fig5": Experiment(fig5.run, (Table(
        "Fig. 5 — illustrative 3-gradient example (1 worker, 1 Gbps)",
        ("strategy", "grad0 wait (ms)", "grad0 update (ms)", "iteration (ms)"),
        lambda res: [
            [name, f"{r.grad0_wait_ms:.2f}", f"{r.grad0_update_ms:.1f}", f"{r.iteration_ms:.1f}"]
            for name, r in res.items()
        ],
    ),)),
    "fig8": Experiment(fig8.run, (Table(
        "Fig. 8 — training rate, Prophet vs ByteScheduler (3 Gbps)",
        ("model", "batch", "Prophet (s/s)", "ByteScheduler (s/s)", "improvement"),
        lambda rows: [
            [r.config.model, r.config.batch_size, *_rates(r, "prophet", "bytescheduler"),
             _pct(r.improvement(over="bytescheduler"))]
            for r in rows
        ],
    ),)),
    "fig9_10": Experiment(
        fig9_10.run,
        (Table(
            "Figs. 9 & 10 — ResNet-50 bs64, Prophet vs ByteScheduler",
            ("strategy", "mean GPU util", "mean throughput (MB/s)", "rate (s/s)"),
            lambda res: [
                [t.strategy, f"{t.mean_utilization * 100:.1f}%",
                 f"{t.mean_throughput_mb_s:.1f}", f"{t.training_rate:.1f}"]
                for t in (res.prophet, res.bytescheduler)
            ],
        ),),
        note=lambda res: (
            f"\nutilization gain: {res.utilization_gain * 100:+.1f} points; "
            f"throughput gain: {_pct(res.throughput_gain)}"
        ),
    ),
    "fig11": Experiment(fig11.run, (Table(
        "Fig. 11 — per-gradient communication timings (ResNet-50 bs64)",
        ("strategy", "mean wait (ms)", "mean transfer (ms)", "wait grads 0-80 (ms)"),
        lambda res: [
            [name, f"{r.mean_wait_ms:.1f}", f"{r.mean_transfer_ms:.1f}",
             f"{r.high_priority_mean_wait_ms():.1f}"]
            for name, r in res.items()
        ],
    ),)),
    "fig12": Experiment(run_fig12, (Table(
        "Fig. 12 — Prophet scalability (ResNet-50 bs64)",
        ("workers", "per-worker rate (s/s)", "aggregate rate (s/s)"),
        lambda res: [
            [n, f"{r.training_rate:.2f}", f"{n * r.training_rate:.1f}"]
            for n, r in res.items()
        ],
    ),)),
    "fig13": Experiment(fig13.run, (Table(
        lambda res: (
            f"Fig. 13 — profiling overhead "
            f"(profile = first {res.profile_iterations} iterations)"
        ),
        ("strategy", "util during profiling", "util after activation", "steady rate (s/s)"),
        lambda res: [
            ["prophet (online profiling)", f"{res.prophet_early * 100:.1f}%",
             f"{res.prophet_late * 100:.1f}%", f"{res.prophet_rate:.1f}"],
            ["bytescheduler", f"{res.bytescheduler_early * 100:.1f}%",
             f"{res.bytescheduler_late * 100:.1f}%", f"{res.bytescheduler_rate:.1f}"],
        ],
    ),)),
    "table2": Experiment(run_table2, (Table(
        lambda rows: (
            f"Table 2 — {rows[0].config.model} bs{rows[0].config.batch_size} "
            "rate (samples/s) vs bandwidth"
        ),
        ("bandwidth (Gbps)", "Prophet", "ByteScheduler", "P3", "MXNet"),
        lambda rows: [
            [f"{r.config.bandwidth / Gbps:g}", *_rates(r, *_PAPER_COLUMNS)] for r in rows
        ],
    ),)),
    "table3": Experiment(partial(fig8.run, workloads=TABLE3_WORKLOADS), (Table(
        "Table 3 — batch-size sensitivity (3 Gbps)",
        ("model (batch)", "Prophet (s/s)", "ByteScheduler (s/s)", "improvement"),
        lambda rows: [
            [f"{r.config.model} ({r.config.batch_size})", f"{r.rates['prophet']:.2f}",
             f"{r.rates['bytescheduler']:.2f}", _pct(r.improvement(over="bytescheduler"))]
            for r in rows
        ],
    ),)),
    "hetero": Experiment(
        run_hetero,
        (Table(
            lambda r: (
                "Sec. 5.3 — heterogeneous cluster "
                f"(worker 0 capped at {r.config.worker_bandwidth[0] / Mbps:.0f} Mbps)"
            ),
            ("strategy", "rate (samples/s)"),
            lambda r: sorted(r.rates.items(), key=lambda kv: -kv[1]),
        ),),
        note=lambda r: (
            f"\nProphet vs ByteScheduler: {_pct(r.improvement(over='bytescheduler'))}  "
            f"(paper: +2.3%); vs MXNet: {_pct(r.improvement(over='mxnet-fifo'))} "
            f"(paper: +75% — our work-conserving FIFO loses less at saturation; "
            f"see EXPERIMENTS.md)"
        ),
    ),
    "overhead": Experiment(
        overhead.run_profiling_overhead,
        (Table(
            "Sec. 5.4 — job-profiling overhead (50 iterations)",
            ("model (batch)", "profiling time (s)", "paper (s)"),
            lambda seconds: [
                [f"{model} ({batch})", f"{s:.1f}", f"{paper_s:.1f}"]
                for (model, batch, paper_s), s in zip(overhead.PAPER_WORKLOADS, seconds)
            ],
        ),),
        note=lambda _: (
            f"\nAlgorithm 1 planning pass: {overhead.planning_time() * 1e3:.2f} ms CPU"
        ),
    ),
    "ablations": Experiment(run_ablations, (Table(
        "Ablations — ResNet-50 bs64 at 3 Gbps",
        ("variant", "Prophet rate (samples/s)"),
        lambda res: [[name, f"{r.training_rate:.1f}"] for name, r in res.items()],
    ),)),
    "asp": Experiment(run_asp, (Table(
        "Future work (1) — ResNet-50 bs64 at 3 Gbps, 5% compute "
        "jitter, under BSP / SSP(2) / ASP",
        ("sync", "Prophet", "ByteScheduler", "P3", "MXNet", "P vs BS"),
        lambda rows: [
            [r.config.sync_mode, *_rates(r, *_PAPER_COLUMNS),
             _pct(r.improvement(over="bytescheduler"))]
            for r in rows
        ],
    ),)),
    "devices": Experiment(run_devices, (Table(
        "Future work (2) — ResNet-50 bs64 at 10 Gbps across GPU "
        "generations (faster compute -> communication-bound)",
        ("device", "compute (ms)", "Prophet", "ByteScheduler", "MXNet",
         "P vs BS", "P vs MXNet"),
        lambda rows: [
            [r.config.device.name, f"{compute_seconds(r.config) * 1e3:.0f}",
             *_rates(r, "prophet", "bytescheduler", "mxnet-fifo"),
             _pct(r.improvement(over="bytescheduler")), _pct(r.improvement(over="mxnet-fifo"))]
            for r in rows
        ],
    ),)),
    "dynamic": Experiment(dynamic.run, (Table(
        lambda res: (
            "Dynamic network environment — square wave "
            f"{res.phases[0][1]:g}/{res.phases[1][1]:g} Gbps every "
            f"{res.phases[1][0] - res.phases[0][0]:g}s (ResNet-50 bs64)"
        ),
        ("strategy", "mean rate (samples/s)", "worst iteration (ms)"),
        lambda res: [
            [name, f"{res.mean_rates[name]:.1f}", f"{res.worst_iteration_ms[name]:.0f}"]
            for name in sorted(res.mean_rates, key=res.mean_rates.get, reverse=True)
        ],
    ),)),
    "convergence": Experiment(convergence.run, (Table(
        "Time-to-accuracy under BSP/SSP/ASP (Prophet-scheduled "
        "cluster + stale SGD on a reference quadratic)",
        ("sync", "s/iteration", "mean staleness", "iters to 1% loss", "time to 1% loss (s)"),
        lambda rows: [
            [
                r.sync_mode,
                f"{r.seconds_per_iteration * 1e3:.0f} ms",
                f"{r.mean_staleness:.2f}",
                "diverged" if r.iterations_to_target is None else r.iterations_to_target,
                "-" if r.time_to_target_s is None else f"{r.time_to_target_s:.1f}",
            ]
            for r in rows
        ],
    ),)),
    "chaos": Experiment(chaos.run, (Table(
        _chaos_title,
        ("strategy", "clean (samples/s)", "faulty (samples/s)", "goodput retained",
         "recovery (ms)", "retries", "stall amp."),
        _chaos_rows,
    ),)),
    "scalability": Experiment(run_scalability, (Table(
        "PS-tier scalability — Prophet, ResNet-50 bs64, 3 Gbps per-server NIC",
        ("servers", "iteration (ms)", "rate (samples/s)", "speedup"),
        _scalability_rows,
    ),)),
    "collective": Experiment(collective.run, (Table(
        lambda res: (
            "Allreduce backend — training rate (samples/s), "
            f"{len(next(iter(res.values())).per_worker_rates)} workers, 3 Gbps"
        ),
        ("workload", "collective", *collective.STRATEGIES, "prophet/fifo"),
        _collective_rows,
    ),)),
    "fleet": Experiment(fleet.run, (Table(
        f"Fleet contention — {_FLEET.n_jobs} x {_FLEET.model} bs{_FLEET.batch_size} on "
        f"{_FLEET.n_hosts}x{_FLEET.slots_per_host} slots, 10 Gbps shared core",
        ("mix", "policy", "goodput (s/s)", "p99 iter (ms)", "Jain", "mean queue (s)",
         "makespan (s)"),
        lambda res: [
            [mix, policy, f"{r.goodput_samples_per_s:.1f}", f"{r.p99_iteration_s * 1e3:.0f}",
             f"{r.jain_fairness:.4f}", f"{r.mean_queueing_delay_s:.2f}", f"{r.makespan_s:.2f}"]
            for (mix, policy), r in res.items()
        ],
    ),)),
}
