"""The paper's evaluation claims, checked from one table.

Each row names the artifact (figure or table) and its paper section, the
experiment run at the scale the claim is checked at, what is measured,
and the bound it must meet; the paper's own number, where it gives one,
goes into the failure message.  Every distinct run executes once per
session and all rows that read it share the result.  ``python -m repro
run <experiment>`` prints the full tables.
"""

from __future__ import annotations

import contextlib
import io
import operator
from dataclasses import dataclass
from functools import cache
from typing import Any, Callable

import numpy as np
import pytest

from repro.agg import KVStore, block_summary
from repro.core.algorithm import plan_schedule
from repro.core.profiler import JobProfile
from repro.experiments import (
    EXPERIMENTS, chaos, collective, compute_seconds, convergence, dynamic, fig3, fig4, fig5,
    fig8, fig9_10, fig11, fig13, overhead,
)
from repro.experiments.common import run_strategies
from repro.models import build_compute_profile, get_model
from repro.quantities import Gbps
from repro.workloads.presets import EXTENDED_FACTORIES, paper_config, paper_device


def _resnet50_kvstore_schedule():
    compute = build_compute_profile(get_model("resnet50"), paper_device("resnet50"), 64)
    return KVStore().generation_schedule(compute)


def _planning():
    profile = JobProfile.from_generation_schedule(_resnet50_kvstore_schedule())
    return plan_schedule(profile, 3 * Gbps), overhead.planning_time()


def _mains_output() -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        EXPERIMENTS["fig4"].report()
        EXPERIMENTS["fig5"].report()
    return out.getvalue()


_CHAOS_PLAN = dict(
    crash_at=0.4, restart_after=0.2, drop=0.03, flap_at=0.8, flap_duration=0.3,
    flap_factor=0.5, stall_at=1.2, stall_duration=0.1,
)

#: Every run a claim reads, at the scale the claim states.
RUNS: dict[str, Callable[[], Any]] = {
    "ablations@10": lambda: EXPERIMENTS["ablations"].run(n_iterations=10),
    "asp@10": lambda: EXPERIMENTS["asp"].run(n_iterations=10),
    "chaos": lambda: chaos.run(
        model="resnet18", batch_size=16, n_iterations=5, plan=chaos.default_plan(**_CHAOS_PLAN)
    ),
    "collective-ring@6": lambda: collective.run(
        workloads=(("resnet18", 32),), collectives=("ring",), n_workers=3, n_iterations=6
    ),
    "convergence@12": lambda: convergence.run(n_iterations=12, sgd_steps=3000),
    "devices@10": lambda: EXPERIMENTS["devices"].run(n_iterations=10),
    "dynamic@20": lambda: dynamic.run(n_iterations=20),
    "extended@10": lambda: run_strategies(
        paper_config("resnet50", 64, bandwidth=3 * Gbps, n_iterations=10, record_gradients=False),
        list(EXTENDED_FACTORIES),
    ),
    "fig2@10": lambda: EXPERIMENTS["fig2"].run(n_iterations=10),
    "fig3a@10": lambda: fig3.run_partition_sweep(n_iterations=10),
    "fig3a-1-8MB@6": lambda: fig3.run_partition_sweep(partitions_mb=(1.0, 8.0), n_iterations=6),
    "fig3b@32": lambda: fig3.run_autotune(n_iterations=32, tune_every=2),
    "fig4": fig4.run,
    "fig5": fig5.run,
    "fig8@10": lambda: fig8.run(n_iterations=10),
    "fig8-resnet18-32@6": lambda: fig8.run(workloads=(("resnet18", 32),), n_iterations=6),
    "fig9_10@10": lambda: fig9_10.run(n_iterations=10),
    "fig11@10": lambda: fig11.run(n_iterations=10),
    "fig12@10": lambda: EXPERIMENTS["fig12"].run(n_iterations=10),
    "fig13@18": lambda: fig13.run(profile_iterations=6, n_iterations=18),
    "hetero@10": lambda: EXPERIMENTS["hetero"].run(n_iterations=10),
    "mains": _mains_output,
    "overhead@10": lambda: overhead.run_profiling_overhead(profile_iterations=10),
    "planning": _planning,
    "scalability@6": lambda: EXPERIMENTS["scalability"].run(
        server_counts=(1, 2), model="resnet18", batch_size=32, n_iterations=6
    ),
    "stepwise": lambda: block_summary(_resnet50_kvstore_schedule().c),
    "table2@10": lambda: EXPERIMENTS["table2"].run(n_iterations=10),
    "table2-3G@6": lambda: EXPERIMENTS["table2"].run(bandwidths_gbps=(3.0,), n_iterations=6),
    "table3@10": lambda: EXPERIMENTS["table3"].run(n_iterations=10),
    "table3-resnet18-32@6": lambda: EXPERIMENTS["table3"].run(
        workloads=(("resnet18", 32),), n_iterations=6
    ),
}


@cache
def result(run: str) -> Any:
    return RUNS[run]()


OPS: dict[str, Callable[[Any, Any], bool]] = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    "==": operator.eq, "in": lambda value, bound: bound[0] <= value <= bound[1],
}


@dataclass(frozen=True)
class Claim:
    id: str
    artifact: str
    section: str
    run: str
    measure: Callable[[Any], Any]
    op: str
    bound: Any
    paper: str | None = None

    def check(self) -> None:
        value = self.measure(result(self.run))
        bound = f"[{self.bound[0]}, {self.bound[1]}]" if self.op == "in" else repr(self.bound)
        paper = f"; paper: {self.paper}" if self.paper else ""
        assert OPS[self.op](value, self.bound), (
            f"{self.id} ({self.artifact}, {self.section}): measured {value!r}, "
            f"bound {self.op} {bound}{paper}"
        )


def _rows(artifact: str, section: str, run: str, *specs: tuple) -> list[Claim]:
    return [Claim(spec[0], artifact, section, run, *spec[1:]) for spec in specs]


def _bw(res, gbps: float):
    """Table 2's strategy rates at ``gbps``."""
    return {r.config.bandwidth / Gbps: r for r in res}[gbps]


def _fig8(res, model: str, batch: int):
    return {(r.config.model, r.config.batch_size): r for r in res}[(model, batch)]


def _vs_bs(rates) -> float:
    """Prophet's improvement over ByteScheduler in one strategy-rate row."""
    return rates.improvement(over="bytescheduler")


def _vs_mxnet(rates) -> float:
    return rates.improvement(over="mxnet-fifo")


def _rates(res) -> list[float]:
    """Training rates of a labelled sweep, in sweep order."""
    return [r.training_rate for r in res.values()]


def _sync(res, mode: str):
    return {r.sync_mode: r for r in res}[mode]


def _asp(res, mode: str):
    return {r.config.sync_mode: r for r in res}[mode]


def _strategy(res, name: str):
    """A collective run keyed (model, batch, collective, strategy), by strategy."""
    return {key[-1]: r for key, r in res.items()}[name]


def _fig12_printed_aggregate(res, n: int) -> float:
    """Fig. 12's printed aggregate-rate cell for the ``n``-worker row."""
    rows = EXPERIMENTS["fig12"].tables[0].rows(res)
    return float({row[0]: row[2] for row in rows}[n])


#: The paper's four strategies.
P4 = ("mxnet-fifo", "p3", "bytescheduler", "prophet")

CLAIMS: list[Claim] = [
    *_rows(
        "Fig. 2", "Sec. 2.2", "fig2@10",
        ("fig2.gpu-idle", lambda r: r.idle_fraction, ">", 0.05,
         "GPU totally idle over 50% of the iteration"),
        ("fig2.mean-utilization", lambda r: r.mean_utilization, "<", 0.85),
        ("fig2.series-aligned",
         lambda r: len(r.times) == len(r.gpu_utilization) == len(r.throughput_mb_s), "==", True),
        ("fig2.utilization-range", lambda r: r.mean_utilization, "in", (0, 1)),
        ("fig2.idle-range", lambda r: r.idle_fraction, "in", (0, 1)),
    ),
    *_rows(
        "Fig. 3a", "Sec. 2.2", "fig3a@10",
        ("fig3a.small-partition-collapse", lambda r: _rates(r)[0] / max(_rates(r)), "<", 0.9,
         "small partitions dramatically decrease the rate"),
        ("fig3a.0.25MB-vs-4MB", lambda r: r[0.25].training_rate / r[4.0].training_rate,
         "<", 0.9),
        ("fig3a.best-partition", fig3.best_partition_mb, ">=", 1.0),
    ),
    *_rows(
        "Fig. 3a", "Sec. 2.2", "fig3a-1-8MB@6",
        ("fig3a.smoke-points", len, "==", 2),
        ("fig3a.smoke-best-swept", lambda r: fig3.best_partition_mb(r) in (1.0, 8.0),
         "==", True),
    ),
    *_rows(
        "Fig. 3b", "Sec. 2.2", "fig3b@32",
        ("fig3b.rate-fluctuates", lambda r: r.rate_spread / max(r.rates), ">", 0.05,
         "44-56 samples/s while tuning the credit over 3-13 MB"),
        ("fig3b.credit-explored", lambda r: len(set(np.round(r.credits_mb, 3))), ">", 1),
        ("fig3b.series-aligned",
         lambda r: len(r.rates) == len(r.iterations) == len(r.credits_mb), "==", True),
        ("fig3b.spread-nonnegative", lambda r: r.rate_spread, ">=", 0),
    ),
    *_rows(
        "Fig. 4", "Sec. 2.2", "fig4",
        ("fig4.vgg19-blocks", lambda r: r.vgg19_summary.num_blocks, "==", 4,
         "4 blocks {28-37}, {14-27}, {2-13}, {0-1}"),
        ("fig4.vgg19-block-sizes", lambda r: r.vgg19_summary.block_sizes, "==", (10, 14, 12, 2),
         "blocks of 10, 14, 12 and 2 gradients"),
        ("fig4.resnet50-staircase", lambda r: r.resnet50_summary.num_blocks, ">=", 10),
        ("fig4.resnet50-gradients", lambda r: r.resnet50_summary.num_gradients, "==", 161),
        ("fig4.resnet50-intervals", lambda r: r.resnet50_summary.mean_interval, ">", 0),
    ),
    *_rows(
        "Fig. 4", "Sec. 7 (sync-independent)", "stepwise",
        ("stepwise.kvstore-staircase", lambda r: r.num_blocks, ">=", 10),
    ),
    *_rows(
        "Fig. 4/5", "Sec. 2.2/3", "mains",
        ("mains.print-tables", lambda out: "Fig. 4" in out and "Fig. 5" in out, "==", True),
    ),
    *_rows(
        "Fig. 5", "Sec. 3", "fig5",
        ("fig5.prophet-grad0-wait-ms", lambda r: r["prophet"].grad0_wait_ms,
         "<", 1.0, "gradient 0 never waits under Prophet"),
        ("fig5.fifo-grad0-wait-ms", lambda r: r["mxnet-fifo"].grad0_wait_ms,
         ">", 50.0, "FIFO blocks gradient 0 behind gradient 1"),
        ("fig5.fifo-waits-most", lambda r: r["mxnet-fifo"].grad0_wait_ms
         - max(x.grad0_wait_ms for x in r.values()), "==", 0.0),
        ("fig5.p3-vs-fifo-ms", lambda r: r["p3"].grad0_wait_ms
         - r["mxnet-fifo"].grad0_wait_ms, "<", 0.0),
        ("fig5.bytescheduler-vs-fifo-ms", lambda r: r["bytescheduler"].grad0_wait_ms
         - r["mxnet-fifo"].grad0_wait_ms, "<", 0.0),
        ("fig5.prophet-vs-bytescheduler-ms", lambda r: r["prophet"].grad0_wait_ms
         - r["bytescheduler"].grad0_wait_ms, "<=", 0.0),
    ),
    *_rows(
        "Fig. 8", "Sec. 5", "fig8@10",
        ("fig8.never-loses", lambda r: min(_vs_bs(x) for x in r), ">", -0.05,
         "Prophet +10-40% on every workload"),
        ("fig8.resnet50-64-wins", lambda r: _vs_bs(_fig8(r, "resnet50", 64)), ">", 0.02,
         "+36% (Table 3)"),
    ),
    *_rows(
        "Fig. 8", "Sec. 5", "fig8-resnet18-32@6",
        ("fig8.smoke-rows", len, "==", 1),
        ("fig8.smoke-rates-positive",
         lambda r: min(r[0].rates["prophet"], r[0].rates["bytescheduler"]), ">", 0),
    ),
    *_rows(
        "Figs. 9/10", "Sec. 5", "fig9_10@10",
        ("fig9.utilization-gain", lambda r: r.utilization_gain, ">", -0.02,
         "GPU util 91.15% (Prophet) vs 67.85% (ByteScheduler)"),
        ("fig10.throughput-gain", lambda r: r.throughput_gain, ">", -0.02,
         "throughput +37.3%"),
        ("fig9.periodic-dip", lambda r: r.prophet.gpu_utilization.min(), "<", 0.9),
        ("fig9.utilization-range", lambda r: r.prophet.mean_utilization, "in", (0, 1)),
        ("fig10.throughput-positive", lambda r: r.bytescheduler.mean_throughput_mb_s, ">", 0),
        ("fig9.gain-finite", lambda r: bool(np.isfinite(r.utilization_gain)), "==", True),
        ("fig10.gain-finite", lambda r: bool(np.isfinite(r.throughput_gain)), "==", True),
    ),
    *_rows(
        "Fig. 11", "Sec. 5", "fig11@10",
        ("fig11.prophet-waits-least-ms", lambda r: r["prophet"].mean_wait_ms
         - r["bytescheduler"].mean_wait_ms, "<=", 1.0,
         "mean wait 26 ms (Prophet) vs 67 ms (ByteScheduler)"),
        ("fig11.fifo-blocks-high-priority-ms",
         lambda r: r["mxnet-fifo"].high_priority_mean_wait_ms()
         - r["prophet"].high_priority_mean_wait_ms(), ">", 0.0),
        ("fig11.strategies", set, "==",
         {"mxnet-fifo", "bytescheduler", "prophet"}),
        ("fig11.gradients", lambda r: {len(x.grads) for x in r.values()}, "==", {161}),
        ("fig11.waits-finite",
         lambda r: all(np.all(np.isfinite(x.wait_ms)) for x in r.values()), "==", True),
    ),
    *_rows(
        "Fig. 12", "Sec. 5", "fig12@10",
        ("fig12.per-worker-8-vs-2", lambda r: r[8].training_rate / r[2].training_rate,
         ">", 0.95, "per-worker 69.94 -> 68.83 from 2 to 8 workers"),
        ("fig12.per-worker-6-vs-2", lambda r: r[6].training_rate / r[2].training_rate,
         ">", 0.95),
        ("fig12.aggregate-grows",
         lambda r: [n * x.training_rate for n, x in r.items()]
         == sorted(n * x.training_rate for n, x in r.items()), "==", True),
        ("fig12.aggregate-is-2x-per-worker", lambda r: _fig12_printed_aggregate(r, 2)
         == pytest.approx(2 * r[2].training_rate, abs=0.05), "==", True),
    ),
    *_rows(
        "Fig. 13", "Sec. 5", "fig13@18",
        ("fig13.profiling-no-better", lambda r: r.prophet_early - r.bytescheduler_early,
         "<=", 0.03, "Prophet slightly below ByteScheduler while profiling"),
        ("fig13.after-activation", lambda r: r.prophet_late - r.bytescheduler_late,
         ">=", -0.03, "Prophet ahead after activation"),
        ("fig13.steady-rate", lambda r: r.prophet_rate / r.bytescheduler_rate, ">=", 0.97),
        ("fig13.early-range", lambda r: r.prophet_early, "in", (0, 1)),
        ("fig13.late-range", lambda r: r.bytescheduler_late, "in", (0, 1)),
        ("fig13.rate-positive", lambda r: r.prophet_rate, ">", 0),
    ),
    *_rows(
        "Table 2", "Sec. 5.3", "table2@10",
        ("table2.prophet-1G-to-3G",
         lambda r: _bw(r, 3.0).rates["prophet"] / _bw(r, 1.0).rates["prophet"], ">", 1.0,
         "27.7 -> 60"),
        ("table2.rates-grow-1G-to-3G",
         lambda r: min(_bw(r, 3.0).rates[s] / _bw(r, 1.0).rates[s] for s in P4), ">", 1.0),
        ("table2.rates-saturate-3G-to-10G",
         lambda r: max(_bw(r, 3.0).rates[s] / _bw(r, 10.0).rates[s] for s in P4), "<=", 1.02),
        ("table2.prophet-saturates-6G",
         lambda r: _bw(r, 6.0).rates["prophet"] / _bw(r, 10.0).rates["prophet"], ">", 0.95,
         "69.5 vs 70.6"),
        ("table2.3G-vs-bytescheduler", lambda r: _vs_bs(_bw(r, 3.0)),
         ">", 0.0, "60 vs 44 (+36%)"),
        ("table2.3G-vs-p3", lambda r: _bw(r, 3.0).improvement(over="p3"), ">", 0.10,
         "60 vs 51.22 (+17%)"),
        ("table2.3G-vs-mxnet", lambda r: _vs_mxnet(_bw(r, 3.0)), ">", 0.20,
         "+39% over MXNet at 3 Gbps (ResNet-18 text)"),
        ("table2.3G-fifo-worst", lambda r: _bw(r, 3.0).rates["mxnet-fifo"]
         - min(_bw(r, 3.0).rates.values()), "==", 0.0),
        ("table2.1G-p3-below-prophet", lambda r: _bw(r, 1.0).improvement(over="p3"), ">", 0.0,
         "27.7 vs 25.16"),
        ("table2.p3-gap-peaks-mid-band", lambda r: _bw(r, 3.0).improvement(over="p3")
         - _bw(r, 1.0).improvement(over="p3"), ">", 0.0, "1 Gbps +7%, 3 Gbps +17%"),
        ("table2.p3-recovers-4.5G",
         lambda r: _bw(r, 4.5).rates["p3"] / _bw(r, 4.5).rates["prophet"], ">", 0.95,
         "67.83 vs 69.29"),
        ("table2.converge-10G",
         lambda r: max(_bw(r, 10.0).rates.values()) / min(_bw(r, 10.0).rates.values()),
         "<", 1.05, "70.6 / 71.1 / 72.83"),
    ),
    *_rows(
        "Table 2", "Sec. 5.3", "table2-3G@6",
        ("table2.smoke-rows", len, "==", 1),
        ("table2.smoke-strategies", lambda r: set(r[0].rates), "==", set(P4)),
    ),
    *_rows(
        "Table 3", "Sec. 5", "table3@10",
        ("table3.resnet50-batch-trend", lambda r: _vs_bs(_fig8(r, "resnet50", 64))
         - _vs_bs(_fig8(r, "resnet50", 16)), ">", 0.0, "bs16 +1.5% -> bs64 +36%"),
        ("table3.resnet18-batch-trend", lambda r: _vs_bs(_fig8(r, "resnet18", 64))
         - _vs_bs(_fig8(r, "resnet18", 16)), ">", 0.0, "bs16 +11.6% -> bs64 +33%"),
        ("table3.resnet50-64-wins", lambda r: _vs_bs(_fig8(r, "resnet50", 64)), ">", 0.0,
         "+36%"),
    ),
    *_rows(
        "Table 3", "Sec. 5", "table3-resnet18-32@6",
        ("table3.smoke-rows", len, "==", 1),
        ("table3.smoke-finite", lambda r: bool(np.isfinite(_vs_bs(r[0]))), "==", True),
    ),
    *_rows(
        "Heterogeneous cluster", "Sec. 5.3", "hetero@10",
        ("hetero.gap-collapses", lambda r: abs(_vs_bs(r)), "<", 0.10,
         "Prophet +2.3% over ByteScheduler"),
        ("hetero.prophet-vs-mxnet", _vs_mxnet, ">", -0.02, "26.4 vs 15.09"),
        ("hetero.prophet-rate-floor", lambda r: r.rates["prophet"], ">", 20, "26.4"),
        ("hetero.prophet-rate-ceiling", lambda r: r.rates["prophet"], "<", 30, "26.4"),
    ),
    *_rows(
        "Profiling overhead", "Sec. 5.4", "overhead@10",
        ("overhead.inception-below-resnet50",
         lambda r: r[0] / r[1], "<", 1.0, "7 s vs 9.5 s"),
        ("overhead.resnet50-below-resnet152",
         lambda r: r[1] / r[2], "<", 1.0, "9.5 s vs 24.7 s"),
        ("overhead.50-iterations-negligible",
         lambda r: 5 * max(r), "<", 120.0, "at most 24.7 s"),
        ("overhead.workloads", len, "==", 3),
        ("overhead.positive", min, ">", 0),
    ),
    *_rows(
        "Planning overhead", "Sec. 5.4", "planning",
        ("planning.gradients", lambda r: r[0].num_gradients, "==", 161),
        ("planning.cpu-seconds", lambda r: r[1], "<", 0.05, "negligible"),
    ),
    *_rows(
        "ASP/SSP", "Sec. 7", "asp@10",
        ("asp.modes", lambda r: [x.config.sync_mode for x in r], "==", ["bsp", "ssp", "asp"]),
        ("asp.rates-positive", lambda r: min(min(x.rates.values()) for x in r), ">", 0),
        ("asp.prophet-not-slower", lambda r: _asp(r, "asp").rates["prophet"]
         / _asp(r, "bsp").rates["prophet"], ">=", 0.99),
        ("asp.bytescheduler-not-slower", lambda r: _asp(r, "asp").rates["bytescheduler"]
         / _asp(r, "bsp").rates["bytescheduler"], ">=", 0.98),
        ("asp.margin-kept", lambda r: _vs_bs(_asp(r, "asp")) - _vs_bs(_asp(r, "bsp")),
         ">=", -0.02),
    ),
    *_rows(
        "GPU generations", "Sec. 7", "devices@10",
        ("devices.m60-vs-v100-compute",
         lambda r: compute_seconds(r[0].config) / compute_seconds(r[1].config), ">", 5),
        ("devices.a100-vs-v100-compute",
         lambda r: compute_seconds(r[2].config) / compute_seconds(r[1].config), "<", 5),
        ("devices.m60-tie", lambda r: abs(_vs_mxnet(r[0])), "<", 0.05),
        ("devices.v100-priority-pays", lambda r: _vs_mxnet(r[1]), ">", 0.15),
        ("devices.a100-priority-pays", lambda r: _vs_mxnet(r[2]), ">", 0.15),
        ("devices.v100-rate", lambda r: r[1].rates["prophet"] / r[0].rates["prophet"], ">", 2),
    ),
    *_rows(
        "Dynamic bandwidth", "Sec. 1", "dynamic@20",
        ("dynamic.vs-bytescheduler",
         lambda r: r.mean_rates["prophet"] / r.mean_rates["bytescheduler"], ">=", 1.0),
        ("dynamic.vs-p3", lambda r: r.mean_rates["prophet"] / r.mean_rates["p3"], ">", 1.0),
        ("dynamic.vs-mxnet", lambda r: r.mean_rates["prophet"] / r.mean_rates["mxnet-fifo"],
         ">", 1.1),
    ),
    *_rows(
        "MG-WFBP baseline", "Sec. 6.2", "extended@10",
        ("mgwfbp.above-fifo", lambda r: r.rates["mg-wfbp"] / r.rates["mxnet-fifo"], ">", 1.0),
        ("mgwfbp.below-prophet", lambda r: r.rates["mg-wfbp"] / r.rates["prophet"], "<=", 1.03),
    ),
    *_rows(
        "Time to accuracy", "Sec. 7", "convergence@12",
        ("convergence.bsp-staleness", lambda r: _sync(r, "bsp").mean_staleness, "==", 0.0),
        ("convergence.asp-staleness", lambda r: _sync(r, "asp").mean_staleness, ">", 0.0),
        ("convergence.asp-faster-iterations", lambda r: _sync(r, "asp").seconds_per_iteration
         / _sync(r, "bsp").seconds_per_iteration, "<", 1.0),
        ("convergence.asp-reaches-target",
         lambda r: _sync(r, "asp").time_to_target_s is not None, "==", True),
        ("convergence.bsp-reaches-target",
         lambda r: _sync(r, "bsp").time_to_target_s is not None, "==", True),
        ("convergence.asp-time-to-target", lambda r: _sync(r, "asp").time_to_target_s
         / _sync(r, "bsp").time_to_target_s, "<=", 1.0),
    ),
    *_rows(
        "Design ablations", "extension", "ablations@10",
        ("ablations.full-duplex", lambda r: r["full-duplex links"].training_rate
         / r["baseline (shared channel)"].training_rate, ">=", 0.98),
        ("ablations.round-trip-packing", lambda r: r["round-trip packing (2E)"].training_rate
         / r["baseline (shared channel)"].training_rate, "<=", 1.02),
        ("ablations.no-slicing", lambda r: r["no gradient slicing"].training_rate
         / r["baseline (shared channel)"].training_rate, "<=", 1.02),
        ("ablations.has-baseline", lambda r: "baseline (shared channel)" in r, "==", True),
        ("ablations.rates-positive", lambda r: min(_rates(r)), ">", 0),
    ),
    *_rows(
        "PS-tier scalability", "extension", "scalability@6",
        ("scalability.servers", list, "==", [1, 2]),
        ("scalability.rates-positive", lambda r: min(_rates(r)), ">", 0),
        ("scalability.wider-tier-faster",
         lambda r: r[2].mean_iteration_s / r[1].mean_iteration_s, "<", 1.0),
    ),
    *_rows(
        "Collective allreduce", "extension", "collective-ring@6",
        ("collective.strategies", lambda r: [key[-1] for key in r], "==",
         list(collective.STRATEGIES)),
        ("collective.rates-positive", lambda r: min(_rates(r)), ">", 0),
        ("collective.prophet-beats-fifo", lambda r: _strategy(r, "prophet").training_rate
         / _strategy(r, "mxnet-fifo").training_rate, ">", 1.0),
    ),
    *_rows(
        "Chaos", "extension", "chaos",
        ("chaos.goodput-positive", lambda r: min(r.goodput_retained.values()), ">", 0.0),
        ("chaos.goodput-at-most-clean", lambda r: max(r.goodput_retained.values()), "<=", 1.05),
        ("chaos.recovery-spans-outage", lambda r: min(r.recovery_time.values()), ">=", 0.2),
        ("chaos.recovery-bounded", lambda r: max(r.recovery_time.values()), "<", 5.0),
        ("chaos.crashes", lambda r: {s["crashes"] for s in r.fault_stats.values()}, "==", {1}),
        ("chaos.restarts", lambda r: {s["restarts"] for s in r.fault_stats.values()}, "==", {1}),
        ("chaos.drops", lambda r: min(s["push_drops"] + s["pull_drops"]
                                      for s in r.fault_stats.values()), ">", 0),
    ),
]

BY_ID = {claim.id: claim for claim in CLAIMS}


def checks(*ids: str) -> Callable[..., None]:
    """A test function that checks the claims ``ids``."""
    claims = [BY_ID[i] for i in ids]

    def check(*_) -> None:
        for claim in claims:
            claim.check()

    return check


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: claim.id)
def test_claim(claim: Claim) -> None:
    claim.check()
