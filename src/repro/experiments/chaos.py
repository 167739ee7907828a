"""Chaos experiment — resilience of the four strategies under faults.

The paper's motivation (Sec. 1: static configurations "can hardly adapt to
the dynamic network environments") stops at smooth bandwidth variation;
this runner asks the harder operational question: *how much of each
strategy's training rate survives discrete failures?*  It drives the same
workload twice per strategy — once clean, once under a
:class:`~repro.faults.plan.FaultPlan` — on any of the three backends (the
single-PS star, the key-sharded multi-PS tier, or the ring/hierarchical
allreduce collective) and reports, per strategy:

* **goodput retained** — faulty-run rate as a fraction of the paired
  clean-run rate (same seed, so the comparison is paired);
* **recovery time** — from the crash instant until the BSP ring is
  turning again: the crashed worker's next fresh iteration start on the
  PS backends (crash + restart), or — under the collective backend's
  elastic shrink, where the dead rank never rejoins — the survivors'
  first fresh iteration start after the crash (falling back to the
  ``collective.resumed`` instant);
* **retry counts** — how much reliable-delivery work the fault plan
  induced (push + pull retransmissions);
* **stall amplification** (collective backends) — the fraction of ring
  chunk steps the straggler watchdog declared stalled, per discrete
  injected fault: how far each failure's blast radius spread through the
  barrier-synchronized collective.

Everything is deterministic under the seed: the drop sequence comes from a
dedicated ``spawn_rng(seed, "faults")`` stream, so the CI smoke test can
assert these scalars against committed baselines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.cluster.trainer import run_training
from repro.config import SchedulerFactory, TrainingConfig
from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan, LinkFlap, MessageDrops, PSStall, WorkerCrash
from repro.workloads.presets import STRATEGY_FACTORIES, paper_config

__all__ = ["ChaosResult", "default_plan", "run"]


@dataclass(frozen=True)
class ChaosResult:
    """Paired clean/faulty rates and resilience metrics per strategy."""

    config: TrainingConfig
    plan: FaultPlan
    clean_rates: Mapping[str, float]
    faulty_rates: Mapping[str, float]
    #: Faulty rate / clean rate (1.0 = the faults cost nothing).
    goodput_retained: Mapping[str, float]
    #: Seconds from the crash until the BSP ring turns again (NaN if the
    #: plan has no crash).
    recovery_time: Mapping[str, float]
    #: Push + pull retransmissions induced by the plan.
    retries: Mapping[str, int]
    #: Stalled ring steps / total ring steps, per discrete injected fault
    #: (NaN on the PS backends, which have no chunk steps).
    stall_amplification: Mapping[str, float]
    #: Full injector counters per strategy (drops, duplicates, ...).
    fault_stats: Mapping[str, Mapping[str, int]]


def default_plan(
    crash_at: float = 2.0,
    restart_after: float = 0.5,
    crash_worker: int = 1,
    drop: float = 0.02,
    flap_at: float = 4.0,
    flap_duration: float = 1.0,
    flap_factor: float = 0.3,
    stall_at: float = 6.0,
    stall_duration: float = 0.3,
    backend: str = "ps",
) -> FaultPlan:
    """The chaos cocktail, shaped per backend.

    PS backends get the full mix: crash + restart, link flap, drops on
    all three delivery legs, and a PS stall.  The allreduce backend has
    no pull/ack legs and no PS tier, so its plan keeps the crash and the
    flap and carries the drop probability on the ``push`` leg only (the
    collective rolls it per chunk step).
    """
    crashes = [
        WorkerCrash(worker=crash_worker, at=crash_at, restart_after=restart_after)
    ]
    flaps = [LinkFlap(start=flap_at, duration=flap_duration, factor=flap_factor)]
    if backend == "allreduce":
        return FaultPlan(
            crashes=crashes,
            flaps=flaps,
            drops=[MessageDrops(push=drop)],
        )
    return FaultPlan(
        crashes=crashes,
        flaps=flaps,
        drops=[MessageDrops(push=drop, pull=drop, ack=drop)],
        ps_stalls=[PSStall(at=stall_at, duration=stall_duration)],
    )


def _discrete_faults(plan: FaultPlan) -> int:
    """Count of discrete injected fault events (drops are a rate, not an
    event; they are excluded)."""
    return (
        len(plan.crashes)
        + len(plan.flaps)
        + len(plan.ps_stalls)
        + len(plan.server_crashes)
    )


def _recovery_time(result, plan: FaultPlan) -> float:
    """Crash instant → the BSP ring turning again (see module docstring)."""
    if not plan.crashes or result.fault_log is None:
        return math.nan
    crash_times = {
        detail["worker"]: t
        for t, kind, detail in result.fault_log
        if kind == "fault.crash"
    }
    if not crash_times:
        return math.nan
    worst = 0.0
    for worker, t_crash in crash_times.items():
        starts = [r.fwd_start for r in result.recorder.worker_iterations(worker)]
        t_next = min((s for s in starts if s > t_crash), default=math.nan)
        if math.isnan(t_next):
            # Elastic removal (collective backend): the dead rank never
            # resumes, so recovery is the survivors' ring turning again —
            # the first fresh iteration start cluster-wide after the
            # crash, else the instant the aborted operation resent.
            all_starts = [
                r.fwd_start
                for w in range(result.config.n_workers)
                for r in result.recorder.worker_iterations(w)
            ]
            t_next = min((s for s in all_starts if s > t_crash), default=math.nan)
        if math.isnan(t_next):
            resumed = [
                t
                for t, kind, _ in result.fault_log
                if kind in ("collective.resumed", "collective.shrink")
                and t >= t_crash
            ]
            t_next = min(resumed, default=math.nan)
        if not math.isnan(t_next):
            worst = max(worst, t_next - t_crash)
    return worst


def _goodput_rate(result, skip: int) -> float:
    """Mean per-worker rate over the workers that can be measured.

    A crashed collective rank never rejoins (elastic shrink is permanent),
    so it finishes with too few iteration spans to rate; goodput is then
    the survivors' mean.  On the PS backends every worker restarts and
    contributes, matching :meth:`TrainingResult.training_rate` exactly.
    """
    rates = []
    for w in range(result.config.n_workers):
        try:
            rates.append(result.per_worker_rate(w, skip))
        except ConfigurationError:
            continue
    if not rates:
        raise ConfigurationError(
            f"skip={skip} leaves no measurable worker in the faulty run"
        )
    return float(np.mean(rates))


def _stall_amplification(stats: Mapping[str, int], plan: FaultPlan) -> float:
    ring_steps = stats.get("ring_steps", 0)
    if ring_steps <= 0:
        return math.nan
    return stats.get("stalled_steps", 0) / ring_steps / max(1, _discrete_faults(plan))


def run(
    model: str = "resnet18",
    batch_size: int = 64,
    n_iterations: int = 12,
    seed: int = 0,
    plan: FaultPlan | None = None,
    strategies: Mapping[str, SchedulerFactory] | None = None,
    skip: int = 1,
    backend: str = "ps",
    collective: str = "ring",
    group_size: int = 2,
    n_servers: int = 1,
    n_workers: int = 3,
) -> ChaosResult:
    """Paired clean/faulty comparison of all strategies under one plan."""
    if plan is None:
        plan = default_plan(backend=backend)
    strategies = dict(strategies if strategies is not None else STRATEGY_FACTORIES)
    overrides: dict = {
        "record_gradients": False,
        "backend": backend,
        "n_workers": n_workers,
    }
    if backend == "allreduce":
        overrides["collective"] = collective
        overrides["collective_group_size"] = group_size
    else:
        overrides["n_servers"] = n_servers
    clean_config = paper_config(
        model, batch_size, n_iterations=n_iterations, seed=seed, **overrides
    )
    faulty_config = paper_config(
        model, batch_size, n_iterations=n_iterations, seed=seed,
        faults=plan, **overrides,
    )
    clean_rates: dict[str, float] = {}
    faulty_rates: dict[str, float] = {}
    retained: dict[str, float] = {}
    recovery: dict[str, float] = {}
    retries: dict[str, int] = {}
    amplification: dict[str, float] = {}
    stats: dict[str, Mapping[str, int]] = {}
    for name, factory in strategies.items():
        clean = run_training(clean_config, factory)
        faulty = run_training(faulty_config, factory)
        clean_rates[name] = clean.training_rate(skip=skip)
        faulty_rates[name] = _goodput_rate(faulty, skip)
        retained[name] = faulty_rates[name] / clean_rates[name]
        recovery[name] = _recovery_time(faulty, plan)
        assert faulty.fault_stats is not None
        stats[name] = dict(faulty.fault_stats)
        retries[name] = (
            faulty.fault_stats["push_retries"] + faulty.fault_stats["pull_retries"]
        )
        amplification[name] = _stall_amplification(faulty.fault_stats, plan)
    return ChaosResult(
        config=faulty_config,
        plan=plan,
        clean_rates=clean_rates,
        faulty_rates=faulty_rates,
        goodput_retained=retained,
        recovery_time=recovery,
        retries=retries,
        stall_amplification=amplification,
        fault_stats=stats,
    )
