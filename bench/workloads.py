"""The benchmark's six workloads.

A workload turns a seed into plain-data inputs (configs, specs, fault
plans) with :attr:`Workload.inputs`, and runs them as a list of
:class:`Step` objects; a step returns the checked outputs of one or more
simulation runs, keyed by run id.  Simulated outputs (training rates,
end times, fleet and chaos scalars) are *checked*, never reported as
metrics: a change that moves one changed the simulated system.

Every simulator import happens inside the functions below, so a fresh
interpreter that sets up one workload imports exactly what that workload
uses -- the set-up probe (``bench/setup_probe.py``) times that.

Shapes are sized so that one pass takes about 1-2 s on a 2-core shared
host, so one benchmark run -- seven set-up probes, a warm-up pass and
``--seconds`` of timed passes -- takes about 12 s, and ten seeds of every
workload about 12 minutes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

#: run id -> output name -> value.
Outputs = dict[str, dict[str, float]]

#: Strategies of the PS workloads: the paper's four plus MG-WFBP.
PS_STRATEGIES = ("mxnet-fifo", "p3", "bytescheduler", "prophet", "mg-wfbp")
#: Worker count of the "wide" single-job workloads.
WIDE_WORKERS = 16
#: Iterations of the wide single-job workloads; rates skip the first.
WIDE_ITERATIONS = 3
WIDE_SKIP = 1
#: Iterations of the Fig. 8 grid (the experiment's FAST setting is 12).
GRID_ITERATIONS = 6
FLEET_JOBS = 64
FLEET_STRATEGIES = ("prophet", "mxnet-fifo", "mg-wfbp")
#: Fleets here run past ``run_fleet``'s frozen 200,000-event budget, so
#: the benchmark passes an explicit one (it measures the fleet, not that
#: budget bug).
FLEET_MAX_EVENTS = 50_000_000
CHAOS_WORKERS = 8
CHAOS_ITERATIONS = 5
CHAOS_SKIP = 1
#: ``chaos.default_plan`` timings compressed to fit a 5-iteration run
#: (about 2.3 s simulated clean): crash + restart, flap, and PS stall all
#: fire inside every faulty run.
CHAOS_PLAN = dict(
    crash_at=1.0,
    restart_after=0.25,
    flap_at=1.4,
    flap_duration=0.4,
    stall_at=1.9,
    stall_duration=0.15,
)


@dataclass(frozen=True)
class Step:
    """One unit of work: the run ids it produces and the call that runs it."""

    runs: tuple[str, ...]
    fn: Callable[[], Outputs]


@dataclass(frozen=True)
class Workload:
    name: str
    #: seed -> plain-data inputs (deterministic per seed).
    inputs: Callable[[int], Any]
    #: inputs -> the steps of one pass.
    steps: Callable[[Any], list[Step]]
    #: inputs -> number of distinct objects built (Trainers, or the fleet
    #: simulator), without running them; the set-up probe times this.
    setup: Callable[[Any], int]


# ----------------------------------------------------------------------
# Single-job runs (star, sharded, allreduce): (run id, config, strategy)
# ----------------------------------------------------------------------
def _single_steps(jobs) -> list[Step]:
    from repro.cluster.trainer import Trainer
    from repro.runner.registry import build_factory

    def run(config, strategy):
        result = Trainer(config, build_factory(strategy)).run()
        return {"rate": result.training_rate(skip=WIDE_SKIP), "end_time": result.end_time}

    return [
        Step((rid,), lambda rid=rid, c=config, s=strategy: {rid: run(c, s)})
        for rid, config, strategy in jobs
    ]


def _single_setup(jobs) -> int:
    from repro.cluster.trainer import Trainer
    from repro.runner.registry import build_factory

    for _, config, strategy in jobs:
        Trainer(config, build_factory(strategy))
    return len(jobs)


def _wide_inputs(seed: int, **overrides) -> list:
    from repro.workloads.presets import paper_config

    return [
        (
            strategy,
            paper_config(
                "resnet50",
                64,
                n_workers=WIDE_WORKERS,
                n_iterations=WIDE_ITERATIONS,
                seed=seed,
                **overrides,
            ),
            strategy,
        )
        for strategy in PS_STRATEGIES
    ]


def star_inputs(seed: int) -> list:
    from repro.workloads.presets import paper_config

    baseline = paper_config(
        "resnet50", 64, n_workers=1, n_iterations=WIDE_ITERATIONS, seed=seed
    )
    return _wide_inputs(seed) + [("prophet-1worker", baseline, "prophet")]


def sharded_inputs(seed: int) -> list:
    from repro.quantities import Gbps

    return _wide_inputs(
        seed, n_servers=4, bandwidth=10 * Gbps, ps_bandwidth=3 * Gbps
    )


def allreduce_inputs(seed: int) -> list:
    from repro.agg.fusion import MGWFBPFusionPolicy
    from repro.experiments.collective import _ring_cost_factor
    from repro.quantities import Gbps
    from repro.workloads.presets import PAPER_TCP, paper_config

    jobs = []
    for collective in ("ring", "hierarchical"):
        factor = _ring_cost_factor(WIDE_WORKERS, collective, 4)
        for strategy in ("mxnet-fifo", "mg-wfbp", "prophet"):
            overrides = {}
            if strategy == "mg-wfbp":
                overrides["agg_policy"] = MGWFBPFusionPolicy(
                    tcp=PAPER_TCP, bandwidth=3 * Gbps / factor
                )
            config = paper_config(
                "resnet50",
                64,
                n_workers=WIDE_WORKERS,
                n_iterations=WIDE_ITERATIONS,
                seed=seed,
                backend="allreduce",
                collective=collective,
                collective_group_size=4,
                **overrides,
            )
            jobs.append((f"{collective}/{strategy}", config, strategy))
    return jobs


# ----------------------------------------------------------------------
# paper-grid: the Fig. 8 grid, serially through run_grid
# ----------------------------------------------------------------------
def grid_inputs(seed: int) -> list:
    from repro.experiments.fig8 import DEFAULT_WORKLOADS
    from repro.quantities import Gbps
    from repro.runner import RunSpec
    from repro.workloads.presets import paper_config

    specs = []
    for model, batch in DEFAULT_WORKLOADS:
        config = paper_config(
            model,
            batch,
            bandwidth=3 * Gbps,
            n_iterations=GRID_ITERATIONS,
            seed=seed,
            record_gradients=False,
        )
        for strategy in ("prophet", "bytescheduler"):
            specs.append((f"{model}-bs{batch}/{strategy}", RunSpec(config, strategy)))
    return specs


def grid_pass(specs, cache=False) -> Outputs:
    """Run ``specs`` through ``run_grid``; ``cache`` is handed over as is."""
    from repro import runner

    results = runner.run_grid([spec for _, spec in specs], jobs=1, cache=cache)
    return {
        rid: {"rate": result.training_rate, "end_time": result.end_time}
        for (rid, _), result in zip(specs, results)
    }


def grid_steps(specs, cache=False) -> list[Step]:
    """One ``run_grid`` call per (model, batch) pair: short steps let the
    per-step minimum over passes dodge host noise."""
    pairs = [specs[i : i + 2] for i in range(0, len(specs), 2)]
    return [
        Step(tuple(rid for rid, _ in pair), lambda pair=pair: grid_pass(pair, cache))
        for pair in pairs
    ]


def _grid_setup(specs) -> int:
    return _single_setup([(rid, s.config, s.strategy) for rid, s in specs])


# ----------------------------------------------------------------------
# fleet: one multi-tenant fleet on a shared engine and fabric
# ----------------------------------------------------------------------
def fleet_inputs(seed: int):
    from repro.fleet.spec import FleetSpec

    return FleetSpec(
        n_jobs=FLEET_JOBS, policy="fair", strategies=FLEET_STRATEGIES, seed=seed
    )


def _fleet_simulator(spec):
    from repro.fleet import simulator

    return simulator.FleetSimulator(
        simulator.build_fleet_jobs(spec),
        core_bandwidth=spec.core_bandwidth,
        n_hosts=spec.n_hosts,
        slots_per_host=spec.slots_per_host,
        policy=spec.policy,
        skip=spec.skip,
    )


def _fleet_steps(spec) -> list[Step]:
    def run() -> Outputs:
        summary = _fleet_simulator(spec).run(max_events=FLEET_MAX_EVENTS).summary()
        keys = ("makespan_s", "goodput_samples_per_s", "p99_iteration_s", "jain_fairness")
        return {"fleet": {key: summary[key] for key in keys}}

    return [Step(("fleet",), run)]


def _fleet_setup(spec) -> int:
    _fleet_simulator(spec)
    return 1


# ----------------------------------------------------------------------
# chaos: default_plan faults on the star, the ring and a 2-shard tier
# ----------------------------------------------------------------------
def chaos_inputs(seed: int) -> list:
    """(backend label, strategies, chaos.run keyword arguments)."""
    from repro.experiments.chaos import default_plan

    common = dict(
        model="resnet18",
        batch_size=64,
        n_iterations=CHAOS_ITERATIONS,
        seed=seed,
        n_workers=CHAOS_WORKERS,
        skip=CHAOS_SKIP,
    )
    paper = ("mxnet-fifo", "p3", "bytescheduler", "prophet")
    return [
        ("star", paper, dict(common, plan=default_plan(**CHAOS_PLAN))),
        (
            "ring",
            ("prophet", "mxnet-fifo"),
            dict(
                common,
                backend="allreduce",
                plan=default_plan(backend="allreduce", **CHAOS_PLAN),
            ),
        ),
        (
            "sharded",
            ("prophet", "bytescheduler"),
            dict(common, n_servers=2, plan=default_plan(**CHAOS_PLAN)),
        ),
    ]


def _chaos_steps(backends) -> list[Step]:
    from repro.experiments import chaos
    from repro.workloads.presets import STRATEGY_FACTORIES

    def run(label, strategies, kwargs) -> Outputs:
        factories = {name: STRATEGY_FACTORIES[name] for name in strategies}
        res = chaos.run(strategies=factories, **kwargs)
        return {
            f"{label}/{name}": {
                "goodput_retained": res.goodput_retained[name],
                "recovery_s": res.recovery_time[name],
            }
            for name in strategies
        }

    return [
        Step(
            tuple(f"{label}/{name}" for name in strategies),
            lambda a=(label, strategies, kwargs): run(*a),
        )
        for label, strategies, kwargs in backends
    ]


def _chaos_setup(backends) -> int:
    from dataclasses import replace

    from repro.cluster.trainer import Trainer
    from repro.workloads.presets import STRATEGY_FACTORIES, paper_config

    built = 0
    for label, strategies, kwargs in backends:
        overrides = {"record_gradients": False, "n_workers": kwargs["n_workers"]}
        if label == "ring":
            overrides["backend"] = "allreduce"
        if "n_servers" in kwargs:
            overrides["n_servers"] = kwargs["n_servers"]
        clean = paper_config(
            kwargs["model"],
            kwargs["batch_size"],
            n_iterations=kwargs["n_iterations"],
            seed=kwargs["seed"],
            **overrides,
        )
        for config in (clean, replace(clean, faults=kwargs["plan"])):
            for name in strategies:
                Trainer(config, STRATEGY_FACTORIES[name])
                built += 1
    return built


#: Why each workload is in the benchmark: see ``BENCHMARK.json`` and
#: ``bench/README.md``.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("paper-grid", grid_inputs, grid_steps, _grid_setup),
        Workload("star-wide", star_inputs, _single_steps, _single_setup),
        Workload("sharded-wide", sharded_inputs, _single_steps, _single_setup),
        Workload("allreduce-wide", allreduce_inputs, _single_steps, _single_setup),
        Workload("fleet-64", fleet_inputs, _fleet_steps, _fleet_setup),
        Workload("chaos", chaos_inputs, _chaos_steps, _chaos_setup),
    )
}
