"""Command-line interface.

Subcommands::

    python -m repro list                     # models + experiments
    python -m repro info resnet50            # model card
    python -m repro run table2 -j 4          # regenerate a paper artifact
    python -m repro compare --model resnet50 --batch 64 --gbps 3
    python -m repro sweep --model resnet50 --gbps 1 3 10
    python -m repro sched prophet --trace out.json   # traced single run
    python -m repro chaos --model resnet18 --drop 0.02  # fault resilience
    python -m repro fleet --n-jobs 16 --policy fair     # multi-tenant fleet
    python -m repro bench -j 4               # timed fig8 grid via the runner
    python -m repro profile fig8 --top 20    # cProfile hotspot report
    python -m repro cache                    # result-cache stats
    python -m repro cache clear              # drop every cached result

``run`` accepts any experiment name from the registry
:data:`repro.experiments.EXPERIMENTS` and prints its tables; ``-j/--jobs``
and ``--no-cache`` reach the :mod:`repro.runner` fan-out through the
``REPRO_JOBS`` / ``REPRO_NO_CACHE`` environment variables for the
duration of the run, so they apply to every grid the experiment issues.
``compare`` and ``sweep`` build ad-hoc configs on the paper's calibrated
presets.  ``sched`` runs one strategy on one preset workload and can
export the structured trace as Chrome trace-event JSON (open in Perfetto /
``chrome://tracing``) and/or compact JSONL.  ``chaos`` runs the paired
clean/faulty resilience comparison of :mod:`repro.experiments.chaos` with
an ad-hoc fault plan.  ``bench`` times the Fig. 8 FAST grid through the
parallel runner and reports wall time plus cache hit/miss counts.
``profile`` runs any experiment under :mod:`cProfile` (forced serial and
cache-bypassing, so the report reflects simulation cost — see
:mod:`repro.profiling`) and prints the top-N hotspots; ``--dump`` keeps
the raw stats for snakeviz.  ``cache`` inspects or clears the on-disk
result cache.  ``compare`` and ``sched`` accept ``--jitter`` to set the
compute-jitter stddev of the preset.

``fleet`` runs the multi-tenant cluster simulator of :mod:`repro.fleet`:
N jobs placed by a FIFO/fair-share/gang scheduler onto shared hosts whose
NICs feed an oversubscribed core, reporting fleet goodput, tail iteration
time, Jain fairness, and queueing delay.

Unknown model/strategy/experiment names, unrecognized flags, and invalid
flag combinations (e.g. ``--collective`` without ``--backend allreduce``)
all exit with a one-line ``error: ...`` message and status 2 — never a
traceback or a silently ignored flag.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.cluster.trainer import run_training
from repro.errors import ConfigurationError, ReproError, TracingError
from repro.experiments import EXPERIMENTS
from repro.metrics.report import format_table, format_trace_summary
from repro.models.gradients import gradient_table
from repro.models.registry import available_models, get_model
from repro.quantities import Gbps, fmt_bytes
from repro.workloads.presets import EXTENDED_FACTORIES, paper_config

__all__ = ["main", "build_parser"]

class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose failures match the CLI's error contract.

    Argparse's default ``error()`` prints multi-line usage + message;
    every other failure in this CLI is a one-line greppable
    ``error: ...`` on stderr with exit status 2, so parse failures
    (unknown flags, bad choices, missing arguments) follow suit.
    Subparsers inherit this class automatically (``add_subparsers``
    instantiates the parent's type).
    """

    def error(self, message: str) -> None:
        self.exit(2, f"error: {message}\n")


def _validate_choice(kind: str, name: str, options: Sequence[str]) -> None:
    """Eager name validation with a one-line, greppable error message."""
    if name not in options:
        raise ConfigurationError(
            f"unknown {kind} {name!r}; available: {', '.join(sorted(options))}"
        )


def _add_jitter_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--jitter", type=float, default=None, metavar="STD",
        help="compute-jitter stddev as a fraction of layer time "
        "(default: preset 0.02)",
    )


def _jitter_overrides(args: argparse.Namespace) -> dict:
    """Translate ``--jitter`` into paper_config overrides."""
    return {} if args.jitter is None else {"jitter_std": args.jitter}


def _add_ps_tier_args(sub: argparse.ArgumentParser) -> None:
    """PS-tier knobs shared by the ad-hoc workload subcommands."""
    sub.add_argument(
        "--n-servers", type=int, default=1,
        help="key-sharded parameter servers (default 1: the paper's "
        "single-PS star)",
    )
    sub.add_argument(
        "--ps-gbps", type=float, default=None,
        help="per-server PS NIC cap in Gbps (default: uncapped); with "
        "--n-servers > 1 each shard server gets its own cap",
    )


def _ps_tier_overrides(args: argparse.Namespace) -> dict:
    """Translate the PS-tier CLI flags into paper_config overrides."""
    overrides: dict = {}
    if args.n_servers != 1:
        overrides["n_servers"] = args.n_servers
    if args.ps_gbps is not None:
        overrides["ps_bandwidth"] = args.ps_gbps * Gbps
    return overrides


def _add_backend_args(sub: argparse.ArgumentParser) -> None:
    """Communication-backend knobs shared by the workload subcommands.

    ``--collective`` and ``--group-size`` default to ``None`` sentinels so
    :func:`_validate_backend_flags` can tell "user typed the default" from
    "user never mentioned the flag" — only the latter is legal without
    ``--backend allreduce``.
    """
    sub.add_argument(
        "--backend", default="ps", choices=("ps", "allreduce"),
        help="communication backend: the paper's parameter-server star "
        "(default) or the ring/hierarchical allreduce collective",
    )
    sub.add_argument(
        "--collective", default=None, choices=("ring", "hierarchical"),
        help="allreduce topology (requires --backend allreduce; "
        "default ring)",
    )
    sub.add_argument(
        "--group-size", type=int, default=None,
        help="workers per group for the hierarchical collective "
        "(requires --collective hierarchical; must divide --workers; "
        "default 2)",
    )


def _validate_backend_flags(args: argparse.Namespace) -> None:
    """Reject flag combinations that would otherwise be silently ignored."""
    if args.backend != "allreduce":
        if args.collective is not None:
            raise ConfigurationError(
                "--collective requires --backend allreduce"
            )
        if args.group_size is not None:
            raise ConfigurationError(
                "--group-size requires --backend allreduce"
            )
        return
    if getattr(args, "n_servers", 1) != 1:
        raise ConfigurationError(
            "--n-servers is a parameter-server knob; drop it with "
            "--backend allreduce"
        )
    if getattr(args, "ps_gbps", None) is not None:
        raise ConfigurationError(
            "--ps-gbps is a parameter-server knob; drop it with "
            "--backend allreduce"
        )
    if args.group_size is not None and args.collective != "hierarchical":
        raise ConfigurationError(
            "--group-size only applies to --collective hierarchical"
        )


def _resolved_collective(args: argparse.Namespace) -> str:
    return args.collective if args.collective is not None else "ring"


def _resolved_group_size(args: argparse.Namespace) -> int:
    return args.group_size if args.group_size is not None else 2


def _backend_overrides(args: argparse.Namespace) -> dict:
    """Translate the backend CLI flags into paper_config overrides."""
    _validate_backend_flags(args)
    if args.backend == "ps":
        return {}
    return {
        "backend": args.backend,
        "collective": _resolved_collective(args),
        "collective_group_size": _resolved_group_size(args),
    }


def _backend_suffix(args: argparse.Namespace) -> str:
    """Table-title suffix naming the non-default backend, if any."""
    if args.backend == "ps":
        return ""
    return f", {_resolved_collective(args)} allreduce"


def _add_workload_args(parser: argparse.ArgumentParser, **gbps) -> None:
    """The workload flags of ``compare``, ``sched`` and ``sweep``;
    ``gbps`` overrides the ``--gbps`` default (a sweep takes several)."""
    parser.add_argument("--model", default="resnet50")
    parser.add_argument("--batch", type=int, default=64)
    parser.add_argument("--gbps", type=float, **(gbps or {"default": 3.0}))
    parser.add_argument("--workers", type=int, default=3)
    parser.add_argument("--iterations", type=int, default=12)
    parser.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repro",
        description="Prophet (ICPP'21) reproduction — simulate DDNN "
        "communication scheduling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list models, strategies, and experiments")

    info = sub.add_parser("info", help="show a model card")
    info.add_argument("model", help=f"one of: {', '.join(available_models())}")

    run = sub.add_parser("run", help="regenerate a paper figure/table")
    run.add_argument("experiment", help=f"one of: {', '.join(EXPERIMENTS)}")
    run.add_argument(
        "-j", "--jobs", type=int, default=None,
        help="parallel simulation processes for the experiment's run grids "
        "(default: REPRO_JOBS or 1)",
    )
    run.add_argument(
        "--no-cache", action="store_true",
        help="bypass the on-disk result cache for this invocation",
    )

    compare = sub.add_parser(
        "compare", help="compare all strategies on one workload"
    )
    _add_workload_args(compare)
    compare.add_argument("--sync", default="bsp", choices=("bsp", "asp", "ssp"))
    _add_ps_tier_args(compare)
    _add_backend_args(compare)
    _add_jitter_arg(compare)

    sched = sub.add_parser(
        "sched", help="run one scheduling strategy, optionally tracing it"
    )
    sched.add_argument(
        "strategy",
        help="communication-scheduling strategy to simulate "
        f"(one of: {', '.join(sorted(EXTENDED_FACTORIES))})",
    )
    _add_workload_args(sched)
    sched.add_argument("--sync", default="bsp", choices=("bsp", "asp", "ssp"))
    _add_ps_tier_args(sched)
    _add_backend_args(sched)
    _add_jitter_arg(sched)
    sched.add_argument(
        "--trace",
        metavar="OUT.json",
        help="write the run's Chrome trace-event JSON here",
    )
    sched.add_argument(
        "--trace-jsonl",
        metavar="OUT.jsonl",
        help="write the run's trace as compact JSONL here",
    )

    sweep = sub.add_parser("sweep", help="bandwidth sweep for one workload")
    _add_workload_args(sweep, nargs="+", default=[1.0, 3.0, 10.0])
    _add_ps_tier_args(sweep)

    chaos = sub.add_parser(
        "chaos", help="paired clean/faulty resilience comparison"
    )
    chaos.add_argument("--model", default="resnet18")
    chaos.add_argument("--batch", type=int, default=64)
    chaos.add_argument("--iterations", type=int, default=12)
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--workers", type=int, default=3)
    chaos.add_argument(
        "--crash-at", type=float, default=2.0,
        help="crash worker 1 at this sim time (s)",
    )
    chaos.add_argument(
        "--restart-after", type=float, default=0.5,
        help="restart the crashed worker after this delay (s); on the "
        "allreduce backend the rejoin is refused (elastic shrink is "
        "permanent) and the delay only times the refusal event",
    )
    chaos.add_argument(
        "--drop", type=float, default=0.02,
        help="per-message drop probability on push/pull/ack legs (chunk "
        "leg on the allreduce backend)",
    )
    _add_backend_args(chaos)
    chaos.add_argument(
        "--n-servers", type=int, default=1,
        help="key-sharded parameter servers (PS backend only; default 1)",
    )

    fleet = sub.add_parser(
        "fleet", help="multi-tenant fleet simulation on a shared fabric"
    )
    fleet.add_argument(
        "--n-jobs", type=int, default=8,
        help="number of training jobs to submit (default 8)",
    )
    fleet.add_argument(
        "--policy", default="fifo", choices=("fifo", "fair", "gang"),
        help="placement policy: strict FIFO (default), tenant fair-share "
        "with backfill, or gang scheduling on exclusive whole hosts",
    )
    fleet.add_argument(
        "--hosts", type=int, default=4,
        help="GPU hosts in the cluster (default 4)",
    )
    fleet.add_argument(
        "--slots-per-host", type=int, default=2,
        help="GPU slots per host (default 2)",
    )
    fleet.add_argument(
        "--core-gbps", type=float, default=10.0,
        help="shared core capacity in Gbps, water-filled across tenants "
        "(default 10)",
    )
    fleet.add_argument(
        "--nic-gbps", type=float, default=3.0,
        help="per-host NIC rate in Gbps, the per-tenant cap (default 3)",
    )
    fleet.add_argument("--model", default="resnet18")
    fleet.add_argument("--batch", type=int, default=32)
    fleet.add_argument(
        "--workers", type=int, default=2,
        help="workers (GPU slots) per job (default 2)",
    )
    fleet.add_argument("--iterations", type=int, default=4)
    fleet.add_argument(
        "--strategies", nargs="+", default=["prophet"], metavar="STRATEGY",
        help="scheduling strategies assigned round-robin to jobs; each "
        "strategy doubles as a fair-share tenant (default: prophet)",
    )
    fleet.add_argument(
        "--interarrival", type=float, default=0.05, metavar="SECONDS",
        help="mean Poisson interarrival gap between submissions "
        "(default 0.05; 0 = all jobs arrive at t=0)",
    )
    fleet.add_argument("--seed", type=int, default=0)

    bench = sub.add_parser(
        "bench", help="timed Fig. 8 FAST grid through the parallel runner"
    )
    bench.add_argument(
        "-j", "--jobs", type=int, default=None,
        help="parallel simulation processes (default: REPRO_JOBS or 1)",
    )
    bench.add_argument(
        "--no-cache", action="store_true",
        help="bypass the result cache (measure cold simulation time)",
    )
    bench.add_argument(
        "--cache-dir", default=None,
        help="result-cache directory (default: REPRO_CACHE_DIR or "
        "~/.cache/repro/results)",
    )

    profile = sub.add_parser(
        "profile", help="run an experiment under cProfile and report hotspots"
    )
    profile.add_argument("experiment", help=f"one of: {', '.join(EXPERIMENTS)}")
    profile.add_argument(
        "--top", type=int, default=25,
        help="number of hotspot rows to print (default 25)",
    )
    profile.add_argument(
        "--sort", default="cumulative", choices=("cumulative", "tottime", "calls"),
        help="pstats sort key (default: cumulative)",
    )
    profile.add_argument(
        "--dump", metavar="OUT.prof", default=None,
        help="also dump raw cProfile stats here (open with snakeviz or "
        "`python -m pstats`)",
    )
    profile.add_argument(
        "--use-cache", action="store_true",
        help="allow cached grid results (profiles cache lookups instead of "
        "fresh simulation)",
    )
    profile.add_argument(
        "--workers", type=int, default=None,
        help="profile at this worker count (passed to the experiment as "
        "n_workers; errors if its entry point has no such knob)",
    )
    profile.add_argument(
        "--n-servers", type=int, default=None,
        help="profile over a key-sharded PS tier of this size (passed "
        "through as n_servers)",
    )
    profile.add_argument(
        "--backend", default=None, choices=("ps", "allreduce"),
        help="profile the given communication backend (passed through)",
    )

    cache = sub.add_parser("cache", help="inspect or clear the result cache")
    cache.add_argument(
        "action", nargs="?", default="stats", choices=("stats", "clear"),
        help="'stats' (default) prints entry count and size; 'clear' "
        "removes every cached result",
    )
    cache.add_argument(
        "--dir", default=None, dest="cache_dir",
        help="cache directory (default: REPRO_CACHE_DIR or "
        "~/.cache/repro/results)",
    )
    return parser


def _cmd_list() -> int:
    print("models:      " + ", ".join(available_models()))
    print("strategies:  " + ", ".join(EXTENDED_FACTORIES))
    print("experiments: " + ", ".join(EXPERIMENTS))
    return 0


def _cmd_info(model_name: str) -> int:
    model = get_model(model_name)
    grads = gradient_table(model)
    largest = max(grads, key=lambda g: g.nbytes)
    rows = [
        ["layers", len(model.layers)],
        ["parameter tensors (gradients)", model.num_tensors],
        ["parameters", f"{model.num_params:,}"],
        ["model size (fp32)", fmt_bytes(model.param_bytes())],
        ["forward GFLOPs/sample", f"{model.fwd_flops / 1e9:.2f}"],
        ["largest gradient", f"{largest.name} ({fmt_bytes(largest.nbytes)})"],
        ["input resolution", f"{model.input_size}x{model.input_size}"],
    ]
    print(format_table(["property", "value"], rows, title=model.name))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.runner import JOBS_ENV, NO_CACHE_ENV, resolve_jobs, scoped_environ

    _validate_choice("experiment", args.experiment, EXPERIMENTS)
    resolve_jobs(args.jobs)  # validate eagerly, before any training run
    # The runner picks the knobs up from the environment, so they reach
    # every grid the experiment fans out — including nested helper calls.
    env = {}
    if args.jobs is not None:
        env[JOBS_ENV] = str(args.jobs)
    if args.no_cache:
        env[NO_CACHE_ENV] = "1"
    with scoped_environ(env):
        EXPERIMENTS[args.experiment].report()
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    config = paper_config(
        args.model,
        args.batch,
        bandwidth=args.gbps * Gbps,
        n_workers=args.workers,
        n_iterations=args.iterations,
        seed=args.seed,
        sync_mode=args.sync,
        record_gradients=False,
        **_ps_tier_overrides(args),
        **_backend_overrides(args),
        **_jitter_overrides(args),
    )
    rows = []
    for name, factory in EXTENDED_FACTORIES.items():
        result = run_training(config, factory)
        summary = result.summary()
        rows.append(
            [
                name,
                f"{summary['training_rate']:.1f}",
                f"{summary['mean_iteration_s'] * 1e3:.0f}",
                f"{summary['gpu_utilization'] * 100:.1f}%",
            ]
        )
    print(
        format_table(
            ["strategy", "rate (samples/s)", "iteration (ms)", "GPU util"],
            rows,
            title=(
                f"{args.model} bs{args.batch} @ {args.gbps:g} Gbps, "
                f"{args.workers} workers, {args.sync}{_backend_suffix(args)}"
            ),
        )
    )
    return 0


def _cmd_sched(args: argparse.Namespace) -> int:
    _validate_choice("strategy", args.strategy, EXTENDED_FACTORIES)
    tracing = bool(args.trace or args.trace_jsonl)
    config = paper_config(
        args.model,
        args.batch,
        bandwidth=args.gbps * Gbps,
        n_workers=args.workers,
        n_iterations=args.iterations,
        seed=args.seed,
        sync_mode=args.sync,
        trace=tracing,
        **_ps_tier_overrides(args),
        **_backend_overrides(args),
        **_jitter_overrides(args),
    )
    result = run_training(config, EXTENDED_FACTORIES[args.strategy])
    summary = result.summary()
    comm = result.gradient_comm_stats()
    rows = [
        ["training rate", f"{summary['training_rate']:.1f} samples/s"],
        ["iteration", f"{summary['mean_iteration_s'] * 1e3:.0f} ms"],
        ["GPU utilization", f"{summary['gpu_utilization'] * 100:.1f}%"],
        ["mean gradient wait", f"{comm.mean_wait * 1e3:.2f} ms"],
        ["mean gradient transfer", f"{comm.mean_transfer * 1e3:.2f} ms"],
    ]
    print(
        format_table(
            ["metric", "value"],
            rows,
            title=(
                f"{args.strategy} — {args.model} bs{args.batch} @ "
                f"{args.gbps:g} Gbps, {args.workers} workers, "
                f"{args.sync}{_backend_suffix(args)}"
            ),
        )
    )
    if tracing:
        print()
        print(format_trace_summary(result.trace_summary()))
        if args.trace:
            path = _write_trace(result.write_chrome_trace, args.trace)
            print(f"chrome trace written to {path} (open in https://ui.perfetto.dev)")
        if args.trace_jsonl:
            path = _write_trace(result.write_trace_jsonl, args.trace_jsonl)
            print(f"trace JSONL written to {path}")
    return 0


def _write_trace(writer, destination: str):
    """Run a trace export, turning filesystem failures into the CLI's
    one-line error contract instead of an OSError traceback."""
    try:
        return writer(destination)
    except OSError as exc:
        raise TracingError(
            f"cannot write trace to {destination!r}: {exc}"
        ) from exc


def _cmd_sweep(args: argparse.Namespace) -> int:
    rows = []
    for gbps in args.gbps:
        config = paper_config(
            args.model,
            args.batch,
            bandwidth=gbps * Gbps,
            n_workers=args.workers,
            n_iterations=args.iterations,
            seed=args.seed,
            record_gradients=False,
            **_ps_tier_overrides(args),
        )
        rates = {
            name: run_training(config, factory).training_rate()
            for name, factory in EXTENDED_FACTORIES.items()
        }
        rows.append([f"{gbps:g}"] + [f"{rates[n]:.1f}" for n in EXTENDED_FACTORIES])
    print(
        format_table(
            ["Gbps"] + list(EXTENDED_FACTORIES),
            rows,
            title=f"{args.model} bs{args.batch} — bandwidth sweep (samples/s)",
        )
    )
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.experiments import chaos

    get_model(args.model)  # validate eagerly, before any training run
    _validate_backend_flags(args)
    if args.workers < 2:
        raise ConfigurationError(
            f"--workers must be >= 2 (chaos crashes worker 1), got {args.workers}"
        )
    plan = chaos.default_plan(
        crash_at=args.crash_at,
        restart_after=args.restart_after,
        drop=args.drop,
        backend=args.backend,
    )
    EXPERIMENTS["chaos"].report(
        model=args.model,
        batch_size=args.batch,
        n_iterations=args.iterations,
        seed=args.seed,
        plan=plan,
        backend=args.backend,
        collective=_resolved_collective(args),
        group_size=_resolved_group_size(args),
        n_servers=args.n_servers,
        n_workers=args.workers,
    )
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.fleet import FleetSpec, run_fleet
    from repro.quantities import fmt_bandwidth

    for strategy in args.strategies:
        _validate_choice("strategy", strategy, EXTENDED_FACTORIES)
    spec = FleetSpec(
        n_jobs=args.n_jobs,
        policy=args.policy,
        n_hosts=args.hosts,
        slots_per_host=args.slots_per_host,
        core_bandwidth=args.core_gbps * Gbps,
        nic_bandwidth=args.nic_gbps * Gbps,
        model=args.model,
        batch_size=args.batch,
        n_workers=args.workers,
        n_iterations=args.iterations,
        strategies=tuple(args.strategies),
        mean_interarrival_s=args.interarrival,
        seed=args.seed,
    )
    result = run_fleet(spec)
    summary = result.summary()
    oversub = spec.n_workers * spec.nic_bandwidth / spec.core_bandwidth
    rows = [
        ["jobs", f"{int(summary['n_jobs'])}"],
        ["makespan", f"{summary['makespan_s']:.2f} s"],
        ["fleet goodput", f"{summary['goodput_samples_per_s']:.1f} samples/s"],
        ["p50 iteration", f"{summary['p50_iteration_s'] * 1e3:.0f} ms"],
        ["p99 iteration", f"{summary['p99_iteration_s'] * 1e3:.0f} ms"],
        ["Jain fairness", f"{summary['jain_fairness']:.4f}"],
        ["mean queueing delay", f"{summary['mean_queueing_delay_s']:.2f} s"],
        ["max queueing delay", f"{summary['max_queueing_delay_s']:.2f} s"],
        ["per-job NIC demand", f"{oversub:.2f}x core"],
    ]
    print(
        format_table(
            ["metric", "value"],
            rows,
            title=(
                f"fleet — {args.n_jobs} x {args.model} bs{args.batch}, "
                f"{args.policy} policy, {args.hosts}x{args.slots_per_host} "
                f"slots, core {fmt_bandwidth(spec.core_bandwidth)}"
            ),
        )
    )
    by_strategy: dict[str, list] = {}
    for record in result.records:
        by_strategy.setdefault(record.strategy, []).append(record)
    if len(by_strategy) > 1:
        strat_rows = [
            [
                name,
                len(records),
                f"{sum(r.training_rate for r in records) / len(records):.1f}",
                f"{sum(r.queueing_delay for r in records) / len(records):.2f}",
            ]
            for name, records in sorted(by_strategy.items())
        ]
        print()
        print(
            format_table(
                ["strategy", "jobs", "mean rate (s/s)", "mean queue (s)"],
                strat_rows,
                title="per-strategy breakdown",
            )
        )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import time

    from repro.experiments import fig8
    from repro.runner import ResultCache, resolve_jobs

    jobs = resolve_jobs(args.jobs)
    cache: bool | ResultCache
    if args.no_cache:
        cache = False
    else:
        cache = ResultCache(args.cache_dir)
    workloads = fig8.DEFAULT_WORKLOADS
    n_runs = 2 * len(workloads)
    start = time.perf_counter()
    rows = fig8.run(workloads=workloads, jobs=jobs, cache=cache)
    elapsed = time.perf_counter() - start
    print(
        format_table(
            ["model", "batch", "Prophet (s/s)", "ByteScheduler (s/s)"],
            [[r.config.model, r.config.batch_size, f"{r.rates['prophet']:.1f}",
              f"{r.rates['bytescheduler']:.1f}"] for r in rows],
            title=f"bench — Fig. 8 FAST grid ({n_runs} runs, jobs={jobs})",
        )
    )
    if isinstance(cache, ResultCache):
        cache_line = f"cache: {cache.hits} hits, {cache.misses} misses"
    else:
        cache_line = "cache: disabled"
    print(f"\nwall time: {elapsed:.2f} s ({n_runs / elapsed:.2f} runs/s); "
          f"{cache_line}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.profiling import profile_experiment

    _validate_choice("experiment", args.experiment, EXPERIMENTS)
    overrides = {
        key: value
        for key, value in (
            ("n_workers", args.workers),
            ("n_servers", args.n_servers),
            ("backend", args.backend),
        )
        if value is not None
    }
    report = profile_experiment(
        args.experiment,
        top=args.top,
        sort=args.sort,
        dump=args.dump,
        use_cache=args.use_cache,
        overrides=overrides,
    )
    print()
    print(f"profile — {report.experiment}: {report.total_calls:,} calls in "
          f"{report.total_seconds:.2f} s (serial, "
          f"{'cache allowed' if args.use_cache else 'cache bypassed'})")
    print(report.text, end="")
    if report.dump_path:
        print(f"raw stats dumped to {report.dump_path} "
              f"(view with `snakeviz {report.dump_path}`)")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.runner import ResultCache

    store = ResultCache(args.cache_dir)
    if args.action == "clear":
        removed = store.clear()
        print(f"removed {removed} cached result(s) from {store.root}")
        return 0
    stats = store.stats()
    rows = [
        ["directory", str(stats.root)],
        ["entries", stats.entries],
        ["total size", fmt_bytes(stats.total_bytes)],
    ]
    print(format_table(["property", "value"], rows, title="result cache"))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    dispatch = {
        "list": lambda: _cmd_list(),
        "info": lambda: _cmd_info(args.model),
        "run": lambda: _cmd_run(args),
        "compare": lambda: _cmd_compare(args),
        "sched": lambda: _cmd_sched(args),
        "sweep": lambda: _cmd_sweep(args),
        "chaos": lambda: _cmd_chaos(args),
        "fleet": lambda: _cmd_fleet(args),
        "bench": lambda: _cmd_bench(args),
        "profile": lambda: _cmd_profile(args),
        "cache": lambda: _cmd_cache(args),
    }
    try:
        return dispatch[args.command]()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
