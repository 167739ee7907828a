"""One workload in its own process: the measured part of a benchmark run.

``bench/run.py`` starts this module once per workload with a pinned
environment and reads the JSON line it prints last.  Untraced, it runs one
discarded warm-up pass, then timed passes until ``--seconds`` have passed
(at least :data:`MIN_PASSES`), and reports the median pass time at
reference host speed and the process's peak RSS.  Traced (``--trace 1``),
it runs a warm-up pass, one untraced pass and one pass under
:class:`Tracer`, and reports the per-layer metrics; on paper-grid it also
times a cold and a warm pass through a result cache in a scratch
directory.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from bench import golden
from bench.hostspeed import at_reference_speed, reference_seconds
from bench.tracer import CACHE_SPANS, Tracer, layer_metric_names
from bench.workloads import WORKLOADS, grid_steps

#: Minimum timed passes (paper-grid's passes are the shortest).
MIN_PASSES = {"paper-grid": 5}
DEFAULT_MIN_PASSES = 3
#: Spans kept for ``--trace-out`` (bounds a traced run's memory).
MAX_KEPT_SPANS = 200_000

#: End-to-end metrics of an untraced run: name -> (unit, better).
#: ``setup_s`` comes from the set-up probes ``bench/run.py`` starts.
E2E_METRICS = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}
#: Per-layer metrics a traced run adds to the tracer's own.
TRACE_RUN_METRICS = {
    "trace.overhead": ("ratio", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "runner.cache.write_s": ("s", "lower"),
    "runner.cache.read_s": ("s", "lower"),
}


def timed_pass(steps, reference):
    start = time.perf_counter()
    checked = golden.run_pass(steps, reference)
    return checked, time.perf_counter() - start


def untraced(name: str, steps, reference, seconds: float) -> dict:
    """Timed passes with host-speed reference samples between the steps.

    ``wall_s`` is the median over passes of the pass's step seconds
    scaled to reference host speed by the samples taken around and
    between its steps (see :mod:`bench.hostspeed`).
    """
    passes, walls, scaled, samples = [], [], [], []
    start = time.perf_counter()
    min_passes = MIN_PASSES.get(name, DEFAULT_MIN_PASSES)
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        refs: list[float] = []
        checked = golden.run_pass(steps, reference, lambda: refs.append(reference_seconds()))
        refs.append(reference_seconds())
        wall = sum(checked.step_seconds)
        passes.append(checked)
        walls.append(wall)
        samples.append(refs)
        scaled.append(at_reference_speed(wall, refs))
    return {
        "passes": passes,
        "samples": {"wall": walls, "reference": samples},
        "metrics": {
            "wall_s": [statistics.median(scaled), "s", len(scaled)],
            "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB", 1],
        },
    }


def traced(name: str, inputs, steps, reference, trace_out, scratch: Path) -> dict:
    base, base_wall = timed_pass(steps, reference)
    tracer = Tracer(keep_spans=MAX_KEPT_SPANS if trace_out else 0)
    with tracer:
        run, wall = timed_pass(steps, reference)
    differ = [rid for rid, out in run.outputs.items() if out != base.outputs.get(rid)]
    if differ:
        run.failed += len(differ)
        run.errors.append(f"traced outputs differ from the untraced pass: {differ}")
    units = layer_metric_names()
    metrics = {k: [v, units[k][0], 1] for k, v in tracer.metrics().items()}
    metrics["trace.overhead"] = [wall / base_wall, TRACE_RUN_METRICS["trace.overhead"][0], 1]
    metrics["trace.coverage"] = [
        sum(tracer.self_s) / wall, TRACE_RUN_METRICS["trace.coverage"][0], 1
    ]
    passes = [base, run]
    cache = {"runner.cache.write_s": 0.0, "runner.cache.read_s": 0.0}
    if name == "paper-grid":
        cache_passes, cache = cache_timings(inputs, reference, scratch)
        passes += cache_passes
    for key, value in cache.items():
        metrics[key] = [value, TRACE_RUN_METRICS[key][0], 1]
    notes = []
    if tracer.missing:
        notes.append(f"trace targets not found: {', '.join(tracer.missing)}")
    if trace_out:
        notes.append(f"wrote {tracer.write_chrome_trace(trace_out)} spans to {trace_out}")
    return {"passes": passes, "metrics": metrics, "notes": notes}


def cache_timings(specs, reference, scratch: Path):
    """A cold then a warm grid pass into a fresh cache at ``scratch``:
    seconds inside ``ResultCache.put`` (cold) and ``ResultCache.get`` (warm)."""
    from repro.runner import ResultCache

    shutil.rmtree(scratch, ignore_errors=True)
    store = ResultCache(scratch)
    steps = grid_steps(specs, cache=store)
    passes, seconds = [], {}
    try:
        for label, span in (("write", "ResultCache.put"), ("read", "ResultCache.get")):
            with Tracer(spans=CACHE_SPANS) as tracer:
                passes.append(golden.run_pass(steps, reference))
            seconds[f"runner.cache.{label}_s"] = tracer.name_seconds(span)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if store.hits != len(specs):
        passes[-1].failed += 1
        passes[-1].errors.append(f"warm cache pass hit {store.hits}/{len(specs)} entries")
    return passes, seconds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out")
    parser.add_argument("--scratch", required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    steps = workload.steps(inputs)
    want = golden.expected(golden.load(), args.workload, args.seed)
    warm = golden.run_pass(steps, want)
    # Unchecked seeds: every later pass must reproduce the warm-up pass.
    reference = want if want is not None else warm.outputs
    if args.trace:
        report = traced(
            args.workload, inputs, steps, reference, args.trace_out, Path(args.scratch)
        )
    else:
        report = untraced(args.workload, steps, reference, args.seconds)
    passes = [warm, *report["passes"]]
    import numpy

    print(
        json.dumps(
            {
                "attempted": sum(p.attempted for p in passes),
                "failed": sum(p.failed for p in passes),
                "errors": [e for p in passes for e in p.errors][:20],
                "golden": "checked" if want is not None else "unchecked",
                "runs": [rid for step in steps for rid in step.runs],
                "outputs": warm.outputs,
                "metrics": report["metrics"],
                "notes": report.get("notes", []),
                "samples": report.get("samples"),
                "numpy": numpy.__version__,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
