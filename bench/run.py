"""Run the benchmark: ``python3 bench/run.py --workload NAME --seed N``.

For each workload (one, or all of them one after another) this starts a
child process with a pinned environment -- single-threaded, ``jobs=1``,
the result cache off -- and prints every metric with its unit and sample
count, then, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` (default) reports the end-to-end metrics: median wall
seconds per pass and set-up seconds (median of seven fresh interpreters),
both at reference host speed (see ``bench/hostspeed.py``), and peak RSS.
``--trace 1`` reports the per-layer metrics of one traced
pass instead; ``--trace-out DIR`` also writes its spans as Chrome-trace
JSON.  ``--out DIR`` writes each result, with host and environment, as a
JSON file for ``bench/compare.py``.  ``--write-golden`` regenerates
``bench/golden.json``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from bench import golden  # noqa: E402
from bench.child import E2E_METRICS  # noqa: E402
from bench.hostspeed import REFERENCE_S, at_reference_speed  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

#: Fresh interpreters timed for ``setup_s``.
SETUP_PROBES = 7
#: Scratch space for the cache passes and traces (ignored by git).
SCRATCH = ROOT / "bench" / "out"
#: Environment every child runs under, whatever the caller's is: any
#: other ``REPRO_*`` variable is dropped.
PINNED_ENV = {
    "REPRO_JOBS": "1",
    "REPRO_NO_CACHE": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
CHILD_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 30


class BenchError(Exception):
    """A child failed to produce a result."""


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PINNED_ENV)
    env["REPRO_CACHE_DIR"] = str(SCRATCH / "repro-cache")
    env["PYTHONPATH"] = os.pathsep.join((str(ROOT / "src"), str(ROOT)))
    return env


def _python(module: str, *args: str, timeout: float) -> dict:
    """Run ``python -m module args`` and parse its last stdout line."""
    proc = subprocess.run(
        [sys.executable, "-m", module, *args],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{module} {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-3000:]}"
        )
    return json.loads(lines[-1])


def setup_probes(workload: str, seed: int) -> list[dict]:
    """Set-up seconds and reference seconds of each fresh interpreter."""
    return [
        _python("bench.setup_probe", workload, str(seed), timeout=PROBE_TIMEOUT_S)
        for _ in range(SETUP_PROBES)
    ]


def git_sha() -> str:
    """HEAD's commit from the ``.git`` files, without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": git_sha(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: int, trace_dir) -> dict:
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--scratch", str(SCRATCH / f"cache-{os.getpid()}")]
    if trace and trace_dir:
        Path(trace_dir).mkdir(parents=True, exist_ok=True)
        args += ["--trace-out", str(Path(trace_dir).resolve() / f"{name}.trace.json")]
    probes = [] if trace else setup_probes(name, seed)
    child = _python("bench.child", *args, timeout=CHILD_TIMEOUT_S)
    metrics = child["metrics"]
    samples = child["samples"]
    if probes:
        setup = [at_reference_speed(p["setup_s"], p["reference_s"]) for p in probes]
        metrics["setup_s"] = [statistics.median(setup), "s", len(setup)]
        metrics = {key: metrics[key] for key in E2E_METRICS}
        samples = dict(
            samples,
            setup=[p["setup_s"] for p in probes],
            setup_reference=[p["reference_s"] for p in probes],
        )
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "errors": child["errors"],
        "golden": child["golden"],
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        "notes": child["notes"],
        "samples": samples,
        "runs": child["runs"],
        "outputs": child["outputs"],
        "host": dict(host_info(), numpy=child["numpy"]),
        "env": {k: v for k, v in child_env().items() if k in PINNED_ENV or k.startswith("REPRO_")},
    }


def report(result: dict) -> None:
    """Human-readable lines, then the one-line JSON result last."""
    print(f"== {result['workload']} seed={result['seed']} trace={result['trace']}")
    if result["golden"] == "unchecked":
        print(f"   golden: unchecked (no golden values for seed {result['seed']}; "
              "every pass is checked against the warm-up pass)")
    else:
        print("   golden: checked against bench/golden.json")
    for name, m in result["metrics"].items():
        print(f"   {name:40s} {m['value']:>16.6g} {m['unit']:6s} n={m['samples']}")
    samples = result["samples"]
    if samples:
        refs = [r for pass_refs in samples["reference"] for r in pass_refs]
        print(f"   raw: pass wall median {statistics.median(samples['wall']):.4f} s, "
              f"set-up median {statistics.median(samples['setup']):.4f} s, "
              f"reference loop median {statistics.median(refs):.4f} s "
              f"(wall_s and setup_s are scaled to {REFERENCE_S} s)")
    for line in result["notes"] + result["errors"]:
        print(f"   {line}")
    host = result["host"]
    print(f"   host: nproc={host['nproc']} cpu={host['cpu_model']!r} python={host['python']} "
          f"numpy={host['numpy']} sha={host['git_sha'][:12]}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in result["metrics"].items()},
    }))


def save(result: dict, out_dir: str) -> Path:
    """Write ``result`` to a fresh file ``<workload>.seed<N>[.trace][.K].json``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{result['workload']}.seed{result['seed']}" + (".trace" if result["trace"] else "")
    path, k = out / f"{stem}.json", 1
    while path.exists():
        k += 1
        path = out / f"{stem}.{k}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True))
    return path


def write_golden() -> None:
    """Regenerate ``bench/golden.json`` for every workload and golden seed."""
    table: dict = {}
    for name in WORKLOADS:
        for seed in golden.GOLDEN_SEEDS:
            result = run_workload(name, seed, 0, 0, None)
            outputs = result["outputs"]
            missing = sorted(set(result["runs"]) - set(outputs))
            bad = [rid for rid, out in outputs.items() if not all(map(math.isfinite, out.values()))]
            if missing or bad:
                raise BenchError(f"{name} seed {seed}: no valid outputs for {missing + bad}")
            table.setdefault(name, {})[str(seed)] = outputs
            print(f"golden: {name} seed {seed}: {len(outputs)} runs")
    golden.GOLDEN_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="timed seconds per workload after the warm-up pass "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", metavar="DIR", help="write Chrome traces here (with --trace 1)")
    parser.add_argument("--out", metavar="DIR", help="write one result file per workload here")
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: simulator source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    try:
        if args.write_golden:
            write_golden()
            return 0
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        for name in names:
            result = run_workload(name, args.seed, args.seconds, args.trace, args.trace_out)
            if args.out:
                print(f"   saved {save(result, args.out)}")
            report(result)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
