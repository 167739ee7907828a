"""Compare two sets of benchmark results: parent (A) against change (B).

Usage::

    python3 bench/compare.py A/*.json B/*.json [--claim METRIC WORKLOAD]

The files are result files written by ``bench/run.py --out DIR``; the two
sets are told apart by their directory.  For every workload and
end-to-end metric it prints each side's median and quartiles, the change
against the bound ``BENCHMARK.json`` fixes, and a verdict: ``ok``,
``REGRESSION``, ``unresolved`` (the parent's own IQR exceeds the bound,
so the data cannot tell), or ``better in every run``.  With ``--claim``
it also counts wins over the pairs (i-th parent run, i-th change run,
ordered by seed) and applies the gain rule: at least nine tenths of the
pairs won, and medians further apart than the parent's IQR.

Exit status: 1 if any metric regressed or any run failed, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Host fields that must match for two result sets to be comparable.
COMPARABLE = ("nproc", "cpu_model", "python", "numpy")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def worse_by(parent: float, change: float, better: str) -> float:
    """Relative change from ``parent`` to ``change``; positive is worse."""
    delta = (change - parent) / parent
    return delta if better == "lower" else -delta


def load_sets(paths: list[str]) -> tuple[tuple[str, list], tuple[str, list]]:
    groups: dict[str, list[dict]] = {}
    for name in paths:
        path = Path(name)
        groups.setdefault(str(path.parent), []).append(
            dict(json.loads(path.read_text()), file=path.name)
        )
    if len(groups) != 2:
        raise SystemExit(
            f"error: expected result files from two directories, got {len(groups)}"
        )
    a, b = groups.items()
    return a, b


def host_key(result: dict) -> tuple:
    host = result["host"]
    return tuple(host.get(k) for k in COMPARABLE) + (tuple(sorted(result["env"].items())),)


def runs(results: list[dict], workload: str) -> list[dict]:
    """Untraced results of one workload, in (seed, file) order."""
    chosen = [r for r in results if r["workload"] == workload and not r["trace"]]
    return sorted(chosen, key=lambda r: (r["seed"], r["file"]))


def values(results: list[dict], metric: str) -> list[float]:
    return [r["metrics"][metric]["value"] for r in results if metric in r["metrics"]]


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[float, str]:
    a_q1, a_med, a_q3 = quartiles(a)
    delta = worse_by(a_med, quartiles(b)[1], better)
    if (max(b) < min(a)) if better == "lower" else (min(b) > max(a)):
        return delta, "better in every run"
    if (a_q3 - a_q1) / a_med > bound:
        return delta, "unresolved (parent IQR exceeds the bound)"
    return delta, "REGRESSION" if delta > bound else "ok"


def claim(a: list[dict], b: list[dict], metric: str, better: str) -> None:
    """Print the win count over pairs and whether the gain rule holds."""
    pairs = list(zip(values(a, metric), values(b, metric)))
    wins = sum(worse_by(x, y, better) < 0 for x, y in pairs)
    ties = sum(x == y for x, y in pairs)
    av, bv = [x for x, _ in pairs], [y for _, y in pairs]
    a_q1, a_med, a_q3 = quartiles(av)
    b_med = quartiles(bv)[1]
    improved = worse_by(a_med, b_med, better) < 0
    held = bool(pairs) and wins >= 0.9 * len(pairs) and improved and abs(b_med - a_med) > a_q3 - a_q1
    print(
        f"claim {metric}: change wins {wins} of {len(pairs)} pairs ({ties} ties); "
        f"medians {a_med:.6g} -> {b_med:.6g}, parent IQR {a_q3 - a_q1:.6g}: "
        + ("gain holds" if held else "not met")
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("files", nargs="+", help="A/*.json B/*.json")
    parser.add_argument("--claim", nargs=2, metavar=("METRIC", "WORKLOAD"))
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    (a_dir, a), (b_dir, b) = load_sets(args.files)
    print(f"A (parent) = {a_dir}: {len(a)} files;  B (change) = {b_dir}: {len(b)} files")
    hosts = {host_key(r) for r in a + b}
    if len(hosts) > 1:
        print("warning: results come from different hosts or environments:")
        for key in sorted(map(str, hosts)):
            print(f"   {key}")
    bad = False
    for label, results in (("A", a), ("B", b)):
        failed = sum(r["failed"] for r in results)
        if failed:
            bad = True
            print(f"{label}: {failed} failed runs of {sum(r['attempted'] for r in results)}")

    print(f"{'workload':16s} {'metric':12s} {'A median [q1, q3]':>30s} {'B median [q1, q3]':>30s} "
          f"{'worse by':>9s} {'bound':>6s}  verdict")
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        ra, rb = runs(a, workload), runs(b, workload)
        for name, metric in metrics.items():
            av, bv = values(ra, name), values(rb, name)
            if not av or not bv:
                continue
            delta, text = verdict(av, bv, metric["better"], metric["bound"])
            bad |= text == "REGRESSION"
            cols = []
            for v in (av, bv):
                q1, med, q3 = quartiles(v)
                cols.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] n={len(v)}")
            print(f"{workload:16s} {name:12s} {cols[0]:>30s} {cols[1]:>30s} "
                  f"{delta:>+9.1%} {metric['bound']:>6.0%}  {text}")
    if args.claim:
        name, workload = args.claim
        if name not in metrics or workload not in workloads:
            raise SystemExit(f"error: unknown metric or workload in --claim {name} {workload}")
        claim(runs(a, workload), runs(b, workload), name, metrics[name]["better"])
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
