"""Table 3 — batch-size sensitivity of Prophet's improvement.

The paper's observation: larger batches mean longer backward passes,
wider stepwise intervals, and therefore more room for Prophet's block
assembly — improvements over ByteScheduler grow from 1.5 % (ResNet-50
bs16) to 36 % (bs64).  The reproduction target is the *trend* (monotone
in batch size), with magnitudes that depend on the baseline's modeled
inefficiency (see EXPERIMENTS.md).
"""

from __future__ import annotations

from repro.experiments import fig8
from repro.experiments.common import FAST_ITERATIONS
from repro.metrics.report import format_table
from repro.quantities import Gbps
from repro.runner import ResultCache

__all__ = ["Table3Row", "run", "main", "PAPER_WORKLOADS"]

#: The (model, batch) pairs of the paper's Table 3.
PAPER_WORKLOADS: tuple[tuple[str, int], ...] = (
    ("resnet18", 16),
    ("resnet18", 64),
    ("resnet50", 16),
    ("resnet50", 32),
    ("resnet50", 64),
)

#: Table 3 compares the same two strategies as Fig. 8, so rows are shared.
Table3Row = fig8.Fig8Row


def run(
    workloads: tuple[tuple[str, int], ...] = PAPER_WORKLOADS,
    bandwidth: float = 3 * Gbps,
    n_iterations: int = FAST_ITERATIONS,
    seed: int = 0,
    *,
    jobs: int | None = None,
    cache: bool | ResultCache | None = None,
) -> list[Table3Row]:
    """Prophet vs ByteScheduler across the paper's batch-size grid."""
    return fig8.run(workloads, bandwidth, n_iterations, seed, jobs=jobs, cache=cache)


def main() -> list[Table3Row]:
    rows = run()
    print(
        format_table(
            ["model (batch)", "Prophet (s/s)", "ByteScheduler (s/s)", "improvement"],
            [
                [f"{r.model} ({r.batch_size})", f"{r.prophet_rate:.2f}",
                 f"{r.bytescheduler_rate:.2f}", f"{r.improvement * 100:+.1f}%"]
                for r in rows
            ],
            title="Table 3 — batch-size sensitivity (3 Gbps)",
        )
    )
    return rows


if __name__ == "__main__":
    main()
