"""Training-run results: the read API the experiment harnesses consume.

All of the paper's reported quantities are methods here:

* training rate in samples/second per worker (Figs. 8, 12; Tables 2, 3),
* GPU utilization, average and over time (Figs. 2, 9, 13),
* network throughput, average and over time (Figs. 2, 10),
* per-gradient wait/transfer times (Fig. 11).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.agg.kvstore import GenerationSchedule
from repro.config import TrainingConfig
from repro.errors import ConfigurationError
from repro.metrics.throughput import windowed_throughput
from repro.metrics.timeline import GradientRecord, Recorder
from repro.metrics.utilization import mean_utilization, windowed_utilization
from repro.models.compute import ComputeProfile
from repro.net.collective import HierarchicalTopology
from repro.net.link import TransferRecord
from repro.net.topology import ShardedTopology
from repro.trace.export import summarize_trace, write_chrome_trace, write_trace_jsonl
from repro.trace.recorder import NULL_RECORDER, NullRecorder, TraceRecorder

__all__ = ["TrainingResult", "GradientCommStats"]


@dataclass(frozen=True)
class GradientCommStats:
    """Aggregate per-gradient communication statistics (Fig. 11 numbers)."""

    mean_wait: float
    mean_transfer: float
    p95_wait: float
    p95_transfer: float
    count: int


@dataclass
class TrainingResult:
    """Everything recorded during one training run."""

    config: TrainingConfig
    recorder: Recorder
    topology: ShardedTopology | HierarchicalTopology
    schedulers: list
    gen_schedule: GenerationSchedule
    compute: ComputeProfile
    end_time: float
    #: Structured trace of the run (the no-op recorder when tracing was
    #: off — check ``trace.enabled`` before expecting events).
    trace: TraceRecorder | NullRecorder = NULL_RECORDER
    #: Fault/recovery counters from the run's
    #: :class:`~repro.faults.injector.FaultInjector` (``None`` for a
    #: fault-free run — the injector was never instantiated).
    fault_stats: dict[str, int] | None = None
    #: ``(time, kind, detail)`` log of every discrete fault event.
    fault_log: list[tuple[float, str, dict]] | None = None
    # bench/tracer.py reads this name; always None.
    fastforward_stats = None

    # ------------------------------------------------------------------
    # Iteration timing and rates
    # ------------------------------------------------------------------
    def iteration_spans(self, worker: int = 0, skip: int = 2) -> np.ndarray:
        """Iteration durations (fwd-start to fwd-start), skipping warmup."""
        recs = self.recorder.worker_iterations(worker)
        starts = np.array([r.fwd_start for r in recs], dtype=float)
        spans = np.diff(starts)
        if skip >= len(spans):
            raise ConfigurationError(
                f"skip={skip} leaves no iterations "
                f"(worker {worker} has {len(spans)} spans)"
            )
        return spans[skip:]

    def per_worker_rate(self, worker: int = 0, skip: int = 2) -> float:
        """Training rate of one worker in samples/second."""
        spans = self.iteration_spans(worker, skip)
        return self.config.batch_size / float(spans.mean())

    def training_rate(self, skip: int = 2) -> float:
        """Mean per-worker rate (the paper's reported samples/sec)."""
        rates = [
            self.per_worker_rate(w, skip) for w in range(self.config.n_workers)
        ]
        return float(np.mean(rates))

    def measurement_window(self, worker: int = 0, skip: int = 2) -> tuple[float, float]:
        """(start, end) of the post-warmup measurement span."""
        recs = self.recorder.worker_iterations(worker)
        starts = [r.fwd_start for r in recs]
        if skip >= len(starts) - 1:
            raise ConfigurationError("skip leaves no measurement window")
        return float(starts[skip]), float(starts[-1])

    # ------------------------------------------------------------------
    # GPU utilization
    # ------------------------------------------------------------------
    def mean_gpu_utilization(self, worker: int = 0, skip: int = 2) -> float:
        """Average GPU utilization over the measurement window."""
        start, end = self.measurement_window(worker, skip)
        return mean_utilization(self.recorder.gpu_busy_intervals(worker), start, end)

    def gpu_utilization_series(
        self,
        worker: int = 0,
        window: float = 0.5,
        resolution: float = 0.1,
    ) -> tuple[np.ndarray, np.ndarray]:
        """(times, utilization) series, nvidia-smi style trailing window."""
        times = np.arange(resolution, self.end_time, resolution)
        util = windowed_utilization(
            self.recorder.gpu_busy_intervals(worker), times, window
        )
        return times, util

    # ------------------------------------------------------------------
    # Network throughput
    # ------------------------------------------------------------------
    def _channel_records(
        self, worker: int, direction: str = "both"
    ) -> list[TransferRecord]:
        if direction not in ("both", "push", "pull"):
            raise ConfigurationError(f"unknown direction {direction!r}")
        records: list[TransferRecord] = []
        for link in self.topology.worker_uplinks(worker):
            records += link.records
        if self.config.duplex:
            for link in self.topology.worker_downlinks(worker):
                records += link.records
        if direction == "both":
            return records
        return [r for r in records if isinstance(r.tag, tuple) and r.tag[0] == direction]

    def throughput_series(
        self,
        worker: int = 0,
        window: float = 0.5,
        resolution: float = 0.1,
        direction: str = "both",
    ) -> tuple[np.ndarray, np.ndarray]:
        """(times, bytes/s) series of a worker's channel."""
        times = np.arange(resolution, self.end_time, resolution)
        series = windowed_throughput(
            self._channel_records(worker, direction), times, window
        )
        return times, series

    def mean_throughput(
        self, worker: int = 0, skip: int = 2, direction: str = "both"
    ) -> float:
        """Average channel throughput (bytes/s) over the measurement window."""
        start, end = self.measurement_window(worker, skip)
        records = [
            r
            for r in self._channel_records(worker, direction)
            if r.end > start and r.start < end
        ]
        total = sum(r.nbytes for r in records)
        return total / (end - start)

    # ------------------------------------------------------------------
    # Per-gradient communication (Fig. 11)
    # ------------------------------------------------------------------
    def gradient_records(
        self, worker: int = 0, iteration: int | None = None
    ) -> list[GradientRecord]:
        return self.recorder.gradient_records(worker=worker, iteration=iteration)

    def gradient_comm_stats(
        self, worker: int = 0, skip: int = 2
    ) -> GradientCommStats:
        """Mean/95p wait and transfer times over post-warmup iterations."""
        recs = [
            r
            for r in self.recorder.gradient_records(worker=worker)
            if r.iteration >= skip
            and np.isfinite(r.push_start)
            and np.isfinite(r.push_end)
            and np.isfinite(r.ready)
        ]
        if not recs:
            raise ConfigurationError(
                "no complete gradient records (was record_gradients=False?)"
            )
        waits = np.array([r.wait_time for r in recs])
        transfers = np.array([r.transfer_time for r in recs])
        return GradientCommStats(
            mean_wait=float(waits.mean()),
            mean_transfer=float(transfers.mean()),
            p95_wait=float(np.percentile(waits, 95)),
            p95_transfer=float(np.percentile(transfers, 95)),
            count=len(recs),
        )

    # ------------------------------------------------------------------
    # Structured trace
    # ------------------------------------------------------------------
    def _trace_metadata(self) -> dict[str, object]:
        strategies = sorted({s.name for s in self.schedulers})
        return {
            "model": self.config.model,
            "batch_size": self.config.batch_size,
            "n_workers": self.config.n_workers,
            "n_iterations": self.config.n_iterations,
            "seed": self.config.seed,
            "strategy": strategies[0] if len(strategies) == 1 else strategies,
        }

    def write_chrome_trace(self, path: str | Path) -> Path:
        """Export the run's trace as Chrome trace-event JSON.

        The file loads directly in Perfetto (https://ui.perfetto.dev) or
        ``chrome://tracing``.  Raises if the run was not traced.
        """
        self._require_trace()
        return write_chrome_trace(self.trace, path, metadata=self._trace_metadata())

    def write_trace_jsonl(self, path: str | Path) -> Path:
        """Export the run's trace as compact JSONL (one event per line)."""
        self._require_trace()
        return write_trace_jsonl(self.trace, path)

    def trace_summary(self) -> dict[str, object]:
        """Aggregate trace statistics (span totals, counters, tracks)."""
        self._require_trace()
        return summarize_trace(self.trace)

    def _require_trace(self) -> None:
        if not self.trace.enabled:
            raise ConfigurationError(
                "this run was not traced (set TrainingConfig.trace=True)"
            )

    # ------------------------------------------------------------------
    def summary(self, skip: int = 2) -> dict[str, float]:
        """Headline numbers as a plain dict (handy for harness printing)."""
        return {
            "training_rate": self.training_rate(skip),
            "mean_iteration_s": float(self.iteration_spans(0, skip).mean()),
            "gpu_utilization": self.mean_gpu_utilization(0, skip),
            "throughput_bytes_per_s": self.mean_throughput(0, skip),
        }
