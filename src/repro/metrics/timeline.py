"""Typed event timelines recorded during a training simulation.

The :class:`Recorder` is written to by workers as the simulation runs and
read by the figure/table harnesses afterwards.  Three record kinds:

* :class:`GpuInterval` — one contiguous GPU-busy span (forward or backward
  compute of one layer run, or a whole backward pass);
* :class:`IterationRecord` — per-worker iteration boundaries;
* :class:`GradientRecord` — the paper's per-gradient quantities: ready
  time ``c``, push start ``t``, push end, pull end ``u`` (Fig. 11's wait
  time is ``t − c``; its transfer time is push end − push start).

The recorder is a typed view over the structured trace layer
(:mod:`repro.trace`): every write is mirrored into the attached trace
recorder (compute spans on the ``worker{N}/gpu`` track, iteration-boundary
instants, per-gradient lifecycle instants), so the Chrome trace and the
numeric timelines are produced by one write path.
:func:`recorder_from_trace` inverts the mapping — rebuilding the typed
views from a trace event list (e.g. one re-read from an exported Chrome
JSON file), which is what makes the trace the authoritative record.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from math import isnan, nan
from typing import Iterable

import numpy as np

from repro.trace.events import INSTANT, SPAN, TraceEvent
from repro.trace.recorder import NULL_RECORDER, NullRecorder, TraceRecorder

__all__ = [
    "GpuInterval",
    "IterationRecord",
    "GradientRecord",
    "Recorder",
    "recorder_from_trace",
]


@dataclass(frozen=True)
class GpuInterval:
    """One GPU-busy span on one worker."""

    worker: int
    iteration: int
    kind: str  # "fwd" | "bwd"
    start: float
    end: float


@dataclass
class IterationRecord:
    """Per-worker iteration boundaries (bwd starts when fwd ends)."""

    worker: int
    iteration: int
    fwd_start: float = np.nan
    fwd_end: float = np.nan
    bwd_end: float = np.nan


@dataclass
class GradientRecord:
    """Per-gradient communication timeline on one worker, one iteration.

    Built on read by :meth:`Recorder.gradient_records`; the recorder keeps
    the marks themselves in per-(worker, iteration) columns of floats.
    """

    worker: int
    iteration: int
    grad: int
    ready: float = np.nan       # c(i): flushed by the KV store
    push_start: float = np.nan  # t(i): first byte enters the channel
    push_end: float = np.nan    # last byte pushed
    pull_end: float = np.nan    # u(i): parameters updated locally

    @property
    def wait_time(self) -> float:
        """Queueing delay before transmission (Fig. 11's wait time)."""
        return self.push_start - self.ready

    @property
    def transfer_time(self) -> float:
        """Push duration, first to last byte (Fig. 11's transfer time)."""
        return self.push_end - self.push_start


#: One (worker, iteration)'s mark columns, in :class:`GradientRecord` order.
GradientLog = tuple[array, array, array, array]
_MARKS = ("ready", "push_start", "push_end", "pull_end")


class _TracedColumn(array):
    """A gradient-log column of a traced run: each store also lands in the
    trace, as a ``gradient`` instant named after the column's mark."""

    __slots__ = ("trace", "mark", "worker", "iteration")

    def __new__(cls, trace, mark: str, worker: int, iteration: int, n_grads: int):
        col = super().__new__(cls, "d", [nan] * n_grads)
        col.trace, col.mark, col.worker, col.iteration = trace, mark, worker, iteration
        return col

    def __setitem__(self, grad: int, t: float) -> None:
        array.__setitem__(self, grad, t)
        self.trace.instant(
            self.mark,
            "gradient",
            t,
            f"worker{self.worker}/grad",
            {"worker": self.worker, "iteration": self.iteration, "grad": grad},
        )


class Recorder:
    """Accumulates simulation timelines.

    Per-gradient marks live in one *gradient log* per (worker, iteration):
    four NaN-filled ``array('d')`` columns indexed by gradient, which a
    worker takes from :meth:`gradient_log` as its backward pass starts and
    writes one indexed store per mark.  ``record_gradients=False`` keeps
    no marks (the most memory-hungry signal) for sweeps that only need
    rates: each pass then writes into a scratch log nobody keeps.

    ``trace`` mirrors every write into a structured trace recorder
    (default: the shared no-op), putting the numeric timelines and the
    exportable Chrome trace on one write path; a traced run's log columns
    emit each mark as they store it.
    """

    def __init__(
        self,
        record_gradients: bool = True,
        trace: TraceRecorder | NullRecorder = NULL_RECORDER,
    ):
        self.record_gradients = record_gradients
        self.trace = trace
        self.gpu_intervals: list[GpuInterval] = []
        self.iterations: list[IterationRecord] = []
        # (worker, iteration) -> gradient log: plain data the cycle
        # collector does not track (untraced).
        self._logs: dict[tuple[int, int], GradientLog] = {}

    # ------------------------------------------------------------------
    # Write side (workers)
    # ------------------------------------------------------------------
    def gpu_busy(
        self, worker: int, iteration: int, kind: str, start: float, end: float
    ) -> None:
        if end > start:
            self.gpu_intervals.append(GpuInterval(worker, iteration, kind, start, end))
            if self.trace.enabled:
                self.trace.complete(
                    kind,
                    "compute",
                    start,
                    end,
                    f"worker{worker}/gpu",
                    {"iteration": iteration},
                )

    def iteration_record(self, worker: int, iteration: int) -> IterationRecord:
        rec = IterationRecord(worker=worker, iteration=iteration)
        self.iterations.append(rec)
        if self.trace.enabled:
            self.trace.instant(
                f"iter {iteration}",
                "iteration",
                self.trace.now(),
                f"worker{worker}/gpu",
                {"worker": worker, "iteration": iteration},
            )
        return rec

    # bench/tracer.py wraps this method by name.
    def iter_field(self, rec: IterationRecord, field: str, t: float) -> None:
        """Set one boundary field (``fwd_start``/``fwd_end``/``bwd_end``)
        on an iteration row; workers route row mutations through here."""
        setattr(rec, field, t)

    # ------------------------------------------------------------------
    # Per-gradient lifecycle marks (the paper's c, t, push end, u)
    # ------------------------------------------------------------------
    def gradient_log(self, worker: int, iteration: int, n_grads: int) -> GradientLog:
        """``worker``'s mark columns for ``iteration``, at least ``n_grads``
        long (a scratch log nobody keeps when gradients are not recorded)."""
        if not self.record_gradients:
            return self._new_log(worker, iteration, n_grads)
        log = self._logs.get((worker, iteration))
        if log is None:
            log = self._new_log(worker, iteration, n_grads)
            self._logs[worker, iteration] = log
        elif len(log[0]) < n_grads:
            pad = array("d", [nan]) * (n_grads - len(log[0]))
            for col in log:
                col.extend(pad)
        return log

    def _new_log(self, worker: int, iteration: int, n_grads: int) -> GradientLog:
        if not self.trace.enabled:
            return tuple(array("d", [nan]) * n_grads for _ in _MARKS)
        return tuple(
            _TracedColumn(self.trace, m, worker, iteration, n_grads) for m in _MARKS
        )

    # The simulator writes its logs in place; these keyed writers serve
    # recorder_from_trace and tests, and bench/tracer.py wraps them by name.
    def mark_ready(self, worker: int, iteration: int, grad: int, t: float) -> None:
        """Gradient flushed by the KV store (the paper's ``c(i)``)."""
        self.gradient_log(worker, iteration, grad + 1)[0][grad] = t

    def mark_push_start(self, worker: int, iteration: int, grad: int, t: float) -> None:
        """First byte entered the channel (the paper's ``t(i)``)."""
        self.gradient_log(worker, iteration, grad + 1)[1][grad] = t

    def mark_push_end(self, worker: int, iteration: int, grad: int, t: float) -> None:
        """Last byte pushed."""
        self.gradient_log(worker, iteration, grad + 1)[2][grad] = t

    def mark_pull_end(self, worker: int, iteration: int, grad: int, t: float) -> None:
        """Updated parameters applied locally (the paper's ``u(i)``)."""
        self.gradient_log(worker, iteration, grad + 1)[3][grad] = t

    # ------------------------------------------------------------------
    # Read side (harnesses)
    # ------------------------------------------------------------------
    def worker_iterations(self, worker: int) -> list[IterationRecord]:
        """Iteration records of one worker, ordered by iteration."""
        return sorted(
            (r for r in self.iterations if r.worker == worker),
            key=lambda r: r.iteration,
        )

    def gradient_records(
        self, worker: int | None = None, iteration: int | None = None
    ) -> list[GradientRecord]:
        """Gradient records filtered by worker and/or iteration, built
        fresh on each call in ``(worker, iteration, grad)`` order.  A
        gradient with no mark in a log has no record."""
        return [
            GradientRecord(w, i, g, *marks)
            for (w, i), log in sorted(self._logs.items())
            if (worker is None or w == worker)
            and (iteration is None or i == iteration)
            for g, marks in enumerate(zip(*log))
            if not all(map(isnan, marks))
        ]

    def gpu_busy_intervals(self, worker: int) -> np.ndarray:
        """(N, 2) array of one worker's busy spans, sorted by start."""
        spans = sorted(
            (iv.start, iv.end) for iv in self.gpu_intervals if iv.worker == worker
        )
        if not spans:
            return np.empty((0, 2))
        return np.asarray(spans, dtype=float)


def _worker_of(track: str) -> int | None:
    """``"worker3/gpu"`` → 3; ``None`` for non-worker tracks."""
    if not track.startswith("worker"):
        return None
    head = track.partition("/")[0][len("worker"):]
    return int(head) if head.isdigit() else None


def recorder_from_trace(events: Iterable[TraceEvent]) -> Recorder:
    """Rebuild the typed timelines from a trace event list.

    The inverse of the recorder's write-through: compute spans become
    :class:`GpuInterval` records, iteration instants (together with the
    compute spans they bracket) become :class:`IterationRecord` rows, and
    per-gradient lifecycle instants repopulate :class:`GradientRecord`
    fields.  Accepts events straight from a live
    :class:`~repro.trace.recorder.TraceRecorder` or re-read from an
    exported Chrome JSON file via
    :func:`repro.trace.export.read_chrome_trace`.
    """
    rec = Recorder(record_gradients=True)
    iter_rows: dict[tuple[int, int], IterationRecord] = {}
    ordered = sorted(events, key=TraceEvent.sort_key)
    for ev in ordered:
        worker = _worker_of(ev.track)
        if worker is None:
            continue
        if ev.ph == SPAN and ev.cat == "compute":
            iteration = int(ev.args["iteration"])
            rec.gpu_busy(worker, iteration, ev.name, ev.ts, ev.end)
            row = iter_rows.get((worker, iteration))
            if row is not None:
                if ev.name == "fwd":
                    row.fwd_end = max(
                        ev.end,
                        row.fwd_end if np.isfinite(row.fwd_end) else -np.inf,
                    )
                elif ev.name == "bwd":
                    row.bwd_end = ev.end
        elif ev.ph == INSTANT and ev.cat == "iteration":
            iteration = int(ev.args["iteration"])
            row = rec.iteration_record(worker, iteration)
            row.fwd_start = ev.ts
            iter_rows[(worker, iteration)] = row
        elif ev.ph == INSTANT and ev.cat == "gradient":
            if ev.name in _MARKS:
                getattr(rec, f"mark_{ev.name}")(
                    worker, int(ev.args["iteration"]), int(ev.args["grad"]), ev.ts
                )
    return rec
