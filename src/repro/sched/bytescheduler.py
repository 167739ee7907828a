"""ByteScheduler (Peng et al., SOSP 2019): credit-based priority scheduling.

ByteScheduler slices gradients into partitions (like P3) and regulates the
channel with a *credit*: a byte budget of **outstanding** work — partitions
whose push has been sent but whose updated parameters have not yet
returned from the PS.  Sends are batches of the highest-priority ready
partitions up to the unconsumed credit; each returning pull replenishes
it.  The credit therefore arbitrates a genuine trade-off:

* small credit → fine preemption, but the pipeline stalls whenever the
  push→aggregate→pull feedback loop is slower than generation (the
  low-bandwidth regime), and per-message overhead grows;
* large credit → deep pipeline, but a freshly generated high-priority
  gradient waits behind up to a credit's worth of in-flight bytes.

Because the credit is a *fixed* byte value, no single setting suits all
bandwidths — the gap Prophet's interval-derived blocks close (paper
Sec. 3, "the fixed and auto-tuned hyperparameters of ByteScheduler are not
designed to minimize Σ(u(i) − p(i−1))⁺").

Two operating modes, matching the paper's usage:

* **fixed credit** (``auto_tune=False``) — the paper's main baselines run
  BytePS "with a default credit size" because auto-tuning degrades the
  first ~1,000 iterations;
* **Bayesian auto-tuning** (``auto_tune=True``) — every ``tune_every``
  iterations the measured iteration time is reported to a
  :class:`~repro.bayesopt.BayesianOptimizer` and a new credit is adopted,
  reproducing the 3→13 MB excursions and rate fluctuation of Fig. 3(b).
"""

from __future__ import annotations

import numpy as np

from repro.agg.kvstore import GenerationSchedule
from repro.bayesopt import BayesianOptimizer
from repro.errors import ConfigurationError
from repro.quantities import MB
from repro.sched.base import CommScheduler, Segment, TransferUnit

__all__ = ["ByteSchedulerScheduler"]

#: The auto-tuner's credit search space, which brackets the 3-13 MB
#: excursions of the paper's Fig. 3(b).
CREDIT_BOUNDS = (1 * MB, 16 * MB)


class ByteSchedulerScheduler(CommScheduler):
    """Credit-sized batches of priority-ordered partitions."""

    name = "bytescheduler"

    def __init__(
        self,
        credit: float = 12 * MB,
        partition_size: float = 4 * MB,
        auto_tune: bool = False,
        tune_every: int = 5,
        rng: np.random.Generator | None = None,
    ):
        if credit <= 0:
            raise ConfigurationError(f"credit must be positive, got {credit}")
        if partition_size <= 0:
            raise ConfigurationError(
                f"partition_size must be positive, got {partition_size}"
            )
        if tune_every < 1:
            raise ConfigurationError(f"tune_every must be >= 1, got {tune_every}")
        super().__init__()
        self.credit = float(credit)
        self.partition_size = float(partition_size)
        self.auto_tune = auto_tune
        self.tune_every = tune_every
        self._optimizer: BayesianOptimizer | None = None
        if auto_tune:
            self._optimizer = BayesianOptimizer(*CREDIT_BOUNDS, rng=rng)
            self.credit = self._optimizer.suggest()
        self._window_times: list[float] = []
        self._outstanding = 0.0
        self._probe_allowance = 0.0
        #: (iteration, credit) history — drives the Fig. 3(b) reproduction.
        self.credit_history: list[tuple[int, float]] = []

    # ------------------------------------------------------------------
    def begin_iteration(
        self, iteration: int, schedule: GenerationSchedule, now: float
    ) -> None:
        super().begin_iteration(iteration, schedule, now)
        self._outstanding = 0.0
        self._probe_allowance = 0.0
        self.credit_history.append((iteration, self.credit))

    def _select(self, now: float) -> TransferUnit | None:
        # The unconsumed credit bounds this send; zero credit stalls the
        # push stream until pulls replenish it (flow control).  Stall
        # probes granted by the worker temporarily extend the window.
        budget = self.credit + self._probe_allowance - self._outstanding
        if budget <= 0:
            return None
        # Batch the most urgent ready bytes, walking gradients in priority
        # order.  Partitions are the scheduling atoms: a gradient tail
        # shorter than a partition still forms one atom, and the batch is
        # cut at the credit boundary.
        segments: list[Segment] = []
        for grad in self.ready_grads:
            if budget <= 0:
                break
            remaining = self.remaining_bytes(grad)
            take = min(remaining, budget)
            # Quantize up to whole partitions where the budget allows, so a
            # nearly-exhausted credit doesn't emit sub-partition slivers.
            if take < remaining:
                atoms = max(1, int(take // self.partition_size))
                take = min(remaining, atoms * self.partition_size)
            offset = self.size_of(grad) - remaining
            segments.append(Segment(grad=grad, offset=offset, nbytes=take))
            budget -= take
        if not segments:
            return None
        return TransferUnit(segments=tuple(segments))

    def pull_batch_limit(self, now: float) -> float | None:
        return self.credit

    def _committed(self, unit: TransferUnit, now: float) -> None:
        self._outstanding += unit.total_bytes

    def pull_completed(self, grad: int, nbytes: float, now: float) -> None:
        self._outstanding = max(0.0, self._outstanding - nbytes)
        self._probe_allowance = 0.0  # feedback restored

    def grant_probe(self, now: float) -> None:
        self._probe_allowance += self.partition_size

    def describe_unit(self, unit: TransferUnit) -> dict[str, object]:
        desc = super().describe_unit(unit)
        # Window state at commit time: how much of the credit this batch
        # consumes explains both deep-pipeline wins and preemption stalls.
        desc["credit_bytes"] = self.credit
        desc["outstanding_bytes"] = self._outstanding
        desc["auto_tune"] = self.auto_tune
        return desc

    # ------------------------------------------------------------------
    def end_iteration(self, iteration: int, iteration_time: float, now: float) -> None:
        if self._optimizer is None:
            return
        self._window_times.append(iteration_time)
        if len(self._window_times) < self.tune_every:
            return
        objective = float(np.mean(self._window_times))
        self._window_times.clear()
        self._optimizer.observe(self.credit, objective)
        self.credit = self._optimizer.suggest()
