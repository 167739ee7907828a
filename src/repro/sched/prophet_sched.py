"""Prophet's online scheduler — Algorithm 1 driven by live profile/monitor.

This is the event-driven counterpart of the offline planner in
:mod:`repro.core.algorithm`, matching the prototype architecture of the
paper's Fig. 7:

* the **Training Job Profiler** (:class:`~repro.core.profiler.JobProfiler`)
  records per-gradient generation times during the first
  ``profile_iterations`` iterations (the paper uses 50); until the profile
  is ready the scheduler falls back to default FIFO behaviour — which is
  why Fig. 13 shows Prophet's GPU utilization slightly *below*
  ByteScheduler's in the first seconds of training;
* the **Network Bandwidth Monitor** is injected as ``bandwidth_provider``
  (wired by the trainer to a :class:`~repro.net.monitor.BandwidthMonitor`
  sampling every 5 s);
* the **Gradient Block Assembler** runs at every scheduling decision
  during backward propagation: it packs the highest-priority ready
  gradients into one block as long as the block — with its single
  message-setup cost — is predicted to finish before the next
  higher-priority generation event (Constraint 11).  If not even the most
  urgent gradient fits, the link is left deliberately idle so the imminent
  gradients are not blocked;
* gradient 0 is pushed alone the instant it is generated (line 17), and
  the remaining gradients drain in strict priority order during forward
  propagation, batched into blocks of at most
  :data:`~repro.core.algorithm.FORWARD_BLOCK_BYTES`.

A pre-built :class:`~repro.core.profiler.JobProfile` may be supplied to
skip warmup (the "oracle profile", equivalent to a converged profiling
run) — the fast benchmark presets use this.

**Graceful degradation.**  A stepwise plan is only as good as its inputs,
and both can rot mid-run: the profiled ``c(i)`` goes stale when compute
pacing shifts (straggler onset, thermal throttling), and the monitored
bandwidth can collapse under a link fault, making every interval budget
infeasible.  The scheduler therefore watches its own assumptions: each
planned iteration compares observed generation times against the profile
(size-weighted mean relative drift) and each iteration start compares the
monitored bandwidth against the best recently seen.  When drift exceeds
:data:`STALE_TOLERANCE` for :data:`STALE_PATIENCE` consecutive iterations,
or bandwidth falls below :data:`COLLAPSE_FACTOR` of the reference, the
scheduler *falls back* instead of emitting an infeasible plan: it discards
the profile and re-enters the warmup-FIFO path until a fresh profile
converges.  Every detection fires the ``notify`` hook (wired by the
factory to a ``fault``-category trace instant) and increments the public
counters.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.agg.kvstore import GenerationSchedule
from repro.core.algorithm import FORWARD_BLOCK_BYTES
from repro.core.profiler import JobProfile, JobProfiler
from repro.errors import ConfigurationError
from repro.net.tcp import TCPParams
from repro.quantities import MB
from repro.sched.base import CommScheduler, Segment, TransferUnit

__all__ = ["ProphetScheduler"]

#: Pull-response coalescing limit in the forward drain (the backward
#: budget may allow up to four times it): BytePS's 4 MB partition size.
PULL_BATCH_BYTES = 4 * MB
#: Floor on a gradient's expected time in the drift base, so a gradient
#: profiled at ``c = 0`` still weighs: the 1 us same-block tolerance of
#: :func:`~repro.agg.stepwise.detect_blocks`.
DRIFT_EPS = 1e-6
#: Size-weighted relative drift beyond which an iteration is off-plan
#: (calibration: far above the 2% default compute jitter, so only a real
#: pacing shift trips it).
STALE_TOLERANCE = 0.5
#: Consecutive off-plan iterations before the profile is declared stale
#: (calibration: one jittery iteration is not a trend).
STALE_PATIENCE = 2
#: A monitored bandwidth below this fraction of the best seen is a
#: collapse (calibration: a 10x drop leaves no interval budget feasible).
COLLAPSE_FACTOR = 0.1


class ProphetScheduler(CommScheduler):
    """Predictable gradient-block scheduling (the paper's contribution)."""

    name = "prophet"

    def __init__(
        self,
        bandwidth_provider: Callable[[], float],
        profile: JobProfile | None = None,
        profile_iterations: int = 50,
        tcp: TCPParams | None = None,
        round_trip_factor: float = 1.0,
        slice_bytes: float = 1 * MB,
        notify: Callable[[str, dict], None] | None = None,
    ):
        if round_trip_factor < 1:
            raise ConfigurationError(
                f"round_trip_factor must be >= 1, got {round_trip_factor}"
            )
        super().__init__()
        #: Budget multiplier for block packing.  1.0 is Algorithm 1 as
        #: written (the interval constrains the one-way push time E(i));
        #: 2.0 additionally reserves channel time for the block's mirrored
        #: pull (an ablation — it protects preemption latency at the cost
        #: of deliberate idling, which measurement shows is a net loss).
        self.round_trip_factor = float(round_trip_factor)
        if slice_bytes <= 0:
            raise ConfigurationError(f"slice_bytes must be positive, got {slice_bytes}")
        #: Slicing granularity when a whole gradient does not fit the
        #: remaining interval (the paper's Fig. 5: "only two partitions of
        #: gradient 1 can be transmitted before gradient 0 is generated").
        self.slice_bytes = float(slice_bytes)
        self._bandwidth_provider = bandwidth_provider
        self._profile = profile
        self.profile_iterations = profile_iterations
        self._tcp = tcp if tcp is not None else TCPParams()
        self._profiler: JobProfiler | None = None
        self._backward_start = 0.0
        # Derived per-profile / per-iteration boundary state (see
        # ``_boundary``): ``_c_order`` sorts gradient indices by predicted
        # generation time; ``_c_ptr`` advances monotonically past
        # signalled gradients, so the next-generation boundary is an O(1)
        # amortized lookup instead of a per-call masked-numpy min.
        self._c_src: JobProfile | None = None
        self._c_list: list[float] = []
        self._c_order: list[int] = []
        self._c_abs: list[float] = []
        self._c_ptr = 0
        #: Number of iterations scheduled with the profile active (stats).
        self.planned_iterations = 0

        # Degradation state (see the module docstring).
        self._notify = notify
        self._stale_streak = 0
        self._drift_err = 0.0
        self._drift_base = 0.0
        self._reference_bandwidth = 0.0
        #: Stale-profile detections (drift beyond tolerance, patience met).
        self.stale_detections = 0
        #: Bandwidth-collapse detections.
        self.collapse_detections = 0
        #: Times the scheduler abandoned its plan and re-entered profiling
        #: (either detection kind).
        self.fallbacks = 0

    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        """Whether the stepwise profile is available (warmup finished)."""
        return self._profile is not None

    @property
    def profile(self) -> JobProfile | None:
        return self._profile

    @property
    def degraded(self) -> bool:
        """Whether the scheduler has abandoned at least one plan."""
        return self.fallbacks > 0

    # ------------------------------------------------------------------
    def begin_iteration(
        self, iteration: int, schedule: GenerationSchedule, now: float
    ) -> None:
        super().begin_iteration(iteration, schedule, now)
        self._backward_start = now
        self._drift_err = 0.0
        self._drift_base = 0.0
        bandwidth = self._bandwidth_provider()
        self._reference_bandwidth = max(self._reference_bandwidth, bandwidth)
        if (
            self._profile is not None
            and bandwidth < COLLAPSE_FACTOR * self._reference_bandwidth
        ):
            self._degrade(
                "bandwidth-collapse",
                {
                    "bandwidth": bandwidth,
                    "reference": self._reference_bandwidth,
                    "iteration": iteration,
                },
            )
        if self._profiler is None and self._profile is None:
            self._profiler = JobProfiler(
                sizes=schedule.sizes, min_iterations=self.profile_iterations
            )
        if self._profile is not None:
            self.planned_iterations += 1
            if self._c_src is not self._profile:
                self._c_src = self._profile
                self._c_list = self._profile.c.tolist()
                self._c_order = sorted(
                    range(len(self._c_list)), key=self._c_list.__getitem__
                )
            self._c_abs = [self._backward_start + c for c in self._c_list]
            self._c_ptr = 0

    def _boundary(self, now: float) -> float:
        """Absolute time of the next predicted generation among gradients
        not yet signalled (``max(min c(i), now)``, ``inf`` if none pending).

        Gradients only ever *become* signalled within an iteration, so a
        pointer over the c-sorted order advances monotonically and the
        masked min is the first unsignalled entry — no numpy temporaries.
        """
        signalled = self._signalled
        order = self._c_order
        ptr = self._c_ptr
        n = len(order)
        while ptr < n and signalled[order[ptr]]:
            ptr += 1
        self._c_ptr = ptr
        if ptr == n:
            return math.inf
        b = self._c_abs[order[ptr]]
        return b if b > now else now

    def gradient_ready(self, grad: int, now: float) -> None:
        super().gradient_ready(grad, now)
        if self._profiler is not None and self._profile is None:
            self._profiler.observe(grad, max(0.0, now - self._backward_start))
        elif self._profile is not None:
            # Plan-vs-reality drift: accumulate |observed - c(i)| weighted
            # against the profile's own timescale.
            expected = float(self._profile.c[grad])
            observed = max(0.0, now - self._backward_start)
            self._drift_err += abs(observed - expected)
            self._drift_base += max(expected, DRIFT_EPS)

    def end_iteration(self, iteration: int, iteration_time: float, now: float) -> None:
        if self._profile is not None and self._drift_base > 0:
            drift = self._drift_err / self._drift_base
            if drift > STALE_TOLERANCE:
                self._stale_streak += 1
                if self._stale_streak >= STALE_PATIENCE:
                    self._degrade(
                        "stale-profile", {"drift": drift, "iteration": iteration}
                    )
            else:
                self._stale_streak = 0
        if self._profiler is not None and self._profile is None:
            self._profiler.end_iteration()
            if self._profiler.ready:
                self._profile = self._profiler.build()

    def _degrade(self, reason: str, detail: dict) -> None:
        """Abandon the current plan and re-profile."""
        if reason == "stale-profile":
            self.stale_detections += 1
        else:
            self.collapse_detections += 1
        self.fallbacks += 1
        self._stale_streak = 0
        self._profile = None
        self._profiler = None
        if self._notify is not None:
            self._notify("prophet.fallback", {"reason": reason, **detail})

    def pull_batch_limit(self, now: float) -> float | None:
        """Interval-aware pull batching.

        During backward propagation a pull response occupies the channel
        just like a push would, so its batch is sized to the remaining
        stepwise budget (at least one slice — a response cannot shrink
        below the data it already carries).  During the forward drain,
        batches are capped at :data:`PULL_BATCH_BYTES` so parameters
        stream back smoothly to the layer-by-layer forward gate.
        """
        if self._profile is None or not self._signalled or self._signalled[0]:
            return PULL_BATCH_BYTES
        boundary = self._boundary(now)
        if boundary == math.inf:
            return PULL_BATCH_BYTES
        budget = boundary - now
        line_rate = self._bandwidth_provider() * self._tcp.goodput
        setup = self._tcp.fixed_overhead + self._tcp.handshake_rtts * self._tcp.rtt
        allowance = (budget - setup) * line_rate
        return max(self.slice_bytes, min(PULL_BATCH_BYTES * 4, allowance))

    # ------------------------------------------------------------------
    def _select(self, now: float) -> TransferUnit | None:
        if self._profile is None:
            return self._select_fallback()
        ready = self.ready_grads
        if not ready:
            return None

        # Line 17: gradient 0 travels alone, the instant it is ready.
        if ready[0] == 0:
            return TransferUnit(segments=(self._segment_for(0, math.inf),))

        if self._signalled[0]:
            # Forward phase (gradient 0 already generated): drain by
            # priority in bounded blocks (Constraint 9).
            segments: list[Segment] = []
            nbytes = 0.0
            for q in ready:
                rem = self.remaining_bytes(q)
                if segments and nbytes + rem > FORWARD_BLOCK_BYTES:
                    break
                segments.append(self._segment_for(q, rem))
                nbytes += rem
            return TransferUnit(segments=tuple(segments))

        # Backward phase: block assembly against the predicted boundary.
        # budget is inf when nothing is pending (boundary == inf) and
        # >= 0 otherwise (the boundary is clamped to now).
        boundary = self._boundary(now)
        budget = boundary - now
        bandwidth = self._bandwidth_provider()
        # The warm path is affine in bytes (setup + bytes/line-rate), so
        # the interval budget inverts exactly to a byte allowance for the
        # whole block (round trip: push and its mirrored pull both fit).
        line_rate = bandwidth * self._tcp.goodput
        setup = self._tcp.fixed_overhead + self._tcp.handshake_rtts * self._tcp.rtt
        allowance = (budget / self.round_trip_factor - setup) * line_rate
        if allowance <= 0:
            return None  # protect the imminent higher-priority gradients
        segments = []
        nbytes = 0.0
        for q in ready:
            rem = self.remaining_bytes(q)
            if nbytes + rem <= allowance:
                segments.append(self._segment_for(q, rem))
                nbytes += rem
                continue
            # Partial fill: slice the first non-fitting gradient so the
            # residual interval is not wasted (Fig. 5's "two partitions of
            # gradient 1"), then stop — no lower-priority bytes may pass.
            slices = int((allowance - nbytes) // self.slice_bytes)
            take = min(rem, slices * self.slice_bytes)
            if take > 0:
                segments.append(self._segment_for(q, take))
            break
        if not segments:
            return None
        return TransferUnit(segments=tuple(segments))

    def _select_fallback(self) -> TransferUnit:
        """Warmup behaviour: default FIFO whole-tensor transmission."""
        return TransferUnit(segments=(self._segment_for(self.oldest_ready, math.inf),))

    def describe_unit(self, unit: TransferUnit) -> dict[str, object]:
        """Label each block with the Algorithm-1 phase that assembled it."""
        desc = super().describe_unit(unit)
        if self._profile is None:
            phase = "warmup-fifo"
        elif unit.grads == (0,):
            phase = "gradient0"  # line 17: pushed alone, immediately
        elif self._signalled[0]:
            phase = "forward-drain"
        else:
            phase = "backward-block"
        desc["phase"] = phase
        desc["planned"] = self._profile is not None
        return desc
