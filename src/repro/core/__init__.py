"""Prophet's core: profiling, block intervals, Algorithm 1, Eq. (1)-(5).

This package is the paper's primary contribution, framework-independent:

* :mod:`repro.core.profiler` — the Training Job Profiler: observes
  per-gradient generation times over the first K iterations and distills
  the stepwise profile Algorithm 1 consumes.
* :mod:`repro.core.intervals` — the block time intervals ``A(i)``.
* :mod:`repro.core.blocks` — gradient blocks and the Prophet plan.
* :mod:`repro.core.algorithm` — Algorithm 1: the offline planner mapping
  (c, s, B) to gradient-transfer start times.
* :mod:`repro.core.perf_model` — the DDNN training performance model of
  Sec. 3 (Eqs. (1)-(5)) and the feasibility checks for Constraints
  (7)-(9), (11).

The *online* scheduler that runs inside the simulated worker and re-plans
against live bandwidth lives in :mod:`repro.sched.prophet_sched`; it is a
faithful event-driven restatement of the planner here.
"""

from repro.core.profiler import JobProfile, JobProfiler
from repro.core.intervals import block_intervals
from repro.core.blocks import GradientBlock, PlannedTransfer, ProphetPlan
from repro.core.algorithm import plan_schedule
from repro.core.perf_model import (
    PerfModelInputs,
    evaluate_schedule,
    wait_time,
    check_constraints,
    per_gradient_fwd_times,
)

__all__ = [
    "JobProfile",
    "JobProfiler",
    "block_intervals",
    "GradientBlock",
    "PlannedTransfer",
    "ProphetPlan",
    "plan_schedule",
    "PerfModelInputs",
    "evaluate_schedule",
    "wait_time",
    "check_constraints",
    "per_gradient_fwd_times",
]
