"""repro — reproduction of *Prophet: Speeding up Distributed DNN Training
with Predictable Communication Scheduling* (ICPP 2021).

The package builds, from scratch, every system the paper depends on:

* a discrete-event simulator of PS-architecture DDNN training
  (:mod:`repro.sim`, :mod:`repro.cluster`),
* a TCP-level network model realizing the paper's ``f(s, B)``
  (:mod:`repro.net`),
* a layer-accurate DNN model zoo (:mod:`repro.models`),
* the KV-store aggregation that creates the stepwise pattern
  (:mod:`repro.agg`),
* the four schedulers under comparison — default MXNet FIFO, P3,
  ByteScheduler (with Bayesian credit tuning, :mod:`repro.bayesopt`) and
  Prophet (:mod:`repro.sched`),
* Prophet's profile/plan core and the Sec. 3 performance model
  (:mod:`repro.core`),
* measurement and reporting (:mod:`repro.metrics`), and
* per-figure/table experiment runners (:mod:`repro.experiments`).

Quickstart
----------
>>> from repro import TrainingConfig, run_training, prophet_factory
>>> from repro.quantities import Gbps
>>> config = TrainingConfig(model="resnet50", batch_size=64,
...                         bandwidth=3 * Gbps, n_iterations=10)
>>> result = run_training(config, prophet_factory())
>>> rate = result.training_rate()           # samples/sec per worker
"""

from repro.config import TrainingConfig, WorkerContext, SchedulerFactory
from repro.cluster import Trainer, run_training, TrainingResult
from repro.core import JobProfile, JobProfiler, plan_schedule
from repro.faults import (
    FaultPlan,
    WorkerCrash,
    LinkFlap,
    MessageDrops,
    PSStall,
)
from repro.errors import (
    ReproError,
    ConfigurationError,
    SchedulingError,
    SimulationError,
    ProfileError,
)
from repro.sched import (
    CommScheduler,
    FIFOScheduler,
    P3Scheduler,
    ByteSchedulerScheduler,
    ProphetScheduler,
)
from repro.workloads.presets import (
    fifo_factory,
    p3_factory,
    bytescheduler_factory,
    prophet_factory,
    mgwfbp_factory,
    paper_config,
    STRATEGY_FACTORIES,
    EXTENDED_FACTORIES,
)

__version__ = "1.0.0"

# Imported after __version__ is bound: the runner's fingerprint/cache
# modules read ``repro.__version__`` (lazily, but keeping the ordering
# explicit avoids ever exposing a partially-initialized package).
from repro.runner import (  # noqa: E402
    RunSpec,
    RunResult,
    run_grid,
    ResultCache,
)

__all__ = [
    "RunSpec",
    "RunResult",
    "run_grid",
    "ResultCache",
    "TrainingConfig",
    "WorkerContext",
    "SchedulerFactory",
    "FaultPlan",
    "WorkerCrash",
    "LinkFlap",
    "MessageDrops",
    "PSStall",
    "Trainer",
    "run_training",
    "TrainingResult",
    "JobProfile",
    "JobProfiler",
    "plan_schedule",
    "CommScheduler",
    "FIFOScheduler",
    "P3Scheduler",
    "ByteSchedulerScheduler",
    "ProphetScheduler",
    "fifo_factory",
    "p3_factory",
    "bytescheduler_factory",
    "prophet_factory",
    "mgwfbp_factory",
    "paper_config",
    "STRATEGY_FACTORIES",
    "EXTENDED_FACTORIES",
    "ReproError",
    "ConfigurationError",
    "SchedulingError",
    "SimulationError",
    "ProfileError",
    "__version__",
]
