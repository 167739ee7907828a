"""Outside-in per-layer attribution of host time.

:class:`Tracer` patches wrappers onto the simulator's cross-layer entry
points from outside the package -- nothing under ``src/`` knows it
exists -- and removes them again on :meth:`Tracer.uninstall`:

* **Engine callbacks.**  ``Engine.schedule``/``schedule_after`` wrap each
  callback in a timer.  A callback belongs to its owner's layer: the
  module of a bound method's class, else the function's ``__module__``.
* **Public cross-layer calls** (:data:`SPANS`) are wrapped directly:
  scheduler methods, PS push delivery, link sends, TCP transfer times,
  collective executors and controller, recorder writes, fleet scheduler
  and fabric, fault injector, trainer construction/run/finalize, the
  runner and its result cache.

Every wrapper is a span.  A span's *self time* is its duration minus the
durations of the spans directly inside it, so the self times of all
layers add up to the traced wall time less whatever ran outside every
span (``trace.coverage`` reports the covered share).  Counts are taken
at the same boundaries.  Spans can also be kept in memory (up to a cap)
and written as Chrome-trace JSON.

The wrappers call the original with the same arguments and return its
result, so a traced run's simulated outputs are bit-identical to an
untraced one; only the identity of the callables the engine queues
changes (steady-state fast-forward inspects those, and it is off in
every workload because none sets ``time_quantum``).
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from types import ModuleType
from typing import Any, Callable

#: The layers, named after the package's modules.
LAYERS = (
    "sim.engine",
    "sim.fastforward",
    "net.tcp",
    "net.link",
    "net.topology",
    "net.collective",
    "net.monitor",
    "sched",
    "agg",
    "cluster.worker",
    "cluster.sharded",
    "cluster.collective",
    "cluster.ps",
    "cluster.trainer",
    "models",
    "fleet",
    "faults",
    "metrics",
    "runner",
)

#: Module prefix -> layer, for engine callbacks (longest prefix wins).
MODULE_LAYERS = {
    "repro.sim": "sim.engine",
    "repro.sim.fastforward": "sim.fastforward",
    "repro.net.tcp": "net.tcp",
    "repro.net.link": "net.link",
    "repro.net.transport": "net.link",
    "repro.net.topology": "net.topology",
    "repro.net.collective": "net.collective",
    "repro.net.monitor": "net.monitor",
    "repro.sched": "sched",
    "repro.core": "sched",
    "repro.bayesopt": "sched",
    "repro.workloads": "sched",
    "repro.agg": "agg",
    "repro.cluster": "cluster.trainer",
    "repro.cluster.worker": "cluster.worker",
    "repro.cluster.messages": "cluster.worker",
    "repro.cluster.sharded": "cluster.sharded",
    "repro.cluster.sharding": "cluster.sharded",
    "repro.cluster.collective": "cluster.collective",
    "repro.cluster.ps": "cluster.ps",
    "repro.models": "models",
    "repro.fleet": "fleet",
    "repro.faults": "faults",
    "repro.metrics": "metrics",
    "repro.trace": "metrics",
}
#: Layer of callbacks from any other module (the benchmark's own glue).
DEFAULT_LAYER = "runner"

_SCHEDULERS = (
    ("repro.sched.base", "CommScheduler"),
    ("repro.sched.fifo", "FIFOScheduler"),
    ("repro.sched.p3", "P3Scheduler"),
    ("repro.sched.bytescheduler", "ByteSchedulerScheduler"),
    ("repro.sched.prophet_sched", "ProphetScheduler"),
    ("repro.sched.mgwfbp", "MGWFBPScheduler"),
)
_SCHED_METHODS = (
    "__init__",
    "gradient_ready",
    "propose_unit",
    "commit_unit",
    "unit_sent",
    "pull_completed",
    "begin_iteration",
    "end_iteration",
)


def _methods(module: str, cls: str, layer: str, names) -> tuple:
    return tuple((module, f"{cls}.{name}", layer) for name in names)


#: (module, attribute path, layer) of every directly wrapped call.  A
#: method is patched on the class that defines it (a subclass that only
#: inherits it is covered by that), a function at the import site named.
#: Targets the package no longer has are skipped and listed in
#: :attr:`Tracer.missing`, so the benchmark survives refactors.
SPANS: tuple[tuple[str, str, str], ...] = (
    *_methods("repro.sim.engine", "Engine", "sim.engine", ("run", "schedule", "schedule_after")),
    ("repro.sim.engine", "Event.cancel", "sim.engine"),
    ("repro.cluster.trainer", "fastforward_eligibility", "sim.fastforward"),
    ("repro.net.tcp", "_SlowStartTable.transfer_time", "net.tcp"),
    ("repro.net.link", "_slow_start_table", "net.tcp"),
    ("repro.net.link", "transfer_time", "net.tcp"),
    ("repro.agg.fusion", "transfer_time", "net.tcp"),
    ("repro.core.algorithm", "transfer_time", "net.tcp"),
    ("repro.net.link", "Link.send", "net.link"),
    ("repro.net.link", "send_batch", "net.link"),
    ("repro.net.collective", "send_batch", "net.link"),
    ("repro.net.topology", "StarTopology.__init__", "net.topology"),
    ("repro.net.topology", "ShardedTopology.__init__", "net.topology"),
    *_methods("repro.net.topology", "ClusterFabric", "net.topology", ("admit", "release")),
    ("repro.net.collective", "RingTopology.__init__", "net.collective"),
    ("repro.net.collective", "HierarchicalTopology.__init__", "net.collective"),
    ("repro.net.collective", "_StepExecutor.send_unit", "net.collective"),
    ("repro.net.monitor", "BandwidthMonitor.__init__", "net.monitor"),
    *(
        span
        for module, cls in _SCHEDULERS
        for span in _methods(module, cls, "sched", _SCHED_METHODS)
    ),
    ("repro.agg.kvstore", "KVStore.generation_schedule", "agg"),
    *_methods(
        "repro.cluster.collective",
        "CollectiveController",
        "cluster.collective",
        (
            "attach_workers",
            "worker_begin_iteration",
            "worker_end_iteration",
            "worker_gradient_ready",
            "worker_crashed",
            "pump",
        ),
    ),
    *_methods("repro.cluster.ps", "ParameterServer", "cluster.ps", ("deliver_push", "receive_push")),
    *_methods("repro.cluster.trainer", "Trainer", "cluster.trainer", ("__init__", "run", "finalize")),
    ("repro.cluster.trainer", "get_model", "models"),
    ("repro.cluster.trainer", "build_compute_profile", "models"),
    *_methods("repro.fleet.scheduler", "FleetScheduler", "fleet", ("submit", "tick", "job_finished")),
    *_methods("repro.fleet.simulator", "FleetSimulator", "fleet", ("__init__", "run")),
    ("repro.fleet.simulator", "build_fleet_jobs", "fleet"),
    *_methods(
        "repro.faults.injector",
        "FaultInjector",
        "faults",
        ("__init__", "install", "roll_drop", "ps_release_delay", "count", "record"),
    ),
    *_methods(
        "repro.metrics.timeline",
        "Recorder",
        "metrics",
        (
            "gpu_busy",
            "iteration_record",
            "iter_field",
            "mark_ready",
            "mark_push_start",
            "mark_push_end",
            "mark_pull_end",
        ),
    ),
    *_methods(
        "repro.cluster.result",
        "TrainingResult",
        "metrics",
        ("training_rate", "per_worker_rate", "iteration_spans"),
    ),
    ("repro.fleet.spec", "FleetResult.summary", "metrics"),
    ("repro.runner", "run_grid", "runner"),
    ("repro.runner.executor", "execute", "runner"),
    *_methods("repro.runner.cache", "ResultCache", "runner", ("get", "put")),
)

#: The result-cache calls alone (the cold/warm cache passes time these).
CACHE_SPANS = tuple(s for s in SPANS if s[1].startswith("ResultCache."))

#: Per-layer metrics beyond ``<layer>.self_s`` and ``<layer>.calls``:
#: name -> (unit, better).
EXTRA_METRICS = {
    "sim.engine.events": ("count", "lower"),
    "sim.engine.cancelled_share": ("ratio", "lower"),
    "net.link.messages": ("count", "lower"),
    "net.link.bytes": ("bytes", "lower"),
    "cluster.ps.us_per_push": ("us", "lower"),
    "sched.useful_propose_share": ("ratio", "higher"),
    "net.collective.steps": ("count", "lower"),
    "faults.retries": ("count", "lower"),
    "faults.drops": ("count", "lower"),
    "fleet.ticks": ("count", "lower"),
    "net.topology.relevels": ("count", "lower"),
    "sim.fastforward.iterations_skipped": ("count", "higher"),
}


def layer_metric_names() -> dict[str, tuple[str, str]]:
    """Every metric :meth:`Tracer.metrics` emits: name -> (unit, better)."""
    names: dict[str, tuple[str, str]] = {}
    for layer in LAYERS:
        names[f"{layer}.self_s"] = ("s", "lower")
        names[f"{layer}.calls"] = ("count", "lower")
    names.update(EXTRA_METRICS)
    return names


def _resolve(module: str, path: str) -> tuple[Any, str, Any] | None | bool:
    """``(owner, attribute, current value)`` of a target; False when a
    class only inherits the method (its base's patch covers it); None
    when the target does not exist."""
    try:
        owner: Any = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = owner.__dict__.get(attr)
    if callable(value):
        return owner, attr, value
    return False if callable(getattr(owner, attr, None)) else None


class Tracer:
    """Per-layer self time and counts over the region it is installed for.

    ``spans`` selects what :meth:`install` patches; engine callbacks are
    timed when it includes ``Engine.schedule``/``schedule_after``.
    ``keep_spans`` caps how many spans are recorded for
    :meth:`write_chrome_trace` (0 records none).  ``clock`` is injectable
    for tests.
    """

    def __init__(
        self,
        spans: tuple[tuple[str, str, str], ...] = SPANS,
        keep_spans: int = 0,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self._targets = spans
        self._keep = keep_spans
        self._clock = clock
        self._layer_index = {layer: i for i, layer in enumerate(LAYERS)}
        self.self_s = [0.0] * len(LAYERS)
        self.calls = [0] * len(LAYERS)
        #: Span name -> [calls, inclusive seconds].
        self.by_name: dict[str, list] = {}
        self.counts = dict.fromkeys(
            ("events", "scheduled", "messages", "bytes", "proposed", "useful",
             "steps", "retries", "drops", "ff_skipped"),
            0,
        )
        #: Recorded spans: [name, layer, start, end, parent index or -1].
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[float] = []
        self._open: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self._callback_info: dict[Any, tuple[int, str, list]] = {}
        self._proposals: dict[int, Any] = {}

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _span(self, fn, li: int, name: str, stat: list, hook=None, event=False):
        stack, self_s, calls, clock = self._stack, self.self_s, self.calls, self._clock
        keep, spans, open_, counts = self._keep, self.spans, self._open, self.counts
        layer = LAYERS[li]

        def span(*args, **kwargs):
            if event:
                counts["events"] += 1
            if keep:
                sid = len(spans)
                if sid < keep:
                    spans.append([name, layer, 0.0, None, open_[-1] if open_ else -1])
                else:
                    sid = -1
                open_.append(sid)
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                d = t1 - t0
                self_s[li] += d - stack.pop()
                calls[li] += 1
                stat[0] += 1
                stat[1] += d
                if stack:
                    stack[-1] += d
                if keep:
                    sid = open_.pop()
                    if sid >= 0:
                        spans[sid][2] = t0
                        spans[sid][3] = t1
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return span

    def wrap(self, fn: Callable, layer: str, name: str, hook=None) -> Callable:
        """``fn`` timed as a span of ``layer`` named ``name``;
        ``hook(args, kwargs, result)`` runs after a normal return."""
        stat = self.by_name.setdefault(name, [0, 0.0])
        span = self._span(fn, self._layer_index[layer], name, stat, hook)
        return functools.wraps(fn)(span)

    def callback_layer(self, fn: Callable) -> str:
        """The layer an engine callback belongs to (see module docstring)."""
        return LAYERS[self._callback(fn)[0]]

    def _callback(self, fn: Callable) -> tuple[int, str, list]:
        while isinstance(fn, functools.partial):
            fn = fn.func
        owner = getattr(fn, "__self__", None)
        bound = owner is not None and not isinstance(owner, ModuleType)
        # Keys are shared by every callable of one definition (closures
        # share a code object), so the cache stays as small as the code.
        if bound:
            key = (type(owner), getattr(fn, "__func__", None) or fn.__name__)
        else:
            key = getattr(fn, "__code__", None) or fn
        info = self._callback_info.get(key)
        if info is None:
            module = type(owner).__module__ if bound else getattr(fn, "__module__", "") or ""
            layer, best = DEFAULT_LAYER, -1
            for prefix, candidate in MODULE_LAYERS.items():
                matches = module == prefix or module.startswith(prefix + ".")
                if matches and len(prefix) > best:
                    layer, best = candidate, len(prefix)
            name = "callback " + (getattr(fn, "__qualname__", None) or repr(fn))
            stat = self.by_name.setdefault(name, [0, 0.0])
            info = self._callback_info[key] = (self._layer_index[layer], name, stat)
        return info

    def _scheduling(self, schedule: Callable) -> Callable:
        """``Engine.schedule``-shaped function that times the callback."""
        callback, span = self._callback, self._span

        def scheduling(engine, when, fn, *args):
            li, name, stat = callback(fn)
            return schedule(engine, when, span(fn, li, name, stat, event=True), *args)

        return scheduling

    # ------------------------------------------------------------------
    # Counting hooks, keyed by attribute path
    # ------------------------------------------------------------------
    def _hooks(self) -> dict[str, Callable]:
        counts, proposals = self.counts, self._proposals

        def link_send(args, kwargs, result):
            counts["messages"] += 1
            counts["bytes"] += args[1] if len(args) > 1 else kwargs["nbytes"]

        def batch_send(args, kwargs, result):
            links = args[0]
            nbytes = args[1] if len(args) > 1 else kwargs["nbytes"]
            counts["messages"] += len(links)
            counts["bytes"] += nbytes * len(links)

        def propose(args, kwargs, result):
            counts["proposed"] += 1
            if result is not None:
                proposals[id(args[0])] = result

        def commit(args, kwargs, result):
            unit = args[1] if len(args) > 1 else kwargs["unit"]
            if proposals.pop(id(args[0]), None) is unit:
                counts["useful"] += 1

        def finalize(args, kwargs, result):
            executor = getattr(args[0], "executor", None)
            if executor is not None:
                counts["steps"] += executor.steps_completed
            stats = result.fault_stats or {}
            counts["retries"] += sum(v for k, v in stats.items() if k.endswith("_retries"))
            counts["drops"] += sum(v for k, v in stats.items() if k.endswith("_drops"))
            counts["ff_skipped"] += (result.fastforward_stats or {}).get(
                "iterations_skipped", 0
            )

        def scheduled(args, kwargs, result):
            counts["scheduled"] += 1

        return {
            "Link.send": link_send,
            "send_batch": batch_send,
            "CommScheduler.propose_unit": propose,
            "CommScheduler.commit_unit": commit,
            "Trainer.finalize": finalize,
            "Engine.schedule": scheduled,
            "Engine.schedule_after": scheduled,
        }

    # ------------------------------------------------------------------
    # Install / uninstall
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Patch every target; call before any Trainer is built."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = self._hooks()
        for module, path, layer in self._targets:
            found = _resolve(module, path)
            if not found:
                if found is None:
                    self.missing.append(f"{module}.{path}")
                continue
            owner, attr, fn = found
            if path in ("Engine.schedule", "Engine.schedule_after"):
                fn = functools.wraps(fn)(self._scheduling(fn))
            self._patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, self.wrap(fn, layer, f"{module}.{path}", hooks.get(path)))

    def uninstall(self) -> None:
        """Restore every patched attribute, most recent first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def layer_self_s(self, layer: str) -> float:
        return self.self_s[self._layer_index[layer]]

    def layer_calls(self, layer: str) -> int:
        return self.calls[self._layer_index[layer]]

    def name_calls(self, suffix: str) -> int:
        """Calls of every span whose name ends with ``suffix``."""
        return sum(s[0] for name, s in self.by_name.items() if name.endswith(suffix))

    def name_seconds(self, suffix: str) -> float:
        """Inclusive seconds of every span whose name ends with ``suffix``."""
        return sum(s[1] for name, s in self.by_name.items() if name.endswith(suffix))

    def metrics(self) -> dict[str, float]:
        """Every metric of :func:`layer_metric_names`, by name."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.layer_self_s(layer)
            out[f"{layer}.calls"] = self.layer_calls(layer)
        c = self.counts
        out.update(
            {
                "sim.engine.events": c["events"],
                "sim.engine.cancelled_share": _share(
                    self.name_calls("Event.cancel"), c["scheduled"]
                ),
                "net.link.messages": c["messages"],
                "net.link.bytes": c["bytes"],
                "cluster.ps.us_per_push": _share(
                    self.layer_self_s("cluster.ps") * 1e6,
                    self.name_calls("ParameterServer.receive_push"),
                ),
                "sched.useful_propose_share": _share(c["useful"], c["proposed"]),
                "net.collective.steps": c["steps"],
                "faults.retries": c["retries"],
                "faults.drops": c["drops"],
                "fleet.ticks": self.name_calls("FleetScheduler.tick"),
                "net.topology.relevels": self.name_calls("ClusterFabric.admit")
                + self.name_calls("ClusterFabric.release"),
                "sim.fastforward.iterations_skipped": c["ff_skipped"],
            }
        )
        return out

    def write_chrome_trace(self, path: str) -> int:
        """Write the kept spans as Chrome trace-event JSON; returns count."""
        closed = [s for s in self.spans if s[3] is not None]
        base = min((s[2] for s in closed), default=0.0)
        events = [
            {
                "name": name,
                "cat": layer,
                "ph": "X",
                "ts": (start - base) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"parent": parent},
            }
            for name, layer, start, end, parent in closed
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
        return len(events)


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0
