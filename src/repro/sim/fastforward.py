"""Steady-state iteration fast-forward: detect the periodic fixed point
of an eligible training run and skip the remaining simulated iterations
in O(1) event work per skipped iteration.

A fault-free BSP run under constant bandwidth and zero compute jitter is
a deterministic dynamical system: the tuple (component state, pending
event queue) at one iteration boundary fully determines everything that
follows.  When the simulation runs on the engine's power-of-two *time
quantum* grid (every delay snapped to a multiple of ``2**e``), the system
is additionally **exactly translation-invariant in time**: every event
timestamp is a grid multiple, and shifting all of them by a grid multiple
``D`` reproduces the identical float values the unrolled run would have
computed (the sums ``a·q + d·q = (a+d)·q`` are exact in IEEE-754 for any
mantissa-range ``a+d``).  Therefore, if the *canonical time-relative
snapshot* at iteration boundary ``k`` equals the snapshot at boundary
``k − p``, the run has entered a periodic fixed point with period ``p``:
iterations ``k .. k+p`` will replay iterations ``k−p .. k`` exactly,
shifted by ``D = t(k) − t(k−p)`` — bit for bit.

The :class:`FastForwardDetector` exploits this in three phases:

1. **Detect** — at every iteration boundary (all workers entered
   backward for iteration ``k``; a dedicated engine event fires at the
   boundary's position in the event stream) it computes a canonical
   fingerprint: each component's :meth:`ff_state` (absolute times as
   offsets from the boundary timestamp, iteration labels as offsets from
   ``k``) plus the canonicalized pending event queue.  A fingerprint
   seen before (at boundary ``k − p``) announces the candidate period.
2. **Journal** — it then records one full cycle ``[k, k+p)``: every
   metric row/field/gpu-span/gradient-mark, every link transfer record,
   and every PS byte-counter increment, in global chronological order.
   At boundary ``k + p`` the fingerprint is recomputed; any mismatch is
   a conservative fallback (discard the journal, keep detecting).
3. **Fast-forward** — on a verified match it computes how many whole
   cycles ``C`` fit before the configured end, replays the journal ``C``
   times (times shifted by ``m·D``, iterations by ``m·p`` — every
   floating-point accumulator sees the identical op sequence the
   unrolled run would have applied), extrapolates monotone integer
   counters, translates every pending event by ``C·D`` (relabeling
   iteration arguments and pull units), shifts component state, and
   resumes the event loop — which then simulates only the final partial
   cycle.  Aggregate results are bit-identical to the unrolled run.

Everything here **fails closed**: an unrecognized pending event or
callback, a mismatched verification fingerprint, or any unregistered
object disables fast-forward for the run and the simulation simply
unrolls, exactly as if the detector had never been installed.
"""

from __future__ import annotations

import os
from dataclasses import replace as _dc_replace
from functools import partial

from repro.cluster.collective import CollectiveController
from repro.cluster.worker import PSPort, StallProbe, Worker
from repro.metrics.timeline import GpuInterval, IterationRecord
from repro.net.collective import _StepExecutor
from repro.net.link import Link, TransferRecord, _drain_batch
from repro.net.monitor import BandwidthMonitor
from repro.sim.engine import _ARGS, _FN, _TIME, Engine, Event

__all__ = [
    "FFContext",
    "FFShift",
    "FastForwardDetector",
    "fastforward_eligibility",
    "NO_FASTFORWARD_ENV",
]

#: Environment kill-switch: any non-empty value disables fast-forward
#: (``repro profile`` sets it so flame graphs show the real event loop).
NO_FASTFORWARD_ENV = "REPRO_NO_FASTFORWARD"

#: Give up after this many fingerprinted boundaries without a verified
#: period — bounds both the fingerprint-index memory and the per-boundary
#: overhead of a run that never settles.
_MAX_UNMATCHED_BOUNDARIES = 512


class _Unsupported(Exception):
    """A pending event/callback the canonicalizer does not recognise."""


# ----------------------------------------------------------------------
# Canonicalization context (fingerprints) and shift context (engagement)
# ----------------------------------------------------------------------
class FFContext:
    """Maps absolute simulation state to boundary-relative canonical form.

    ``t0`` is the boundary timestamp, ``k`` the boundary iteration; all
    component :meth:`ff_state` implementations express times as
    ``t − t0`` and iteration labels as ``i − k`` through this object, so
    two boundaries of a periodic orbit produce equal fingerprints.
    """

    __slots__ = ("t0", "k", "_tokens")

    def __init__(self, t0: float, k: int, tokens: dict[int, tuple]):
        self.t0 = t0
        self.k = k
        self._tokens = tokens

    def rel(self, t: float) -> float:
        return t - self.t0

    def rel_opt(self, t: float | None) -> float | None:
        return None if t is None else t - self.t0

    def rel_iter(self, i: int) -> int:
        return i - self.k

    def token(self, obj) -> tuple:
        """Stable identity token assigned at detector install time."""
        tok = self._tokens.get(id(obj))
        if tok is None:
            raise _Unsupported(f"object not registered for fast-forward: {obj!r}")
        return tok

    def pull(self, u) -> tuple:
        """Canonical form of a :class:`~repro.cluster.messages.PullUnit`
        (its segment is a frozen, time-free dataclass)."""
        return (u.worker, self.rel_iter(u.iteration), u.segment, self.rel(u.created))

    def tag(self, tag) -> tuple | None:
        """Canonical form of a transfer tag ``(kind, iteration)``."""
        if tag is None:
            return None
        kind, it = tag
        return (kind, self.rel_iter(it))

    def callback(self, cb) -> tuple | None:
        """Canonical form of a stored completion callback (link
        ``on_complete``).  Fails closed on anything unregistered."""
        if cb is None:
            return None
        if isinstance(cb, partial):
            fn = cb.func
            target = getattr(fn, "__func__", fn)
            handler = _CB_CANON.get(target)
            if handler is None:
                raise _Unsupported(f"unsupported callback {target!r}")
            owner = getattr(fn, "__self__", None)
            return (self.token(owner), target.__qualname__, handler(self, cb.args))
        target = getattr(cb, "__func__", None)
        if target is not None and target in _CB_ZERO:
            return (self.token(cb.__self__), target.__qualname__)
        raise _Unsupported(f"unsupported callback {cb!r}")


class FFShift:
    """Uniform translation applied at engagement: ``dt`` seconds and
    ``diter`` iterations (``dt = C·D`` is an exact multiple of the time
    quantum, so every shifted timestamp is bit-identical to the value
    the unrolled run would have produced)."""

    __slots__ = ("dt", "diter")

    def __init__(self, dt: float, diter: int):
        self.dt = dt
        self.diter = diter

    def pull(self, u):
        return _dc_replace(
            u, iteration=u.iteration + self.diter, created=u.created + self.dt
        )

    def tag(self, tag):
        if tag is None:
            return None
        kind, it = tag
        return (kind, it + self.diter)

    def callback(self, cb):
        """Rebuild a stored completion callback with shifted arguments."""
        if cb is None:
            return None
        if isinstance(cb, partial):
            target = getattr(cb.func, "__func__", cb.func)
            handler = _CB_SHIFT.get(target)
            if handler is None:
                raise _Unsupported(f"unsupported callback {target!r}")
            return partial(cb.func, *handler(self, cb.args))
        return cb  # zero-arg bound method: carries no time or iteration


# ----------------------------------------------------------------------
# Callback registries (link ``on_complete`` values)
# ----------------------------------------------------------------------
def _canon_pulls_done(ctx: FFContext, args) -> tuple:
    link, batch, start = args
    return (ctx.token(link), tuple(ctx.pull(p) for p in batch), ctx.rel(start))


def _shift_pulls_done(shift: FFShift, args) -> tuple:
    link, batch, start = args
    return (link, [shift.pull(p) for p in batch], start + shift.dt)


def _canon_unit_done(ctx: FFContext, args) -> tuple:
    # (iteration, unit, start, desc) — ``desc`` is trace-only detail
    # (None unless tracing) and carries no behaviour: excluded.
    iteration, unit, start, _desc = args
    return (ctx.rel_iter(iteration), unit.segments, ctx.rel(start))


def _shift_unit_done(shift: FFShift, args) -> tuple:
    iteration, unit, start, desc = args
    return (iteration + shift.diter, unit, start + shift.dt, desc)


_CB_CANON = {
    PSPort._pulls_done: _canon_pulls_done,
    PSPort._push_done: _canon_unit_done,
    CollectiveController._op_done: _canon_unit_done,
}

_CB_SHIFT = {
    PSPort._pulls_done: _shift_pulls_done,
    PSPort._push_done: _shift_unit_done,
    CollectiveController._op_done: _shift_unit_done,
}

#: Zero-argument bound methods that may appear as stored callbacks.
_CB_ZERO = {_StepExecutor._chunk_done}


# ----------------------------------------------------------------------
# Pending-event registries (the engine queue at a boundary)
# ----------------------------------------------------------------------
def _canon_noargs(ctx: FFContext, args) -> tuple:
    return ()


def _canon_fwd_chunk(ctx: FFContext, args) -> tuple:
    return (args[0],)


def _canon_bucket_ready(ctx: FFContext, args) -> tuple:
    return (ctx.rel_iter(args[0]), args[1])


def _shift_bucket_ready(shift: FFShift, args) -> tuple:
    return (args[0] + shift.diter, args[1])


def _canon_backward_done(ctx: FFContext, args) -> tuple:
    return (ctx.rel_iter(args[0]),)


def _shift_backward_done(shift: FFShift, args) -> tuple:
    return (args[0] + shift.diter,)


def _canon_enqueue_pull(ctx: FFContext, args) -> tuple:
    return (ctx.pull(args[0]),)


def _shift_enqueue_pull(shift: FFShift, args) -> tuple:
    return (shift.pull(args[0]),)


def _canon_enqueue_pulls(ctx: FFContext, args) -> tuple:
    return (tuple(ctx.pull(p) for p in args[0]),)


def _shift_enqueue_pulls(shift: FFShift, args) -> tuple:
    return ([shift.pull(p) for p in args[0]],)


def _canon_drain_batch(ctx: FFContext, args) -> tuple:
    return (tuple(ctx.token(link) for link in args[0]),)


_EVENT_CANON = {
    Link._finish: _canon_noargs,
    _drain_batch: _canon_drain_batch,
    _StepExecutor._op_done: _canon_noargs,
    Worker._forward_chunk_done: _canon_fwd_chunk,
    Worker._bucket_ready: _canon_bucket_ready,
    Worker._backward_done: _canon_backward_done,
    StallProbe._stall_check: _canon_noargs,
    PSPort.enqueue_pull: _canon_enqueue_pull,
    PSPort.enqueue_pulls: _canon_enqueue_pulls,
}

_EVENT_SHIFT = {
    Worker._bucket_ready: _shift_bucket_ready,
    Worker._backward_done: _shift_backward_done,
    PSPort.enqueue_pull: _shift_enqueue_pull,
    PSPort.enqueue_pulls: _shift_enqueue_pulls,
}

#: Pending events excluded from fingerprints: the bandwidth monitor's
#: sampling tick free-runs on its own period (generally incommensurate
#: with the iteration period), but under fast-forward eligibility the
#: sampled value is a constant and nothing behavioural consumes the
#: sample *timing* — the tick is translated generically at engagement.
_EVENT_EXCLUDE = {BandwidthMonitor._sample}


# ----------------------------------------------------------------------
# Eligibility gate
# ----------------------------------------------------------------------
def fastforward_eligibility(
    config, schedulers, links, injector, engine=None
) -> tuple[bool, str | None]:
    """Whether a run qualifies for steady-state fast-forward.

    Conservative by construction: every source of aperiodicity or
    cross-iteration drift (faults, noise, jitter, dynamic bandwidth,
    non-BSP sync, opted-out schedulers, co-tenant jobs on a shared
    engine) disqualifies the run.  Returns ``(eligible, reason)`` with
    ``reason`` naming the first blocker.
    """
    if not config.fastforward:
        return False, "disabled by configuration"
    if os.environ.get(NO_FASTFORWARD_ENV):
        return False, f"{NO_FASTFORWARD_ENV} set"
    if engine is not None and getattr(engine, "multi_tenant", False):
        return False, "multi-tenant engine (fleet run shares the event queue)"
    if config.time_quantum is None:
        return False, "no time_quantum configured (exactness requires the grid)"
    if injector is not None:
        return False, "fault injection active"
    if config.jitter_std != 0.0:
        return False, "compute jitter active"
    if config.bandwidth_noise_std != 0.0:
        return False, "bandwidth noise active"
    if config.sync_mode != "bsp":
        return False, f"sync mode {config.sync_mode!r} drifts across iterations"
    for sched in schedulers:
        if not getattr(sched, "ff_supported", False):
            return False, f"scheduler {sched.name!r} opted out"
    for link in links:
        if len(link.schedule._times) != 1:
            return False, f"link {link.name!r} has a dynamic bandwidth schedule"
    return True, None


# ----------------------------------------------------------------------
# The detector
# ----------------------------------------------------------------------
class FastForwardDetector:
    """Periodic-fixed-point detector and O(1) iteration fast-forwarder.

    Installed by the trainer only on eligible runs.  Workers report each
    iteration boundary from ``_begin_backward``; once all ``n_workers``
    reported, a dedicated engine event fingerprints the full simulation
    state at the boundary's exact position in the event stream.
    """

    def __init__(
        self,
        engine: Engine,
        *,
        workers,
        schedulers,
        links,
        servers,
        recorder,
        monitors,
        n_workers: int,
        n_iterations: int,
        controller=None,
        executor=None,
    ):
        self._engine = engine
        self._workers = list(workers)
        self._links = list(links)
        self._servers = list(servers)
        self._recorder = recorder
        self._monitors = list(monitors)
        self._n_workers = n_workers
        self.n_iterations = n_iterations

        self._components: list = []
        self._components.extend(self._workers)
        self._components.extend(schedulers)
        self._components.extend(self._links)
        self._components.extend(self._servers)
        if controller is not None:
            self._components.append(controller)
        if executor is not None:
            self._components.append(executor)

        # Stable identity tokens: canonical stand-ins for object
        # references inside fingerprints (callback owners, callback
        # arguments).  Keyed by id(); the keepalive list pins the
        # objects so ids cannot be recycled.
        self._tokens: dict[int, tuple] = {}
        self._keepalive: list = []
        for w in self._workers:
            self._register(w, ("w", w.worker_id))
            for s, port in enumerate(w._ports):
                self._register(port, ("port", w.worker_id, s))
        for i, link in enumerate(self._links):
            self._register(link, ("link", i))
        for i, ps in enumerate(self._servers):
            self._register(ps, ("ps", i))
        if controller is not None:
            self._register(controller, ("ctl",))
        if executor is not None:
            self._register(executor, ("exec",))

        # Monotone integer counters: excluded from fingerprints,
        # extrapolated exactly (v1 + C·(v1 − v0)) at engagement.
        self._counters: list[tuple[object, str]] = []
        for comp in self._components:
            for name in getattr(type(comp), "ff_counters", ()):
                self._counters.append((comp, name))

        # Detection state.
        self._active = True
        self._report_iter = -1
        self._report_count = 0
        self._boundary_event: Event | None = None
        self._fp_index: dict = {}
        self._full_index: dict = {}
        # target-function → qualname (or "" for excluded events); memoised
        # because the cheap key resolves it for every pending event.
        self._qualnames: dict = {}
        self._journal: list | None = None
        self._journal_start: tuple | None = None
        self._journal_end_iter = -1

        #: Diagnostics / test surface.
        self.detect_only = False
        self.engaged = False
        self.period = 0
        self.cycles_skipped = 0
        self.iterations_skipped = 0
        self.fallbacks = 0
        self.boundaries_seen = 0
        self.disabled_reason: str | None = None

        for w in self._workers:
            w._ff = self

    # ------------------------------------------------------------------
    def _register(self, obj, token: tuple) -> None:
        self._tokens[id(obj)] = token
        self._keepalive.append(obj)

    def _disable(self, reason: str) -> None:
        self._active = False
        self.disabled_reason = reason
        self._detach_journal()
        trace = self._engine.trace
        if trace.enabled:
            trace.instant(
                "fastforward.disabled",
                "sim",
                self._engine.now,
                "sim.fastforward",
                {"reason": reason},
            )

    # ------------------------------------------------------------------
    # Boundary reporting (called from Worker._begin_backward)
    # ------------------------------------------------------------------
    def iteration_boundary(self, iteration: int) -> None:
        if not self._active:
            return
        if iteration != self._report_iter:
            self._report_iter = iteration
            self._report_count = 0
        self._report_count += 1
        if self._report_count == self._n_workers:
            # Fingerprint from a dedicated event so the snapshot sits at
            # a well-defined position in the same-timestamp event order
            # (after everything the last ``_begin_backward`` scheduled).
            self._boundary_event = self._engine.schedule(
                self._engine.now, self._boundary, iteration
            )

    # ------------------------------------------------------------------
    def _boundary(self, k: int) -> None:
        if not self._active:
            return
        if self._journal is not None and k < self._journal_end_iter:
            return  # mid-cycle boundary while recording: nothing to do
        self.boundaries_seen += 1
        now = self._engine.now
        ctx = FFContext(now, k, self._tokens)
        fp: tuple | None = None

        if self._journal is not None:
            # Verification boundary of a recorded cycle: always pay for
            # the full fingerprint (bounded — one per recorded period).
            try:
                fp = self._fingerprint(ctx)
            except _Unsupported as exc:
                self._disable(str(exc))
                return
            j_fp = self._journal_start[3]
            if fp == j_fp:
                self._engage(k, now)
                return
            # Conservative fallback: the orbit was not periodic after
            # all — discard the journal and keep detecting below (the
            # just-computed fingerprint is reused for indexing).
            self.fallbacks += 1
            self._detach_journal()

        # Two-tier detection.  The cheap key — pending-event times and
        # aggregation-state sizes, all implied by full-state equality —
        # costs O(pending) per boundary; the expensive canonical
        # fingerprint only runs on boundaries whose cheap key has been
        # seen before, so a never-periodic run pays ~nothing.
        cheap = self._cheap_key(ctx)
        if cheap not in self._fp_index:
            self._fp_index[cheap] = k
            if len(self._fp_index) > _MAX_UNMATCHED_BOUNDARIES:
                self._disable("no periodic fixed point found")
            return
        if fp is None:
            if self.detect_only:
                return  # overhead probe: never confirm, never engage
            try:
                fp = self._fingerprint(ctx)
            except _Unsupported as exc:
                self._disable(str(exc))
                return

        prev = self._full_index.get(fp)
        if prev is None:
            self._full_index[fp] = k
            if len(self._full_index) > _MAX_UNMATCHED_BOUNDARIES:
                self._disable("no periodic fixed point found")
            return
        if self.detect_only:
            return
        p = k - prev
        if (self.n_iterations - 1 - (k + p)) // p >= 1:
            self._journal_start = (k, now, self._snapshot_counters(), fp)
            self._journal_end_iter = k + p
            self._attach_journal()
        else:
            # Too close to the end for even one skipped cycle; no
            # later match can do better (the remaining span only
            # shrinks) — stop paying the per-boundary cost.
            self._disable("periodic, but too few iterations remain")

    # ------------------------------------------------------------------
    def _snapshot_counters(self) -> tuple:
        return tuple(getattr(obj, name) for obj, name in self._counters)

    def _cheap_key(self, ctx: FFContext) -> tuple:
        """O(pending) necessary condition for a full-fingerprint match.

        Built only from quantities *implied* by full canonical-state
        equality — the sorted (relative time, qualname) multiset of
        non-excluded pending events and the per-server aggregation map
        sizes — so equal full states always produce equal cheap keys
        (no false negatives).  Coincidental cheap collisions merely
        trigger one full fingerprint, whose own index settles the match.
        """
        t0 = ctx.t0
        names = self._qualnames
        events = []
        for e in self._engine.ff_pending(self._boundary_event, ordered=False):
            fn = e[_FN]
            target = getattr(fn, "__func__", fn)
            name = names.get(target)
            if name is None:
                if target in _EVENT_EXCLUDE:
                    name = ""
                else:
                    name = getattr(target, "__qualname__", "?")
                names[target] = name
            if name:
                events.append((e[_TIME] - t0, name))
        events.sort()
        servers = tuple(
            (len(ps._received), len(ps._progress), len(ps._waiting), ps._n_waiting)
            for ps in self._servers
        )
        return (tuple(events), servers)

    def _fingerprint(self, ctx: FFContext) -> tuple:
        parts = [comp.ff_state(ctx) for comp in self._components]
        pending = []
        for e in self._engine.ff_pending(self._boundary_event):
            canon = self._canon_event(ctx, e)
            if canon is not None:
                pending.append(canon)
        parts.append(tuple(pending))
        return tuple(parts)

    def _canon_event(self, ctx: FFContext, e: Event) -> tuple | None:
        fn = e[_FN]
        target = getattr(fn, "__func__", fn)
        if target in _EVENT_EXCLUDE:
            return None
        handler = _EVENT_CANON.get(target)
        if handler is None:
            raise _Unsupported(f"unsupported pending event {target!r}")
        owner = getattr(fn, "__self__", None)
        return (
            ctx.rel(e[_TIME]),
            None if owner is None else ctx.token(owner),
            target.__qualname__,
            handler(ctx, e[_ARGS]),
        )

    # ------------------------------------------------------------------
    # Cycle journal plumbing
    # ------------------------------------------------------------------
    def _attach_journal(self) -> None:
        journal: list = []
        self._journal = journal
        self._recorder._ff_journal = journal
        for link in self._links:
            link._ff_journal = journal
        for ps in self._servers:
            ps._ff_journal = journal

    def _detach_journal(self) -> None:
        self._journal = None
        self._journal_start = None
        self._journal_end_iter = -1
        self._recorder._ff_journal = None
        for link in self._links:
            link._ff_journal = None
        for ps in self._servers:
            ps._ff_journal = None

    # ------------------------------------------------------------------
    # Engagement: replay C cycles, translate everything, resume
    # ------------------------------------------------------------------
    def _engage(self, k1: int, t1: float) -> None:
        j_iter, t0, counters0, _j_fp = self._journal_start
        journal = self._journal
        counters1 = self._snapshot_counters()
        self._detach_journal()
        self._active = False

        p = k1 - j_iter
        # D and C·D are exact multiples of the time quantum (differences
        # and small-integer multiples of grid numbers are exact), so
        # every shifted timestamp below is the unrolled run's bit
        # pattern.
        period_time = t1 - t0
        cycles = (self.n_iterations - 1 - k1) // p
        if cycles < 1:  # pragma: no cover - guarded before journaling
            self._disable("periodic, but too few iterations remain")
            return
        self.engaged = True
        self.period = p
        self.cycles_skipped = cycles
        self.iterations_skipped = cycles * p
        shift = FFShift(cycles * period_time, cycles * p)

        # 1. Replay the recorded cycle C times: one chronological pass
        # per skipped cycle so every per-object float accumulator
        # (link byte/busy totals, PS push totals, gradient marks)
        # receives the identical op sequence, in order.
        recorder = self._recorder
        workers = self._workers
        for m in range(1, cycles + 1):
            dtm = m * period_time
            dim = m * p
            for op in journal:
                kind = op[0]
                if kind == "rowset":
                    _, w, i, field, t = op
                    rec = recorder._iter_index[(w, i + dim)]
                    setattr(rec, field, t + dtm)
                    if field == "fwd_start":
                        workers[w]._fwd_start_times.append(t + dtm)
                elif kind == "row":
                    _, w, i = op
                    rec = IterationRecord(worker=w, iteration=i + dim)
                    recorder.iterations.append(rec)
                    recorder._iter_index[(w, i + dim)] = rec
                elif kind == "gpu":
                    _, w, i, gkind, s, e = op
                    recorder.gpu_intervals.append(
                        GpuInterval(w, i + dim, gkind, s + dtm, e + dtm)
                    )
                elif kind == "grad":
                    _, w, i, g, field, t = op
                    rec = recorder.gradient(w, i + dim, g)
                    if rec is not None:
                        setattr(rec, field, t + dtm)
                elif kind == "link":
                    _, link, s, e, nbytes, tag = op
                    if tag is not None:
                        tag = (tag[0], tag[1] + dim)
                    link.records.append(
                        TransferRecord(s + dtm, e + dtm, nbytes, tag)
                    )
                    link.total_bytes += nbytes
                    link._busy_accum += e - s
                else:  # "ps"
                    _, ps, nbytes = op
                    ps.total_push_bytes += nbytes

        # 2. Monotone integer counters advance by exactly C per-cycle
        # increments.
        for (obj, name), v0, v1 in zip(self._counters, counters0, counters1):
            setattr(obj, name, v1 + cycles * (v1 - v0))

        # 3. Translate the pending event queue (uniform time shift +
        # iteration/pull-unit relabeling), then every component.
        self._shift = shift
        self._engine.ff_shift(shift.dt, self._boundary_event, self._rewrite_event)
        for comp in self._components:
            comp.ff_shift(shift)

        # 4. Re-point each worker's current-iteration row at the row the
        # replay created for its (shifted) iteration.
        for w in workers:
            w._iter_rec = recorder._iter_index[(w.worker_id, w._iter)]

        trace = self._engine.trace
        if trace.enabled:
            trace.complete(
                "fast-forward",
                "sim",
                t1,
                t1 + shift.dt,
                "sim.fastforward",
                {
                    "period": p,
                    "cycles": cycles,
                    "iterations_skipped": cycles * p,
                    "resume_iteration": k1 + cycles * p,
                },
            )

    def _rewrite_event(self, e: Event) -> None:
        fn = e[_FN]
        target = getattr(fn, "__func__", fn)
        handler = _EVENT_SHIFT.get(target)
        if handler is not None:
            e[_ARGS] = handler(self._shift, e[_ARGS])
