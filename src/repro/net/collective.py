"""Allreduce collective topology and its step executor.

The PS star moves a gradient twice over one worker NIC (push up, pull
down).  A ring allreduce instead moves it as ``2(N-1)`` pipelined chunk
steps of ``S/N`` bytes around a ring of worker-to-neighbor links — the
reduce-scatter then all-gather decomposition — so each worker NIC carries
``2(N-1)/N · S`` bytes per operation regardless of cluster size.  The
hierarchical shape splits the ring into ``m`` groups of ``g`` workers
(``N = m·g``): an intra-group reduce-scatter (``g-1`` steps of ``S/g``),
an inter-group ring allreduce among the group leaders (``2(m-1)`` steps of
``S/(g·m)``), and an intra-group all-gather (``g-1`` steps of ``S/g``) —
fewer inter-node steps at the cost of extra intra-group traffic, the
classic two-level NCCL/Horovod shape.

There is one topology and one executor: the flat ring is the one-group
hierarchical allreduce (:class:`RingTopology` is the one-group
:class:`HierarchicalTopology`), and its cost ``2(N-1)/N`` is
:func:`allreduce_cost` with no inter-group term.  An elastic shrink
re-plans the same way, as one group of the survivors.

Every chunk step is a real message on a real :class:`~repro.net.link.Link`
through the same TCP model as the PS path: it pays the Eq. 10 handshake +
slow-start setup unless it rides a warm window (back-to-back steps within
``warm_threshold`` keep the connection warm, exactly like consecutive PS
pushes).  Small transfer units therefore suffer the paper's small-message
penalty **per step**, which makes the tensor-fusion tradeoff the
MG-WFBP policy optimizes genuinely present in the collective backend.

The executor duck-types a PS uplink: ``busy``, ``tcp`` and
``send_unit(nbytes, tag, on_complete, extra_time)`` mirror
:meth:`Link.send <repro.net.link.Link.send>`, so the collective tier hands
them scheduler-committed :class:`~repro.sched.base.TransferUnit`s exactly
as a PS port hands a unit to its channel.  Steps are barrier-synchronized:
a step completes when its slowest link finishes (synchronous ring
semantics), which is how a heterogeneous link slows the whole
collective.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Mapping, Sequence

from repro.errors import ConfigurationError, SimulationError
from repro.faults.plan import MAX_RETRIES, retry_timeout
from repro.net.link import BandwidthSchedule, Link, send_batch
from repro.net.tcp import TCPParams
from repro.net.topology import worker_link, worker_schedules
from repro.sim.engine import Engine

__all__ = [
    "RingTopology",
    "HierarchicalTopology",
    "HierarchicalExecutor",
    "allreduce_cost",
]


def allreduce_cost(group_size: int, n_groups: int) -> float:
    """Critical-path bytes per payload byte on one link of an allreduce
    over ``n_groups`` groups of ``group_size`` workers: the intra phases
    move ``2(g-1)/g``, the inter-group ring ``2(m-1)/(g·m)``.  One group
    is the flat ring, ``2(N-1)/N``; one worker moves nothing (0).

    Schedulers that plan transfer times from a bandwidth estimate
    (Prophet) divide the link bandwidth by this factor to get the
    collective's *effective* per-byte rate.
    """
    g, m = group_size, n_groups
    return 2.0 * (g - 1) / g + 2.0 * (m - 1) / (g * m)


class HierarchicalTopology:
    """Two-level ring: ``m`` groups of ``group_size`` workers each.

    Groups are contiguous blocks (group ``i`` holds workers
    ``[i·g, (i+1)·g)``); worker ``i·g`` is group ``i``'s leader.  Every
    worker gets a *local* link for the intra-group phases; with more than
    one group every leader additionally gets a *global* link for the
    inter-group ring.  One group spanning every worker is the flat ring
    (:class:`RingTopology`): ``local_links[w]`` is worker ``w``'s transmit
    link towards ``(w+1) % n_workers``, named ``worker{w}-ring``, and
    there is no global link.
    """

    def __init__(
        self,
        engine: Engine,
        n_workers: int,
        group_size: int,
        bandwidth: float | BandwidthSchedule,
        tcp: TCPParams | None = None,
        worker_bandwidth: Mapping[int, float | BandwidthSchedule] | None = None,
    ):
        schedules = worker_schedules(n_workers, bandwidth, worker_bandwidth)
        if group_size < 1:
            raise ConfigurationError(f"group_size must be >= 1, got {group_size}")
        if n_workers % group_size != 0:
            raise ConfigurationError(
                f"group_size {group_size} does not divide n_workers {n_workers}"
            )
        self.engine = engine
        self.n_workers = n_workers
        self.group_size = group_size
        self.n_groups = n_workers // group_size
        self.tcp = tcp if tcp is not None else TCPParams()

        def _mk(w: int, kind: str) -> Link:
            return worker_link(engine, schedules[w], self.tcp, w, kind)

        ring = self.n_groups == 1
        #: Intra-group transmit link of every worker.
        self.local_links: list[Link] = [
            _mk(w, "ring" if ring else "local") for w in range(n_workers)
        ]
        #: Inter-group transmit link of each group leader, group order.
        self.global_links: list[Link] = [
            _mk(i * group_size, "global") for i in range(self.n_groups) if not ring
        ]

    # ------------------------------------------------------------------
    def leader_of(self, group: int) -> int:
        return group * self.group_size

    def worker_uplinks(self, worker: int) -> list[Link]:
        """All transmit links of ``worker`` (local; plus global for a
        group leader)."""
        links = [self.local_links[worker]]
        if self.global_links and worker % self.group_size == 0:
            links.append(self.global_links[worker // self.group_size])
        return links


class RingTopology(HierarchicalTopology):
    """``n_workers`` in one ring: the one-group :class:`HierarchicalTopology`.

    Chunk steps occupy every ring link at once, so the slowest link paces
    the collective — the ring analogue of the star's "slowest worker
    gates BSP".
    """

    def __init__(
        self,
        engine: Engine,
        n_workers: int,
        bandwidth: float | BandwidthSchedule,
        tcp: TCPParams | None = None,
        worker_bandwidth: Mapping[int, float | BandwidthSchedule] | None = None,
    ):
        super().__init__(engine, n_workers, n_workers, bandwidth, tcp, worker_bandwidth)


# ----------------------------------------------------------------------
# Executor
# ----------------------------------------------------------------------

#: Step watchdog: a chunk step is declared stalled once it has run for
#: this multiple of its expected time (slowest participating link's
#: estimate at launch).  A flap that bites mid-step, or a dropped chunk
#: awaiting its retransmit backoff, pushes the step past this bound.
_STEP_TIMEOUT_FACTOR = 3.0
#: Straggler mitigation cap: after this many abort-and-resend rounds the
#: watchdog stops interfering and lets the step drain at link speed.
_MAX_STEP_RETRIES = 2


class _StepExecutor:
    """Shared machinery: run a unit as barrier-synchronized link steps.

    :class:`HierarchicalExecutor` provides :meth:`_plan`, the list of
    ``(links, chunk_bytes)`` steps for one operation of ``nbytes`` over the
    active membership.  Each step launches one chunk send on every
    participating link; the step's barrier releases when the slowest send
    finishes, and the next step starts inside that completion callback —
    so back-to-back steps on the same link are gap-free and the TCP window
    stays warm, while idle gaps (a busy scheduler, a slow peer phase) cool
    it down exactly as on the PS path.

    **Fault-free steps** go through :func:`~repro.net.link.send_batch`,
    which calls :meth:`_step_done` once per step.  On a homogeneous ring
    the step runs in lockstep: one transfer-time computation, one
    shared in-flight row and log row, and one drain event for all N
    links; links that differ (``worker_bandwidth`` overrides, stepped
    schedules) fall back to per-link starts and completion
    events.  Either way the results are bit-identical to N separate sends
    counted down to the barrier.  :meth:`abort` needs no handle on the
    drain event: aborted links no longer carry the step's row, so the
    drain skips them and the barrier does not fire.

    **Fault mode** (:meth:`set_faults`) sends per link and counts the
    barrier down in :meth:`_chunk_done_reliable`, adding three behaviours,
    all behind ``self._faults is None`` checks so the fault-free event
    sequence is untouched:

    * every chunk completion rolls the plan's ``push`` drop probability
      (the ``chunk`` leg); a lost chunk retransmits on the same link after
      the :func:`~repro.faults.plan.retry_timeout` backoff, without
      releasing the step barrier, at most
      :data:`~repro.faults.plan.MAX_RETRIES` times before the run fails;
    * a per-step watchdog detects stragglers — steps exceeding
      ``_STEP_TIMEOUT_FACTOR ×`` their launch-time estimate — and
      mitigates with bounded abort-and-resend rounds on the lagging links;
    * :meth:`remove_worker` shrinks the membership after a rank crash,
      rebuilding the step plan over the survivors; the in-flight
      operation must be :meth:`abort`-ed first.
    """

    def __init__(self, engine: Engine, tcp: TCPParams, n_workers: int):
        self.engine = engine
        self.tcp = tcp
        #: Active members, ascending rank order.
        self._members = list(range(n_workers))
        self._inflight_tag: object | None = None
        self._steps: list[tuple[Sequence[Link], float]] = []
        self._step_idx = 0
        self._step_pending = 0
        self._extra_time = 0.0
        self._on_complete: Callable[[], None] | None = None
        #: Completed chunk steps across the executor's lifetime (the
        #: micro-benchmark counts these per wall second).
        self.steps_completed = 0
        self.ops_completed = 0
        # Step plans keyed by operation size: the plan is a pure function
        # of (nbytes, membership) and the steps list is never mutated in
        # place (abort/op-done rebind it), so repeat operations of the
        # same size — every iteration of a training run — reuse it.
        # Cleared on membership changes; bounded like the TCP table memo.
        self._plan_cache: dict[float, list[tuple[Sequence[Link], float]]] = {}
        # Fault mode (inert in fault-free builds).
        self._faults = None
        self._owner_of: dict[Link, int] = {}
        #: Ranks removed by elastic shrink (never rejoin).
        self.removed: set[int] = set()
        self._watchdog = None
        self._step_retries = 0
        self._chunk_attempts: dict[Link, int] = {}
        self._resend_timers: dict[Link, object] = {}
        self._zero_event = None

    def set_faults(self, faults) -> None:
        """Attach a :class:`~repro.faults.injector.FaultInjector` and build
        the link→owner map that attributes chunk drops to workers."""
        self._faults = faults
        self._owner_of = self._link_owners()

    def _link_owners(self) -> dict[Link, int]:
        raise NotImplementedError

    def remove_worker(self, worker_id: int) -> None:
        """Elastic shrink: permanently drop ``worker_id`` from the
        membership and rebuild future step plans over the survivors.  The
        executor must be idle (:meth:`abort` any in-flight operation
        first)."""
        if self.busy:
            raise SimulationError(
                "remove_worker() while an operation is in flight; abort() first"
            )
        if worker_id not in self._members:
            raise SimulationError(
                f"worker {worker_id} is not an active collective member"
            )
        self._members.remove(worker_id)
        self.removed.add(worker_id)
        self._plan_cache.clear()
        if self._faults is not None:
            self._owner_of = self._link_owners()

    @property
    def members(self) -> list[int]:
        return list(self._members)

    # -- send interface (duck-types Link.send) -------------------------
    @property
    def busy(self) -> bool:
        return self._inflight_tag is not None or self._on_complete is not None

    def send_unit(
        self,
        nbytes: float,
        tag: object = None,
        on_complete: Callable[[], None] | None = None,
        extra_time: float = 0.0,
    ) -> float | None:
        """Start one allreduce of ``nbytes``; ``on_complete`` fires when
        its last step's barrier releases.

        Returns the completion time only for the zero-step identity
        operation; otherwise ``None``, since barrier times depend on
        in-flight dynamics.  Callers must not send while ``busy``.
        """
        if self.busy:
            raise SimulationError("collective executor is busy")
        if nbytes < 0:
            raise SimulationError(f"negative transfer size {nbytes!r}")
        size = float(nbytes)
        steps = self._plan_cache.get(size)
        if steps is None:
            if len(self._plan_cache) >= 64:
                del self._plan_cache[next(iter(self._plan_cache))]
            steps = self._plan(size)
            self._plan_cache[size] = steps
        self._steps = steps
        self._step_idx = 0
        self._extra_time = extra_time
        self._on_complete = on_complete
        self._inflight_tag = tag
        if not self._steps:
            # Single-worker degenerate ring: the allreduce is the identity
            # and moves no bytes.  Completion still goes through the event
            # loop (zero simulated time) so callback ordering matches the
            # multi-worker path.
            self._zero_event = self.engine.schedule(self.engine.now, self._op_done)
            return self.engine.now
        self._launch_step()
        return None

    def abort(self) -> None:
        """Abort the in-flight operation (a rank crashed mid-collective).

        Every busy participating link drops its chunk (the bytes are lost,
        no completion fires), pending chunk retransmits are cancelled, and
        the executor returns to idle without invoking ``on_complete`` —
        the caller owns resending the operation over the shrunk ring.
        """
        if self._inflight_tag is None and self._on_complete is None:
            return
        self._cancel_watchdog()
        for timer in self._resend_timers.values():
            timer.cancel()
        self._resend_timers.clear()
        self._chunk_attempts.clear()
        if self._zero_event is not None:
            self._zero_event.cancel()
            self._zero_event = None
        if self._steps:
            links, _ = self._steps[self._step_idx]
            for link in links:
                if link.busy:
                    link.abort()
        self._steps = []
        self._step_idx = 0
        self._step_pending = 0
        self._inflight_tag = None
        self._on_complete = None

    # -- step machinery -------------------------------------------------
    def _plan(self, nbytes: float) -> list[tuple[Sequence[Link], float]]:
        raise NotImplementedError

    def _launch_step(self) -> None:
        links, chunk = self._steps[self._step_idx]
        tag = self._inflight_tag
        if self._faults is None:
            # Barrier step: all chunk sends start this instant, and on a
            # homogeneous ring they run in lockstep — send_batch
            # computes one transfer time, shares one in-flight row, and
            # completes the step with one drain event that calls the
            # barrier once (bit-identical; see its docstring).
            send_batch(
                links,
                chunk,
                tag=tag,
                on_complete=self._step_done,
                extra_time=self._extra_time,
            )
            return
        self._step_pending = len(links)
        self._step_retries = 0
        self._chunk_attempts.clear()
        for link in links:
            link.send(
                chunk,
                tag=tag,
                on_complete=partial(self._chunk_done_reliable, link, chunk),
                extra_time=self._extra_time,
            )
        self._arm_watchdog(links, chunk)

    def _step_done(self) -> None:
        """The step's barrier released: launch the next step or finish."""
        self.steps_completed += 1
        self._step_idx += 1
        if self._step_idx < len(self._steps):
            self._launch_step()
        else:
            self._op_done()

    def _op_done(self) -> None:
        on_complete = self._on_complete
        self._on_complete = None
        self._inflight_tag = None
        self._steps = []
        self._zero_event = None
        self.ops_completed += 1
        if on_complete is not None:
            on_complete()

    # -- fault-mode step machinery --------------------------------------
    def _chunk_done_reliable(self, link: Link, chunk: float) -> None:
        """Fault-mode chunk completion: roll the drop leg, retransmit a
        lost chunk on the same link after backoff, else count towards the
        step barrier."""
        faults = self._faults
        assert faults is not None
        owner = self._owner_of.get(link, -1)
        if faults.roll_drop("chunk", owner):
            attempt = self._chunk_attempts.get(link, 0)
            if attempt >= MAX_RETRIES:
                raise SimulationError(
                    f"worker {owner} chunk of step {self._step_idx} exhausted "
                    f"{MAX_RETRIES} retries"
                )
            self._chunk_attempts[link] = attempt + 1
            faults.count("chunk_retries")
            self._resend_timers[link] = self.engine.schedule_after(
                retry_timeout(attempt), self._resend_chunk, link, chunk
            )
            return
        self._chunk_attempts.pop(link, None)
        self._step_pending -= 1
        if self._step_pending > 0:
            return
        self._cancel_watchdog()
        faults.count("ring_steps")
        self._step_done()

    def _resend_chunk(self, link: Link, chunk: float) -> None:
        self._resend_timers.pop(link, None)
        if self._inflight_tag is None:
            return  # operation aborted while the backoff timer was armed
        link.send(
            chunk,
            tag=self._inflight_tag,
            on_complete=partial(self._chunk_done_reliable, link, chunk),
            extra_time=0.0,
        )

    def _arm_watchdog(self, links: Sequence[Link], chunk: float) -> None:
        """Arm the straggler timeout for the step just launched: the
        slowest link's estimate now, scaled by the timeout factor, plus
        the retry backoff for this mitigation round.  A flap that
        starts mid-step slows the transfer below the launch-time estimate
        and trips the timeout — exactly the observable a real straggler
        detector keys on."""
        assert self._faults is not None
        expected = max(link.estimate_time(chunk) for link in links)
        timeout = (
            _STEP_TIMEOUT_FACTOR * (expected + self._extra_time)
            + retry_timeout(self._step_retries)
        )
        self._watchdog = self.engine.schedule_after(
            timeout, self._step_timeout, self._step_idx
        )

    def _cancel_watchdog(self) -> None:
        if self._watchdog is not None:
            self._watchdog.cancel()
            self._watchdog = None

    def _step_timeout(self, step_idx: int) -> None:
        self._watchdog = None
        if self._inflight_tag is None or step_idx != self._step_idx:
            return  # stale timer: the op was aborted or the step advanced
        faults = self._faults
        assert faults is not None
        faults.count("stalled_steps")
        links, chunk = self._steps[self._step_idx]
        lagging = [link for link in links if link.busy]
        faults.record(
            "collective.straggler",
            "collective/faults",
            {
                "step": step_idx,
                "lagging": sorted(self._owner_of.get(l, -1) for l in lagging),
                "retries": self._step_retries,
            },
        )
        if self._step_retries >= _MAX_STEP_RETRIES or not lagging:
            # Mitigation exhausted (or the step is only waiting out a
            # chunk-retransmit backoff): stop interfering and let the
            # barrier drain at whatever pace the links manage.
            return
        self._step_retries += 1
        for link in lagging:
            link.abort()
            faults.count("chunk_retries")
            link.send(
                chunk,
                tag=self._inflight_tag,
                on_complete=partial(self._chunk_done_reliable, link, chunk),
                extra_time=0.0,
            )
        self._arm_watchdog(links, chunk)


class HierarchicalExecutor(_StepExecutor):
    """Two-level allreduce: intra reduce-scatter, inter ring, intra
    all-gather (``2(g-1) + 2(m-1)`` steps of ``S/g`` and ``S/(g·m)``).

    One group is the flat ring: ``2(N-1)`` steps of ``S/N``, the
    reduce-scatter then the all-gather.  The two-level shape assumes full
    groups; a crashed rank punches a hole in its group, so after an
    elastic shrink the executor plans over **one group of the
    survivors**, on their local links — a flat ring at ``2(k-1)/k``.
    """

    def __init__(self, topology: HierarchicalTopology):
        super().__init__(topology.engine, topology.tcp, topology.n_workers)
        self.topology = topology

    def _groups(self) -> tuple[int, int]:
        """``(group size, group count)`` of the active membership."""
        topo = self.topology
        n = len(self._members)
        if n == topo.n_workers:
            return topo.group_size, topo.n_groups
        return n, 1

    def _link_owners(self) -> dict[Link, int]:
        topo = self.topology
        owners = {topo.local_links[w]: w for w in self._members}
        for i, link in enumerate(topo.global_links):
            owners[link] = topo.leader_of(i)
        return owners

    @property
    def efficiency_factor(self) -> float:
        """Critical-path bytes per payload byte (:func:`allreduce_cost`)."""
        return allreduce_cost(*self._groups())

    def _plan(self, nbytes: float) -> list[tuple[Sequence[Link], float]]:
        if len(self._members) == 1 or nbytes <= 0.0:
            return []
        g, m = self._groups()
        local = [self.topology.local_links[w] for w in self._members]
        intra = [(local, nbytes / g)] * (g - 1)
        # Reduce-scatter within every group, the inter-group ring among
        # the leaders, all-gather within every group.
        inter = [(self.topology.global_links, nbytes / (g * m))] * (2 * (m - 1))
        return intra + inter + intra
