"""Cluster network topology.

The paper's testbed is a star: one parameter server, N workers, each worker
connected by its own (EC2 instance) NIC.  The binding resource in every
experiment is the *worker* NIC — the paper caps "worker bandwidth limit" in
Table 2 and caps a single worker to 500 Mbps in the heterogeneity
experiment — so the topology materializes one uplink (worker→PS, used by
push) and one downlink (PS→worker, used by pull) per worker.

An optional ``ps_bandwidth`` models a PS-side NIC cap (the regime where the
PS becomes the bottleneck; used by the scalability ablation).  The cap is
divided among workers with **water-filling** (max-min fair) semantics: a
worker whose own NIC is already slower than the fair share keeps its NIC
rate, and the share it cannot use is redistributed to the faster workers —
the steady state competing TCP flows converge to.  A static
``ps_bandwidth / n_workers`` split would instead strand the slow worker's
unused share (over-capping heterogeneous clusters).

:class:`ShardedTopology` builds that star (``n_servers=1``) and its
BytePS-style generalization: ``n_servers`` key-sharded parameter servers,
each with its own ``ps_bandwidth`` NIC, and per-``(worker, shard)`` duplex
links so a worker pushes to (and pulls from) every shard concurrently.
Each shard's NIC is water-filled across the workers independently.  In
this model the worker NIC caps each individual shard flow but not their
sum — the sharded regime of interest is the one where the PS tier, not
the worker NIC, is the bottleneck (see DESIGN.md).  Every topology, the
allreduce ones of :mod:`repro.net.collective` included, builds its links
through :func:`worker_schedules` and :func:`worker_link`.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from repro.errors import ConfigurationError
from repro.net.link import BandwidthSchedule, Link
from repro.net.tcp import TCPParams
from repro.sim.engine import Engine

__all__ = [
    "ShardedTopology",
    "ClusterFabric",
    "water_fill_level",
    "water_fill_shares",
]


def water_fill_level(demands: Sequence[float], capacity: float) -> float:
    """Max-min fair water level ``L`` for ``demands`` sharing ``capacity``.

    ``L`` solves ``sum(min(d, L)) == capacity``; each flow's fair share is
    ``min(d, L)``.  Returns ``inf`` when the demands fit entirely
    (``sum(demands) <= capacity`` — nobody needs capping).
    """
    if capacity <= 0:
        raise ConfigurationError(f"capacity must be positive, got {capacity}")
    if any(d <= 0 for d in demands):
        raise ConfigurationError("demands must be positive")
    ordered = sorted(demands)
    if sum(ordered) <= capacity:
        return math.inf
    remaining = capacity
    for i, d in enumerate(ordered):
        level = remaining / (len(ordered) - i)
        if d >= level:
            return level
        remaining -= d
    # Unreachable: sum(demands) > capacity guarantees some demand >= level.
    return remaining  # pragma: no cover - defensive


def water_fill_shares(demands: Sequence[float], capacity: float) -> list[float]:
    """Per-flow max-min fair shares of ``capacity`` (``min(d, L)`` each)."""
    level = water_fill_level(demands, capacity)
    return [min(float(d), level) for d in demands]


def _merged_times(schedules: Sequence[BandwidthSchedule]) -> list[float]:
    """Union of all breakpoint times across ``schedules``, sorted."""
    times: set[float] = set()
    for sched in schedules:
        times.update(sched.times)
    times.add(0.0)
    return sorted(times)


def _ps_capped_schedules(
    schedules: Sequence[BandwidthSchedule], ps_bandwidth: float
) -> list[BandwidthSchedule]:
    """Water-fill ``ps_bandwidth`` across per-worker bandwidth schedules.

    Piecewise: at every union breakpoint the water level is recomputed from
    the workers' instantaneous demands, and each worker's capped schedule
    takes ``min(demand, level)`` there.  For a homogeneous cluster this
    reduces exactly to the classic ``min(b, ps_bandwidth / n)`` split.
    Breakpoints where a worker's share repeats its previous segment are
    elided from that worker's capped schedule — transparent to
    ``value()``, which is piecewise-constant either way.
    """
    capped_points: list[list[tuple[float, float]]] = [[] for _ in schedules]
    for t in _merged_times(schedules):
        shares = water_fill_shares([s.value(t) for s in schedules], ps_bandwidth)
        for points, share in zip(capped_points, shares):
            if not points or points[-1][1] != share:
                points.append((t, share))
    return [BandwidthSchedule(points) for points in capped_points]


class ClusterFabric:
    """Shared datacenter fabric: per-host NICs feeding an oversubscribed core.

    The multi-tenant counterpart of the PS-side water-filling above.  Each
    *tenant* (one training job of the fleet simulator) brings ``n_links``
    worker NICs of ``nic_bandwidth`` bytes/s each; the core carries
    ``core_bandwidth`` bytes/s in aggregate, typically less than the sum
    of all NICs (oversubscription).  Core capacity is divided across the
    currently *active* tenants by water-filling over their aggregate NIC
    demand (``n_links x nic_bandwidth``) — max-min fairness at tenant
    granularity, the steady state of per-tenant congestion control — and
    each tenant's per-link bandwidth is its core share divided evenly
    over its links, never above its own NIC rate.

    :meth:`admit` hands back a **live** :class:`BandwidthSchedule`: the
    tenant builds its job topology on it, and on every membership change
    the fabric re-levels it in place via
    :meth:`BandwidthSchedule.set_level`.  While the fleet is uncontended
    (or has a single tenant) every schedule keeps its single breakpoint,
    so the links' constant-schedule fast path — and hence bit-identity
    with a directly built single job — is preserved.
    """

    def __init__(self, core_bandwidth: float):
        if core_bandwidth <= 0:
            raise ConfigurationError(
                f"core_bandwidth must be positive, got {core_bandwidth}"
            )
        self.core_bandwidth = float(core_bandwidth)
        # name -> (n_links, nic_bandwidth, live schedule); insertion order
        # is the (deterministic) water-filling evaluation order.
        self._tenants: dict[str, tuple[int, float, BandwidthSchedule]] = {}

    # ------------------------------------------------------------------
    @property
    def tenants(self) -> tuple[str, ...]:
        """Names of the currently admitted tenants, admission order."""
        return tuple(self._tenants)

    def demand(self) -> float:
        """Aggregate NIC demand of the active tenants (bytes/s)."""
        return sum(n * nic for n, nic, _ in self._tenants.values())

    def oversubscription(self) -> float:
        """Current demand-to-core ratio (> 1 means contended)."""
        return self.demand() / self.core_bandwidth

    def share(self, name: str) -> float:
        """The per-link bandwidth ``name`` currently gets (bytes/s)."""
        n_links, nic, sched = self._tenants[name]
        return sched._values[-1]

    # ------------------------------------------------------------------
    def admit(
        self, name: str, n_links: int, nic_bandwidth: float, now: float = 0.0
    ) -> BandwidthSchedule:
        """Add a tenant; returns its live per-link bandwidth schedule.

        The schedule starts at the tenant's fair share as of ``now`` and
        is re-levelled in place on every later membership change.  Every
        already-admitted tenant's schedule is re-levelled too.
        """
        if name in self._tenants:
            raise ConfigurationError(f"tenant {name!r} already admitted")
        if n_links < 1:
            raise ConfigurationError(f"n_links must be >= 1, got {n_links}")
        if nic_bandwidth <= 0:
            raise ConfigurationError(
                f"nic_bandwidth must be positive, got {nic_bandwidth}"
            )
        sched = BandwidthSchedule.constant(float(nic_bandwidth))
        self._tenants[name] = (n_links, float(nic_bandwidth), sched)
        self._relevel(now)
        return sched

    def release(self, name: str, now: float = 0.0) -> None:
        """Remove a tenant and redistribute its core share."""
        if name not in self._tenants:
            raise ConfigurationError(f"unknown tenant {name!r}")
        del self._tenants[name]
        self._relevel(now)

    def _relevel(self, now: float) -> None:
        """Water-fill the core over the active tenants' NIC demands.

        An unconstrained tenant (its whole demand fits under the water
        level) keeps its exact NIC rate — not ``demand / n_links``, whose
        float division could differ in the last ulp — so an uncontended
        fleet stays bit-identical to dedicated links.
        """
        tenants = self._tenants.values()
        if not tenants:
            return
        demands = [n * nic for n, nic, _ in tenants]
        level = water_fill_level(demands, self.core_bandwidth)
        for (n_links, nic, sched), demand in zip(tenants, demands):
            if demand <= level:
                per_link = nic
            else:
                per_link = min(nic, level / n_links)
            sched.set_level(now, per_link)


def worker_schedules(
    n_workers: int,
    bandwidth: float | BandwidthSchedule,
    worker_bandwidth: Mapping[int, float | BandwidthSchedule] | None = None,
    ps_bandwidth: float | None = None,
) -> list[BandwidthSchedule]:
    """Validated per-worker bandwidth schedules, water-filled under
    ``ps_bandwidth`` when it is set.

    ``bandwidth`` is every worker's default and ``worker_bandwidth`` maps
    worker index to an override; either may be bytes/s or a
    :class:`BandwidthSchedule`.
    """
    if n_workers < 1:
        raise ConfigurationError(f"n_workers must be >= 1, got {n_workers}")
    if ps_bandwidth is not None and ps_bandwidth <= 0:
        raise ConfigurationError(f"ps_bandwidth must be positive, got {ps_bandwidth}")
    overrides = dict(worker_bandwidth or {})
    for idx in overrides:
        if not 0 <= idx < n_workers:
            raise ConfigurationError(
                f"worker_bandwidth override for unknown worker {idx}"
            )
    raw = []
    for w in range(n_workers):
        b = overrides.get(w, bandwidth)
        raw.append(
            b if isinstance(b, BandwidthSchedule) else BandwidthSchedule.constant(float(b))
        )
    if ps_bandwidth is None:
        return raw
    return _ps_capped_schedules(raw, ps_bandwidth)


def worker_link(
    engine: Engine,
    schedule: BandwidthSchedule,
    tcp: TCPParams,
    worker: int,
    *rest: int | str,
) -> Link:
    """One worker link, named ``worker{w}[-s{shard}]-{kind}`` after
    ``(worker, [shard,] kind)``."""
    name = "-".join(
        [f"worker{worker}", *(f"s{p}" if isinstance(p, int) else p for p in rest)]
    )
    return Link(engine, schedule, tcp, name=name)


class ShardedTopology:
    """PS tier of ``n_servers`` key-sharded servers, per-shard duplex links.

    Every worker gets one uplink and one downlink **per shard**, so pushes
    to different shards proceed concurrently (no head-of-line blocking
    between shards — the BytePS deployment model).  Each server has its own
    ``ps_bandwidth`` NIC, water-filled across the workers; each
    ``(worker, shard)`` link is additionally capped by the worker's own
    configured bandwidth (``worker_bandwidth`` overrides the default
    ``bandwidth`` per worker, e.g. worker 0 capped to 500 Mbps in the
    heterogeneity experiments).

    The paper's star is ``n_servers=1``: its links keep the star's names
    (``worker{w}-up``/``-down``).

    The worker NIC caps each shard flow individually but not their sum —
    an accepted simplification for the PS-bound regime this topology
    targets (see DESIGN.md, "Sharded PS tier").
    """

    def __init__(
        self,
        engine: Engine,
        n_workers: int,
        bandwidth: float | BandwidthSchedule,
        tcp: TCPParams | None = None,
        worker_bandwidth: Mapping[int, float | BandwidthSchedule] | None = None,
        ps_bandwidth: float | None = None,
        *,
        n_servers: int = 1,
    ):
        if n_servers < 1:
            raise ConfigurationError(f"n_servers must be >= 1, got {n_servers}")
        # Every shard serves all workers, so the per-shard water-filling is
        # identical across shards; compute it once.
        schedules = worker_schedules(n_workers, bandwidth, worker_bandwidth, ps_bandwidth)
        self.engine = engine
        self.n_workers = n_workers
        self.n_servers = n_servers
        self.tcp = tcp if tcp is not None else TCPParams()
        # uplinks[worker][shard] / downlinks[worker][shard]
        self.uplinks: list[list[Link]] = []
        self.downlinks: list[list[Link]] = []
        for w, sched in enumerate(schedules):
            ups: list[Link] = []
            downs: list[Link] = []
            for s in range(n_servers):
                shard = () if n_servers == 1 else (s,)
                for direction, bucket in (("up", ups), ("down", downs)):
                    bucket.append(worker_link(engine, sched, self.tcp, w, *shard, direction))
            self.uplinks.append(ups)
            self.downlinks.append(downs)

    # ------------------------------------------------------------------
    def uplink(self, worker: int, shard: int = 0) -> Link:
        """The push link of ``worker`` towards ``shard``."""
        return self.uplinks[worker][shard]

    def downlink(self, worker: int, shard: int = 0) -> Link:
        """The pull link of ``shard`` towards ``worker``."""
        return self.downlinks[worker][shard]

    def worker_uplinks(self, worker: int) -> list[Link]:
        """All push links of ``worker``, shard order."""
        return list(self.uplinks[worker])

    def worker_downlinks(self, worker: int) -> list[Link]:
        """All pull links of ``worker``, shard order."""
        return list(self.downlinks[worker])


# bench/tracer.py names it; the star is ShardedTopology(n_servers=1).
class StarTopology(ShardedTopology):
    pass
