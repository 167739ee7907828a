"""Ring/hierarchical collective topologies and step executors.

The invariants that make the collective cost model trustworthy:

* a ring operation of ``S`` bytes serializes exactly ``2(N-1)/N · S``
  bytes on every ring link (the textbook allreduce lower bound);
* the hierarchical plan is intra reduce-scatter, inter ring, intra
  all-gather, with the advertised per-phase chunk sizes;
* degenerate shapes (one worker, one group, groups of one) collapse to
  the right flat structure instead of special-casing — the flat ring is
  the one-group hierarchical topology, and an elastic shrink re-plans as
  one group of the survivors;
* the executor runs one operation at a time, completion through the
  event loop.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.experiments.collective import _ring_cost_factor
from repro.net.collective import (
    HierarchicalExecutor,
    HierarchicalTopology,
    RingTopology,
)
from repro.net.tcp import TCPParams
from repro.quantities import Gbps, MB
from repro.sim.engine import Engine

TCP = TCPParams(rtt=0.2e-3, fixed_overhead=0.1e-3, goodput=0.8)


def _run_op(executor, nbytes):
    """Drive one allreduce through the engine; return completion time."""
    done = []
    executor.send_unit(nbytes, tag=("allreduce", 0), on_complete=lambda: done.append(
        executor.engine.now
    ))
    executor.engine.run()
    assert len(done) == 1
    return done[0]


# ----------------------------------------------------------------------
# Topologies
# ----------------------------------------------------------------------

def test_ring_topology_shape():
    topo = RingTopology(Engine(), n_workers=4, bandwidth=3 * Gbps, tcp=TCP)
    assert len(topo.local_links) == 4
    assert topo.local_links[1].name == "worker1-ring"
    assert topo.global_links == []  # one group: no inter-group ring
    assert topo.worker_uplinks(0) == [topo.local_links[0]]
    assert topo.worker_uplinks(3) == [topo.local_links[3]]


def test_ring_min_bandwidth_sees_slow_worker():
    topo = RingTopology(
        Engine(), n_workers=3, bandwidth=3 * Gbps, tcp=TCP,
        worker_bandwidth={1: 1 * Gbps},
    )
    assert topo.local_links[1].current_bandwidth() == pytest.approx(1 * Gbps)
    assert topo.local_links[0].current_bandwidth() == pytest.approx(3 * Gbps)


def test_ring_topology_validation():
    with pytest.raises(ConfigurationError):
        RingTopology(Engine(), n_workers=0, bandwidth=3 * Gbps)
    with pytest.raises(ConfigurationError):
        RingTopology(
            Engine(), n_workers=2, bandwidth=3 * Gbps, worker_bandwidth={5: 1e9}
        )


def test_hierarchical_topology_shape():
    topo = HierarchicalTopology(
        Engine(), n_workers=6, group_size=3, bandwidth=3 * Gbps, tcp=TCP
    )
    assert topo.n_groups == 2
    assert len(topo.local_links) == 6
    assert len(topo.global_links) == 2
    assert topo.leader_of(1) == 3
    # Leaders carry local + global; followers local only.
    assert topo.worker_uplinks(3) == [topo.local_links[3], topo.global_links[1]]
    assert topo.worker_uplinks(4) == [topo.local_links[4]]


def test_hierarchical_group_size_must_divide():
    with pytest.raises(ConfigurationError):
        HierarchicalTopology(Engine(), n_workers=4, group_size=3, bandwidth=3 * Gbps)


# ----------------------------------------------------------------------
# The ring (one group): byte conservation and step structure
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n_workers", [2, 3, 4, 7])
def test_ring_bytes_per_link(n_workers):
    topo = RingTopology(Engine(), n_workers=n_workers, bandwidth=3 * Gbps, tcp=TCP)
    executor = HierarchicalExecutor(topo)
    nbytes = 12 * MB
    _run_op(executor, nbytes)

    expected_steps = 2 * (n_workers - 1)
    assert executor.steps_completed == expected_steps
    assert executor.ops_completed == 1
    per_link = 2.0 * (n_workers - 1) / n_workers * nbytes
    for link in topo.local_links:
        assert len(link.records) == expected_steps
        assert sum(r.nbytes for r in link.records) == pytest.approx(per_link)
    assert executor.efficiency_factor == pytest.approx(
        2.0 * (n_workers - 1) / n_workers
    )


def test_ring_size_one_is_identity():
    """A one-worker ring moves no bytes and completes in zero sim time."""
    topo = RingTopology(Engine(), n_workers=1, bandwidth=3 * Gbps, tcp=TCP)
    executor = HierarchicalExecutor(topo)
    t = _run_op(executor, 12 * MB)
    assert t == 0.0
    assert executor.steps_completed == 0
    assert executor.ops_completed == 1
    assert topo.local_links[0].records == []
    assert executor.efficiency_factor == 0.0


def test_ring_executor_rejects_concurrent_ops():
    topo = RingTopology(Engine(), n_workers=3, bandwidth=3 * Gbps, tcp=TCP)
    executor = HierarchicalExecutor(topo)
    executor.send_unit(1 * MB, tag="a")
    assert executor.busy
    with pytest.raises(SimulationError):
        executor.send_unit(1 * MB, tag="b")


def test_ring_back_to_back_ops_complete_in_order():
    topo = RingTopology(Engine(), n_workers=2, bandwidth=3 * Gbps, tcp=TCP)
    executor = HierarchicalExecutor(topo)
    times = []

    def second():
        times.append(topo.engine.now)

    def first():
        times.append(topo.engine.now)
        executor.send_unit(2 * MB, tag="b", on_complete=second)

    executor.send_unit(4 * MB, tag="a", on_complete=first)
    topo.engine.run()
    assert len(times) == 2 and times[0] < times[1]
    assert executor.ops_completed == 2


def test_ring_abort_mid_step_fires_nothing():
    """abort() during a lockstep step: the step's drain event still fires,
    but finds no link carrying its row — no barrier, no step, no op."""
    topo = RingTopology(Engine(), n_workers=4, bandwidth=3 * Gbps, tcp=TCP)
    executor = HierarchicalExecutor(topo)
    done = []
    executor.send_unit(12 * MB, tag="a", on_complete=lambda: done.append(1))
    first_end = topo.local_links[0].busy_until
    topo.engine.run(until=first_end)  # step 0 done, step 1 launched
    second_end = topo.local_links[0].busy_until
    topo.engine.run(until=(first_end + second_end) / 2)
    assert executor.steps_completed == 1
    assert all(link.busy for link in topo.local_links)

    executor.abort()
    topo.engine.run()
    assert done == []
    assert executor.steps_completed == 1
    assert executor.ops_completed == 0
    assert not executor.busy
    assert not any(link.busy for link in topo.local_links)
    assert all(len(link.records) == 1 for link in topo.local_links)


def test_ring_op_started_after_abort_ignores_the_stale_drain():
    """A fresh op launched at the abort instant runs every step at full
    length: the aborted step's drain event must not complete its links."""
    topo = RingTopology(Engine(), n_workers=4, bandwidth=3 * Gbps, tcp=TCP)
    executor = HierarchicalExecutor(topo)
    executor.send_unit(12 * MB, tag="a")
    topo.engine.run(until=topo.local_links[0].busy_until / 2)
    executor.abort()
    t0 = topo.engine.now
    t = _run_op(executor, 12 * MB)

    fresh = HierarchicalExecutor(RingTopology(Engine(), n_workers=4, bandwidth=3 * Gbps, tcp=TCP))
    assert t - t0 == pytest.approx(_run_op(fresh, 12 * MB))
    assert executor.steps_completed == fresh.steps_completed == 6
    assert executor.ops_completed == 1


# ----------------------------------------------------------------------
# Hierarchical executor
# ----------------------------------------------------------------------

def test_hierarchical_bytes_per_link():
    g, m = 2, 3  # 6 workers, 3 groups of 2
    topo = HierarchicalTopology(
        Engine(), n_workers=g * m, group_size=g, bandwidth=3 * Gbps, tcp=TCP
    )
    executor = HierarchicalExecutor(topo)
    nbytes = 12 * MB
    _run_op(executor, nbytes)

    assert executor.steps_completed == 2 * (g - 1) + 2 * (m - 1)
    for link in topo.local_links:  # two intra phases of (g-1) steps each
        assert sum(r.nbytes for r in link.records) == pytest.approx(
            2.0 * (g - 1) / g * nbytes
        )
    for link in topo.global_links:  # inter-group ring on S/g shards
        assert sum(r.nbytes for r in link.records) == pytest.approx(
            2.0 * (m - 1) / (g * m) * nbytes
        )
    assert executor.efficiency_factor == pytest.approx(
        2.0 * (g - 1) / g + 2.0 * (m - 1) / (g * m)
    )


def test_hierarchical_single_group_is_flat_ring():
    """m == 1: no inter phase; the intra phases form a flat ring of g."""
    g = 4
    topo = HierarchicalTopology(
        Engine(), n_workers=g, group_size=g, bandwidth=3 * Gbps, tcp=TCP
    )
    executor = HierarchicalExecutor(topo)
    nbytes = 8 * MB
    _run_op(executor, nbytes)
    assert executor.steps_completed == 2 * (g - 1)
    # It is the ring: its links take the ring's names, and there is no
    # global link to leave idle.
    assert topo.global_links == []
    ring = RingTopology(Engine(), n_workers=g, bandwidth=3 * Gbps)
    assert [link.name for link in topo.local_links] == [
        link.name for link in ring.local_links
    ]
    assert executor.efficiency_factor == pytest.approx(2.0 * (g - 1) / g)


def test_hierarchical_groups_of_one_is_flat_ring():
    """g == 1: no intra phases; the inter ring is a flat ring of m."""
    m = 4
    topo = HierarchicalTopology(
        Engine(), n_workers=m, group_size=1, bandwidth=3 * Gbps, tcp=TCP
    )
    executor = HierarchicalExecutor(topo)
    nbytes = 8 * MB
    _run_op(executor, nbytes)
    assert executor.steps_completed == 2 * (m - 1)
    for link in topo.local_links:
        assert link.records == []
    assert executor.efficiency_factor == pytest.approx(2.0 * (m - 1) / m)


@pytest.mark.parametrize(
    "n_workers,collective,group_size",
    [(1, "ring", 2), (4, "ring", 2), (4, "hierarchical", 2),
     (4, "hierarchical", 1), (4, "hierarchical", 4)],
)
def test_cost_factor_matches_the_executor(n_workers, collective, group_size):
    """The experiments' planning factor is the executor's cost (1 instead
    of 0 for one worker, where nothing moves)."""
    g = group_size if collective == "hierarchical" else n_workers
    topo = HierarchicalTopology(
        Engine(), n_workers=n_workers, group_size=g, bandwidth=3 * Gbps
    )
    cost = HierarchicalExecutor(topo).efficiency_factor
    expected = 1.0 if n_workers == 1 else cost
    assert _ring_cost_factor(n_workers, collective, group_size) == expected
