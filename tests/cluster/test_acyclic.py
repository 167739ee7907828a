"""A finished run is freed by reference counting, without the cycle collector.

The simulator's records are plain data, and :meth:`Trainer.detach`
(called by ``finalize``, or by a fleet once its engine drains) clears
the back-edges between components (link idle callbacks, port ↔ worker,
port ↔ server, controller ↔ worker, worker → trainer → fleet), so once
the caller drops the trainer and its result the whole object graph goes
away on the spot.  Each shape runs with the collector disabled, checks
that weak references to the trainer, its topology and one link are dead,
and then asks a full collection how many unreachable objects it found:
a run that left a reference cycle anywhere shows up as a non-zero count.
"""

from __future__ import annotations

import gc
import weakref
from collections import Counter
from dataclasses import replace

import pytest

from repro.cluster.trainer import Trainer
from repro.experiments import chaos
from repro.fleet import FleetSimulator
from repro.fleet.job import FleetJob
from repro.metrics.timeline import GradientRecord
from repro.net.link import TransferRecord
from repro.quantities import Gbps
from repro.runner import build_factory
from repro.workloads.presets import paper_config


def _train(config):
    trainer = Trainer(config, build_factory("prophet"))
    result = trainer.run()
    link = trainer.topology.worker_uplinks(0)[0]
    return [trainer, trainer.topology, link], result


def _fleet():
    jobs = [
        FleetJob(
            name=f"job{i}",
            config=paper_config(
                "resnet18", 16, bandwidth=3 * Gbps, n_workers=2, n_iterations=3
            ),
            strategy=strategy,
            arrival=0.01 * i,
        )
        for i, strategy in enumerate(("prophet", "mxnet-fifo"))
    ]
    simulator = FleetSimulator(
        jobs, core_bandwidth=8 * Gbps, n_hosts=2, slots_per_host=2
    )
    result = simulator.run()
    trainer = simulator.handles[0].trainer
    link = trainer.topology.worker_uplinks(0)[0]
    return [simulator, trainer, trainer.topology, link], result


SHAPES = {
    "star": _train,
    "traced-star": lambda c: _train(replace(c, trace=True)),
    "sharded": lambda c: _train(replace(c, n_servers=2)),
    "ring": lambda c: _train(replace(c, backend="allreduce")),
    "hierarchical": lambda c: _train(
        replace(
            c,
            n_workers=4,
            backend="allreduce",
            collective="hierarchical",
            collective_group_size=2,
        )
    ),
    # The tiny run ends near t=4.2 s: land the crash, flap and PS stall
    # inside it so every fault path has run before the graph is dropped.
    "chaos": lambda c: _train(
        replace(c, faults=chaos.default_plan(crash_at=1.0, flap_at=2.0, stall_at=3.0))
    ),
    "fleet": lambda c: _fleet(),
}


@pytest.mark.parametrize("shape", SHAPES)
def test_finished_run_is_freed_by_refcount(tiny_config, shape):
    gc.collect()
    gc.disable()
    try:
        probes, result = SHAPES[shape](tiny_config)
        refs = [weakref.ref(p) for p in probes]
        del probes, result
        alive = [type(r()).__name__ for r in refs if r() is not None]
        gc.set_debug(gc.DEBUG_SAVEALL)
        unreachable = gc.collect()
        leaked = Counter(type(o).__qualname__ for o in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert alive == []
    assert unreachable == 0, leaked.most_common(10)


def test_live_result_tracks_no_records(tiny_config):
    """Transfer and gradient rows are plain data: even while the result
    is alive, the collector tracks no record object."""
    config = replace(tiny_config, n_workers=4, backend="allreduce")
    result = Trainer(config, build_factory("prophet")).run()
    assert result.gradient_records()  # the run did record gradients
    gc.collect()
    kinds = {type(o) for o in gc.get_objects()}
    assert TransferRecord not in kinds
    assert GradientRecord not in kinds
